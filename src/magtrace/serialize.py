"""File formats and canonical report emission.

Operators travel as JSON objects {"entries": [{"j","k","re","im"}...],
"class": ...}; test functions as {"nodes": [[eps, value], ...]}.  JSON
reports are emitted canonically: keys sorted, floats at 17 significant
digits, so parsing and re-emitting a report is byte identical.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from .dos import CompactTestFunction
from .errors import DomainError
from .extrapolate import ConvergenceTable
from .operators import CoefficientOperator, OPERATOR_CLASSES


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise DomainError("reports may not contain non-finite numbers")
    text = format(float(value), ".17g")
    return text


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    out = io.StringIO()
    _emit(obj, out)
    return out.getvalue()


def _emit(obj, out) -> None:
    if obj is None or isinstance(obj, bool):
        out.write(json.dumps(obj))
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(format_float(obj))
    elif isinstance(obj, complex):
        _emit({"im": obj.imag, "re": obj.real}, out)
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, ConvergenceTable):
        _emit(table_to_dict(obj), out)
    elif isinstance(obj, dict):
        out.write("{")
        for pos, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise DomainError("report keys must be strings")
            if pos:
                out.write(", ")
            out.write(json.dumps(key))
            out.write(": ")
            _emit(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for pos, item in enumerate(obj):
            if pos:
                out.write(", ")
            _emit(item, out)
        out.write("]")
    elif isinstance(obj, (np.integer,)):
        out.write(str(int(obj)))
    elif isinstance(obj, (np.floating,)):
        out.write(format_float(float(obj)))
    else:
        raise DomainError("cannot serialize %r" % type(obj))


def operator_to_dict(op: CoefficientOperator) -> dict:
    entries = [{"j": j, "k": k, "re": v.real, "im": v.imag}
               for (j, k), v in sorted(op.entries.items())]
    return {"entries": entries, "class": op.declared_class}


def _number(value, message: str) -> float:
    """A JSON number (int or float, not bool) as a float; DomainError otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DomainError(message)


def operator_from_dict(data: dict) -> CoefficientOperator:
    if not isinstance(data, dict):
        raise DomainError("an operator document must be a JSON object")
    declared = data.get("class", "unclassified")
    if declared not in OPERATOR_CLASSES:
        raise DomainError("unknown operator class %r" % (declared,))
    items = data.get("entries", [])
    if not isinstance(items, list):
        raise DomainError("operator entries must form a JSON array")
    entries = {}
    for pos, item in enumerate(items):
        if not isinstance(item, dict) or "j" not in item or "k" not in item:
            raise DomainError("operator entry %d must be an object with "
                              "j and k indices" % pos)
        key = (item["j"], item["k"])
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in key):
            raise DomainError("operator entry %d must have integer j and k "
                              "indices" % pos)
        real, imag = (_number(item.get(part, 0.0),
                              "operator entry %d has non-numeric fields" % pos)
                      for part in ("re", "im"))
        entries[key] = entries.get(key, 0.0) + complex(real, imag)
    return CoefficientOperator(entries, declared)


def save_operator(op: CoefficientOperator, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(operator_to_dict(op)))
        handle.write("\n")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DomainError("%s is not valid JSON: %s" % (path, exc))
        except UnicodeDecodeError as exc:
            raise DomainError("%s is not UTF-8 text: %s" % (path, exc))


def load_operator(path: str) -> CoefficientOperator:
    return operator_from_dict(_load_json(path))


def load_test_function(path: str) -> CompactTestFunction:
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise DomainError("a test function document needs a nodes array")
    message = "test function nodes must be [eps, value] pairs of JSON numbers"
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in data["nodes"]):
        raise DomainError(message)
    return CompactTestFunction(nodes=tuple(tuple(_number(x, message) for x in pair)
                                           for pair in data["nodes"]))


def format_cell(value) -> str:
    """One CSV cell: complex as a+bj (real alone when b == 0), None empty."""
    if isinstance(value, complex):
        if value.imag == 0.0:
            return format_float(value.real)
        return "%s%+sj" % (format_float(value.real), format_float(value.imag))
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(float(value))


def table_to_csv(table: ConvergenceTable) -> str:
    lines = ["param,raw,accelerated,extrapolated,residual"]
    residual = table.residual if math.isfinite(table.residual) else None
    for pos, (param, raw, acc) in enumerate(table.rows()):
        tail = (format_cell(table.extrapolated), format_cell(residual)) if pos == 0 \
            else ("", "")
        lines.append(",".join([format_cell(param), format_cell(raw), format_cell(acc),
                               *tail]))
    return "\n".join(lines) + "\n"


def table_to_dict(table: ConvergenceTable) -> dict:
    return {
        "model": table.model,
        "params": list(table.params),
        "raw": [complex(v) for v in table.raw],
        "accelerated": None if table.accelerated is None
        else [complex(v) for v in table.accelerated],
        "extrapolated": complex(table.extrapolated),
        "residual": table.residual if math.isfinite(table.residual) else None,
        "converged": table.converged,
    }
