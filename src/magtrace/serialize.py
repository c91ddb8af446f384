"""File formats and canonical report emission.

Operators travel as JSON objects {"entries": [{"j","k","re","im"}...],
"class": ...}; test functions as {"nodes": [[eps, value], ...]}.  JSON
reports are emitted canonically: keys sorted, floats at 17 significant
digits, so parsing and re-emitting a report is byte identical.
report_rows lists the leaves of the same report for CSV.
"""

from __future__ import annotations

import io
import json
import math
import sys

from .errors import DomainError
from .extrapolate import ConvergenceTable
from .operators import CoefficientOperator, OPERATOR_CLASSES


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise DomainError("reports may not contain non-finite numbers")
    return format(float(value), ".17g")


def _plain(obj):
    """A report as plain JSON values, object keys sorted: the one report encoder.

    Complex numbers become {"im", "re"}, tables go through table_to_dict, tuples
    and arrays become lists and numpy numbers int or float; all else is refused.
    numpy is taken from sys.modules, not imported: no numpy value exists
    unless numpy is loaded, so a report without one never loads it.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, complex):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise DomainError("report keys must be strings")
        return {key: _plain(obj[key]) for key in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    if isinstance(obj, ConvergenceTable):
        return _plain(table_to_dict(obj))
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return _plain(obj.tolist())
    raise DomainError("cannot serialize %r" % type(obj))


def _json_text(node) -> str:
    """JSON text of a plain value: ", " and ": " separators, floats by format_float."""
    if isinstance(node, float):
        return format_float(node)
    if isinstance(node, dict):
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(key), _json_text(value))
                                  for key, value in node.items())
    if isinstance(node, list):
        return "[%s]" % ", ".join(map(_json_text, node))
    return json.dumps(node)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    return _json_text(_plain(obj))


def _leaves(node, path):
    if isinstance(node, dict):
        for key, item in node.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(node, list):
        for pos, item in enumerate(node):
            yield from _leaves(item, path + (str(pos),))
    elif node is None or isinstance(node, str):
        yield ".".join(path), node or ""
    else:
        yield ".".join(path), _json_text(node)


def report_rows(obj):
    """(key path, cell) for each leaf that canonical_json emits, in its order.

    A path joins mapping keys and list positions with dots, as in
    "engines.dixmier.gap" or "table.raw.0.re".  A number cell is its
    canonical JSON text, a string cell the raw string, and None an empty
    cell.
    """
    return _leaves(_plain(obj), ())


def report_text(report, fmt: str) -> str:
    """The text of --format json (one canonical line) or csv (a key,value row per leaf)."""
    if fmt == "json":
        return canonical_json(report) + "\n"
    import csv  # here, not at the top: JSON reports skip its import cost
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([("key", "value"), *report_rows(report)])
    return buffer.getvalue()


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


def load_test_function(path: str):
    """A CompactTestFunction read from a nodes document."""
    from .dos import CompactTestFunction  # here: only the dos commands pay for dos

    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise DomainError("a test function document needs a nodes array")
    message = "test function nodes must be [eps, value] pairs of JSON numbers"
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in data["nodes"]):
        raise DomainError(message)
    return CompactTestFunction(nodes=tuple(tuple(_number(x, message) for x in pair)
                                           for pair in data["nodes"]))


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
