"""Canonical JSON, operator files and tables."""

import json
import math

import numpy as np
import pytest

from magtrace import CoefficientOperator, ConvergenceTable, DomainError
from magtrace.serialize import (
    canonical_json,
    format_float,
    load_operator,
    load_test_function,
    operator_from_dict,
    operator_to_dict,
    report_rows,
    save_operator,
    table_to_dict,
)


def test_format_float():
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(math.pi)) == math.pi
    with pytest.raises(DomainError):
        format_float(math.inf)
    with pytest.raises(DomainError):
        format_float(math.nan)


def test_canonical_json_is_sorted_and_stable():
    obj = {"b": 1, "a": [1.5, 2.0 + 3.0j, None, True, "x"]}
    text = canonical_json(obj)
    assert text == '{"a": [1.5, {"im": 3, "re": 2}, null, true, "x"], "b": 1}'
    # parsing and re-emitting reproduces the same bytes
    assert canonical_json(json.loads(text)) == text


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(DomainError):
        canonical_json({1: "x"})
    with pytest.raises(DomainError):
        canonical_json({"x": object()})


def test_operator_dict_round_trip():
    op = CoefficientOperator({(0, 0): 1.0, (2, 5): 1.0 - 2.0j}, "L1")
    data = operator_to_dict(op)
    back = operator_from_dict(data)
    assert back.entries == op.entries
    assert back.declared_class == "L1"


def test_operator_from_dict_sums_duplicates():
    data = {"entries": [{"j": 0, "k": 0, "re": 1.0},
                        {"j": 0, "k": 0, "re": 0.5, "im": 2.0}]}
    op = operator_from_dict(data)
    assert op.entries == {(0, 0): 1.5 + 2.0j}
    assert op.declared_class == "unclassified"


def test_operator_from_dict_rejects_unknown_class():
    with pytest.raises(DomainError):
        operator_from_dict({"entries": [], "class": "L7"})


def test_operator_file_round_trip(tmp_path):
    op = CoefficientOperator({(1, 4): 0.25j, (3, 3): -2.0}, "L2")
    path = tmp_path / "op.json"
    save_operator(op, str(path))
    again = load_operator(str(path))
    assert again.entries == op.entries
    assert again.declared_class == "L2"
    save_operator(again, str(tmp_path / "op2.json"))
    assert (tmp_path / "op2.json").read_bytes() == path.read_bytes()


def test_load_test_function(bump_file):
    fn = load_test_function(bump_file)
    assert fn.support == (0.0, 2.0)
    assert fn(0.5) == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_malformed_operator_documents_are_rejected():
    with pytest.raises(DomainError, match="JSON object"):
        operator_from_dict([1, 2, 3])
    with pytest.raises(DomainError, match="JSON array"):
        operator_from_dict({"entries": {"j": 0}})
    with pytest.raises(DomainError, match="entry 0"):
        operator_from_dict({"entries": ["0,0"]})
    with pytest.raises(DomainError, match="entry 1"):
        operator_from_dict({"entries": [{"j": 0, "k": 0}, {"j": 1}]})
    with pytest.raises(DomainError, match="non-numeric"):
        operator_from_dict({"entries": [{"j": 0, "k": 0, "re": "x"}]})


def test_malformed_files_are_rejected(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(DomainError, match="not valid JSON"):
        load_operator(str(broken))
    with pytest.raises(DomainError, match="not valid JSON"):
        load_test_function(str(broken))
    no_nodes = tmp_path / "no_nodes.json"
    no_nodes.write_text('{"values": [1, 2]}', encoding="utf-8")
    with pytest.raises(DomainError, match="nodes array"):
        load_test_function(str(no_nodes))
    bad_nodes = tmp_path / "bad_nodes.json"
    bad_nodes.write_text('{"nodes": [[0.0, 0.0], ["a"]]}', encoding="utf-8")
    with pytest.raises(DomainError, match="pairs"):
        load_test_function(str(bad_nodes))
    for nodes in ('[[0, false], ["1.5", true], [3, 0]]', '[[0, 0], [1, 1, 1], [3, 0]]',
                  '[[0, 0], {"1": 1}, [3, 0]]'):
        bad_nodes.write_text('{"nodes": %s}' % nodes, encoding="utf-8")
        with pytest.raises(DomainError, match="pairs of JSON numbers"):
            load_test_function(str(bad_nodes))
    for nodes in ("[[0.2, 0], [0.3, NaN], [0.4, 0]]", "[[-Infinity, 0], [1, 1], [3, 0]]",
                  "[[0, 0], [NaN, 1], [3, 0]]"):
        bad_nodes.write_text('{"nodes": %s}' % nodes, encoding="utf-8")
        with pytest.raises(DomainError, match="nodes must be finite"):
            load_test_function(str(bad_nodes))


def test_report_rows_are_the_canonical_leaves():
    report = {"z": 1.0 + 0.1j, "label": "a, b", "none": None, "n": np.int64(3),
              "flags": [True, False]}
    assert list(report_rows(report)) == [
        ("flags.0", "true"), ("flags.1", "false"), ("label", "a, b"), ("n", "3"),
        ("none", ""), ("z.im", "0.10000000000000001"), ("z.re", "1")]
    table = ConvergenceTable(params=(10.0, 100.0), raw=(1.5 + 0.0j, 1.1 - 0.5j),
                             accelerated=None, extrapolated=1.0 + 0.0j,
                             residual=0.01, model="log_inverse")
    rows = dict(report_rows({"table": table}))
    assert [key for key in rows if key.startswith("table.raw.")] == [
        "table.raw.0.im", "table.raw.0.re", "table.raw.1.im", "table.raw.1.re"]
    assert rows["table.raw.1.re"] == "1.1000000000000001"
    assert (rows["table.accelerated"], rows["table.converged"]) == ("", "true")
    with pytest.raises(DomainError):
        list(report_rows({"value": math.nan}))


def test_report_rows_non_finite_residual():
    table = ConvergenceTable(params=(10.0,), raw=(1.0 + 0.0j,), accelerated=None,
                             extrapolated=1.0 + 0.0j, residual=math.inf,
                             model="none")
    rows = dict(report_rows(table))
    assert (rows["residual"], rows["converged"]) == ("", "false")


def test_table_to_dict_flags():
    table = ConvergenceTable(params=(10.0, 100.0), raw=(1.0, 1.0),
                             accelerated=(1.0, 1.0), extrapolated=1.0,
                             residual=1e-9, model="log_inverse")
    data = table_to_dict(table)
    assert data["converged"] is True
    assert data["accelerated"] == [1.0 + 0.0j, 1.0 + 0.0j]
    bad = ConvergenceTable(params=(10.0,), raw=(1.0,), accelerated=None,
                           extrapolated=1.0, residual=math.inf, model="none")
    data = table_to_dict(bad)
    assert data["residual"] is None
    assert data["converged"] is False
    # reports carry the table itself, emitted through table_to_dict
    assert canonical_json({"table": bad}) == canonical_json({"table": data})



@pytest.mark.parametrize("value, plain", [
    (np.array([0.5, -2.0, 1e-300]), [0.5, -2.0, 1e-300]),
    (np.array([[1.0 - 0.5j, 0.0j], [2.0 + 1j, -3.0j]]),
     [[1.0 - 0.5j, 0.0j], [2.0 + 1j, -3.0j]]),
    (np.array([3, -1, 0], dtype=np.int64), [3, -1, 0]),
    (np.zeros((2, 0)), [[], []]),
    (np.complex128(0.1 - 2.0j), 0.1 - 2.0j),
    (np.float64(0.1), 0.1),
    (np.int64(-7), -7),
    ((1.5, (2, "x"), None), [1.5, [2, "x"], None]),
], ids=["float-array", "complex-array", "int-array", "empty-rows", "complex128",
        "float64", "int64", "tuple"])
def test_numpy_values_encode_as_python_values(value, plain):
    report = {"value": value, "nested": {"items": [value]}}
    expected = {"value": plain, "nested": {"items": [plain]}}
    assert canonical_json(report) == canonical_json(expected)
    assert list(report_rows(report)) == list(report_rows(expected))


@pytest.mark.parametrize("value", [np.complex64(1.0), np.bool_(True), math.nan,
                                   np.array([1.0, math.nan]), {1: "x"}, {"x": object()}],
                         ids=["complex64", "bool_", "nan", "nan-array", "int-key", "object"])
def test_both_printers_refuse_what_json_cannot_hold(value):
    with pytest.raises(DomainError):
        canonical_json({"value": value})
    with pytest.raises(DomainError):
        list(report_rows({"value": value}))
