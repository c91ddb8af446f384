"""End-to-end command line checks: exit codes, payloads, determinism."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import magtrace
from magtrace import CoefficientOperator, adjoint, make_config, psi
from magtrace import cli
from magtrace.cli import run
from magtrace.serialize import canonical_json, load_operator, operator_to_dict, save_operator


def invoke(argv, capsys):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_trace_diag_payload(pi0_file, capsys):
    rc, out, err = invoke(["trace", "diag", "--op", pi0_file], capsys)
    assert rc == 0
    assert err == ""
    report = json.loads(out)
    assert report["format_version"] == "1"
    assert report["command"] == "trace diag"
    assert report["config"]["ell"] == 1.0
    assert report["config"]["budget_profile"] == "full"
    assert report["value"] == {"im": 0.0, "re": 1.0}


def test_json_output_round_trips_byte_identically(pi0_file, capsys):
    rc, out, _ = invoke(["trace", "residue", "--op", pi0_file], capsys)
    assert rc == 0
    assert canonical_json(json.loads(out)) + "\n" == out


def test_trace_residue_quick_budget(pi0_file, capsys):
    rc, out, _ = invoke(["--budget-profile", "quick", "trace", "residue",
                         "--op", pi0_file], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["config"]["budget_profile"] == "quick"
    table = report["table"]
    assert table["converged"] is True
    assert abs(table["extrapolated"]["re"] - 1.0) <= 1e-6


def test_exit_2_on_invalid_shift(pi0_file, capsys):
    rc, out, err = invoke(["trace", "residue", "--op", pi0_file,
                           "--lambda", "-1.0"], capsys)
    assert rc == 2
    assert out == ""
    assert "invertible only for lambda > -1" in err
    rc, out, err = invoke(["dixmier", "estimate", "--op", pi0_file, "--lambda", "nan"], capsys)
    assert (rc, out) == (2, "")
    assert "invertible only for lambda > -1" in err
    for argv in (["trace", "residue", "--op", pi0_file], ["compare", "--op", pi0_file],
                 ["dixmier", "spectrum", "--op", pi0_file],
                 ["dixmier", "estimate", "--op", pi0_file, "--lambda2", "0"]):
        rc, out, err = invoke(argv + ["--lambda", "inf"], capsys)
        assert (rc, out) == (2, "")
        assert "invertible only for lambda > -1" in err
    for eps in ("nan", "inf"):
        rc, out, err = invoke(["dos", "idos", "--eps", eps], capsys)
        assert (rc, out) == (2, "")
        assert "threshold must be finite" in err
    # a non-finite report value is refused at emission, in either format; psi
    # overflows on the way there (an overflow and an invalid multiply warning)
    for fmt in ("json", "csv"):
        with pytest.warns(RuntimeWarning):
            rc, out, err = invoke(["--format", fmt, "basis", "eval", "--n", "2000",
                                   "--m", "0", "--x1", "30", "--x2", "0"], capsys)
        assert (rc, out) == (2, ""), fmt
        assert "non-finite" in err


def test_exit_2_on_extreme_length(pi0_file, capsys):
    # a finite length whose derived constants overflow or divide by zero
    for ell in ("1e170", "1e-170"):
        for argv in (["trace", "diag", "--op", pi0_file], ["dos", "idos", "--eps", "2"]):
            rc, out, err = invoke(["--ell", ell] + argv, capsys)
            assert (rc, out) == (2, ""), (ell, argv)
            assert "omega_ell and idos_scale" in err


def test_exit_2_on_missing_file(tmp_path, capsys):
    rc, _, err = invoke(["trace", "diag", "--op", "/no/such/file.json"], capsys)
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = invoke(["trace", "diag", "--op", str(tmp_path)], capsys)
    assert rc == 2
    assert err.startswith("error:")


def test_exit_2_on_malformed_operator_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"entries": ["0,0"]}', encoding="utf-8")
    rc, out, err = invoke(["trace", "diag", "--op", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert "entry 0" in err
    path.write_text("{oops", encoding="utf-8")
    rc, _, err = invoke(["trace", "diag", "--op", str(path)], capsys)
    assert rc == 2
    assert "not valid JSON" in err
    path.write_bytes(b'{"entries": [], "class": "L1\xff"}')
    rc, _, err = invoke(["trace", "diag", "--op", str(path)], capsys)
    assert rc == 2
    assert "not UTF-8" in err
    for j, k in ((1.7, True), (1.0, 0), ("1", 0), (0, False)):
        path.write_text(json.dumps({"entries": [{"j": j, "k": k, "re": 1.0}]}),
                        encoding="utf-8")
        rc, out, err = invoke(["trace", "diag", "--op", str(path)], capsys)
        assert (rc, out) == (2, "")
        assert "integer j and k" in err
    for real, imag in ((True, 0.0), (1.0, "0.5"), (None, 0.0), (1.0, [0.5]), (10 ** 400, 0.0)):
        path.write_text(json.dumps({"entries": [{"j": 0, "k": 0, "re": real, "im": imag}]}),
                        encoding="utf-8")
        rc, out, err = invoke(["trace", "diag", "--op", str(path)], capsys)
        assert (rc, out) == (2, "")
        assert "non-numeric" in err


def test_exit_64_on_usage_errors(pi0_file, capsys):
    assert invoke([], capsys)[0] == 64
    assert invoke(["trace"], capsys)[0] == 64
    assert invoke(["--bogus-flag", "trace", "diag", "--op", pi0_file], capsys)[0] == 64
    # no randomized algorithm is used, so there is no seed to set
    rc, out, err = invoke(["--seed", "1", "trace", "diag", "--op", pi0_file], capsys)
    assert (rc, out) == (64, "")
    assert err.startswith("usage error:")
    # grids are validated, not rounded, and an empty list is no grid
    for grid in ("1e400", "100,nan", ",", "", "100,,1000", "100.7,1000.2,9999.6"):
        rc, out, err = invoke(["trace", "shell", "--op", pi0_file, "--Ngrid", grid], capsys)
        assert (rc, out) == (64, ""), grid
        assert err.startswith("usage error:")
    for grid in (",", "0.1,0.01,0.001,"):
        rc, out, err = invoke(["trace", "residue", "--op", pi0_file, "--xgrid", grid], capsys)
        assert (rc, out) == (64, ""), grid
        assert err.startswith("usage error:")
    rc, _, err = invoke(["--format", "xml", "trace", "diag", "--op", pi0_file], capsys)
    assert rc == 64
    assert err.startswith("usage error:")
    # each trace subcommand takes only the flags that its route reads
    for action, flag, value in (("diag", "--lambda", "1"), ("diag", "--xgrid", "1,2,3"),
                                ("diag", "--Ngrid", "3"), ("residue", "--Ngrid", "3"),
                                ("shell", "--lambda", "1"), ("shell", "--xgrid", "1,2,3"),
                                ("ordered", "--lambda", "1"), ("ordered", "--xgrid", "1,2,3")):
        rc, out, err = invoke(["trace", action, "--op", pi0_file, flag, value], capsys)
        assert (rc, out) == (64, ""), (action, flag)
        assert "unrecognized arguments" in err
    # only compose and adjoint produce an operator to save
    for argv in (["op", "norm", "--in", pi0_file, "--p", "2"],
                 ["op", "block", "--in", pi0_file, "--N", "2"]):
        rc, out, err = invoke(argv + ["--save", pi0_file + ".saved"], capsys)
        assert (rc, out) == (64, ""), argv
        assert "unrecognized arguments: --save" in err
        assert not os.path.exists(pi0_file + ".saved")
    # a threshold or a support sets the Landau truncation; only dos measure takes --J
    for argv in (["idos", "--eps", "2"], ["spectral", "--f", pi0_file],
                 ["approx", "--eps", "2"], ["dixmier", "--f", pi0_file]):
        rc, out, err = invoke(["dos"] + argv + ["--J", "300"], capsys)
        assert (rc, out) == (64, ""), argv
        assert "unrecognized arguments: --J" in err
    # every block has the same matrix, so op block takes no block index
    rc, out, err = invoke(["op", "block", "--in", pi0_file, "--m", "0", "--N", "2"], capsys)
    assert (rc, out) == (64, "")
    assert "unrecognized arguments: --m" in err


def test_exit_2_on_non_finite_input(pi0_file, tmp_path, capsys):
    path = tmp_path / "fn.json"
    for nodes in ("[[0.2, 0], [0.3, NaN], [0.4, 0]]", "[[-Infinity, 0], [1, 1], [3, 0]]",
                  "[[0, 0], [NaN, 1], [3, 0]]"):
        path.write_text('{"nodes": %s}' % nodes, encoding="utf-8")
        for action in ("spectral", "dixmier"):
            rc, out, err = invoke(["dos", action, "--f", str(path)], capsys)
            assert (rc, out) == (2, ""), (action, nodes)
            assert "nodes must be finite" in err
    for p in ("nan", "inf"):
        rc, out, err = invoke(["op", "norm", "--in", pi0_file, "--p", p], capsys)
        assert (rc, out) == (2, ""), p
        assert "require p >= 1 and finite" in err
    # a non-finite residue sample is refused before any sum is taken, by name
    for argv in (["trace", "residue"], ["dixmier", "tauberian"]):
        rc, out, err = invoke(argv + ["--op", pi0_file, "--xgrid", "inf,1,2"], capsys)
        assert (rc, out) == (2, ""), argv
        assert "must be positive and finite: [inf, 1.0, 2.0]" in err


def test_exit_2_on_repeated_grid_points(pi0_file, capsys):
    # a repeated truncation point or sample is refused, not merged
    for argv in (["trace", "shell", "--op", pi0_file, "--Ngrid", "100,100,1000"],
                 ["trace", "ordered", "--op", pi0_file, "--Ngrid", "100,100,1000"],
                 ["dos", "approx", "--eps", "2", "--Ngrid", "100,100,1000"]):
        rc, out, err = invoke(argv, capsys)
        assert (rc, out) == (2, ""), argv
        assert "truncation points must be distinct integers" in err
    rc, out, err = invoke(["trace", "residue", "--op", pi0_file, "--xgrid", "0.1,0.1,0.01"],
                          capsys)
    assert (rc, out) == (2, "")
    assert "must be distinct" in err


def test_exit_2_names_an_ngrid_integer_exactly(pi0_file, capsys):
    # an all-digit entry above 2**53 is parsed, and refused when repeated, unrounded
    argv = ["trace", "shell", "--op", pi0_file, "--Ngrid", "100,12345678901234567891"]
    assert cli.build_parser(argv).parse_args(argv).ngrid == (100, 12345678901234567891)
    rc, out, err = invoke(argv[:-1] + ["100,12345678901234567891,12345678901234567891"], capsys)
    assert (rc, out) == (2, "")
    assert "(100, 12345678901234567891, 12345678901234567891)" in err


def test_exit_3_on_unconverged_table(pi0_file, capsys):
    rc, out, _ = invoke(["trace", "shell", "--op", pi0_file,
                         "--Ngrid", "100"], capsys)
    assert rc == 3
    report = json.loads(out)
    assert report["table"]["model"] == "none"
    assert report["table"]["residual"] is None
    assert report["table"]["converged"] is False


CSV_COMMANDS = {
    "trace-diag": ["trace", "diag", "--op", "{pi0}"],
    "trace-shell": ["trace", "shell", "--op", "{pi0}"],
    "trace-ordered": ["trace", "ordered", "--op", "{pi0}"],
    "compare": ["compare", "--op", "{pi0}"],
    "dixmier-spectrum": ["dixmier", "spectrum", "--op", "{pi0}"],
    "dos-measure": ["dos", "measure"],
    "basis-gram": ["basis", "gram", "--max-index", "2"],
    "op-adjoint": ["op", "adjoint", "--in", "{pi0}"],
    "dos-dixmier": ["dos", "dixmier", "--f", "{bump}"],
}


def _json_leaves(node, path=()):
    """(dotted path, text) of each leaf of a report parsed with its numbers as text."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, path + (key,))
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            yield from _json_leaves(value, path + (str(pos),))
    elif isinstance(node, bool):
        yield ".".join(path), "true" if node else "false"
    else:
        yield ".".join(path), "" if node is None else node


@pytest.mark.parametrize("name", CSV_COMMANDS)
def test_csv_lists_every_leaf_of_the_json_report(name, pi0_file, bump_file, capsys):
    argv = ["--budget-profile", "quick"] + [
        arg.format(pi0=pi0_file, bump=bump_file) for arg in CSV_COMMANDS[name]]
    rc, out, _ = invoke(["--format", "json"] + argv, capsys)
    rc_csv, text, err = invoke(["--format", "csv"] + argv, capsys)
    assert (rc, rc_csv, err) == (0, 0, "")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    report = json.loads(out, parse_float=str, parse_int=str)
    assert [row for row in rows[1:] if row[0] != "wall_time_s"] == [
        [key, cell] for key, cell in _json_leaves(report) if key != "wall_time_s"]


def test_out_file(pi0_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = invoke(["--out", str(target), "trace", "diag",
                         "--op", pi0_file], capsys)
    assert rc == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["value"]["re"] == 1.0


def test_op_adjoint_save(tmp_path, capsys):
    source = tmp_path / "op.json"
    source.write_text(json.dumps({
        "entries": [{"j": 0, "k": 2, "re": 1.0, "im": -0.5}], "class": "L1"}))
    saved = tmp_path / "adj.json"
    rc, out, _ = invoke(["op", "adjoint", "--in", str(source),
                         "--save", str(saved)], capsys)
    assert rc == 0
    stored = load_operator(str(saved))
    assert stored.entries == adjoint(load_operator(str(source))).entries
    assert stored.entries == {(2, 0): 1.0 + 0.5j}


def test_op_compose_save(tmp_path, capsys):
    left, right, saved = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    left.write_text(json.dumps({
        "entries": [{"j": 1, "k": 2, "re": 2.0, "im": 0.0}], "class": "L1"}))
    right.write_text(json.dumps({
        "entries": [{"j": 0, "k": 1, "re": 1.0, "im": 0.5}], "class": "L1"}))
    rc, out, _ = invoke(["op", "compose", "--in", str(left), "--in2", str(right),
                         "--save", str(saved)], capsys)
    assert rc == 0
    stored = load_operator(str(saved))
    assert operator_to_dict(stored) == json.loads(out)["operator"]
    assert stored.entries == {(0, 2): 2.0 + 1.0j}


def test_op_compose_norm_block(pi0_file, capsys):
    rc, out, _ = invoke(["op", "compose", "--in", pi0_file, "--in2", pi0_file],
                        capsys)
    assert rc == 0
    entries = json.loads(out)["operator"]["entries"]
    assert entries == [{"im": 0.0, "j": 0, "k": 0, "re": 1.0}]

    rc, out, _ = invoke(["op", "norm", "--in", pi0_file, "--p", "2"], capsys)
    assert rc == 0
    assert json.loads(out)["norm"] == 1.0

    rc, out, _ = invoke(["op", "block", "--in", pi0_file, "--N", "2"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert "m" not in report
    assert report["trace"] == {"im": 0.0, "re": 1.0}
    assert report["entries"][0][0] == {"im": 0.0, "re": 1.0}
    assert report["entries"][1][1] == {"im": 0.0, "re": 0.0}


def test_basis_eval(capsys):
    rc, out, _ = invoke(["basis", "eval", "--n", "0", "--m", "0",
                         "--x1", "0", "--x2", "0"], capsys)
    assert rc == 0
    value = json.loads(out)["value"]
    assert value["re"] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    rc, out, _ = invoke(["basis", "eval", "--n", "1", "--m", "0",
                         "--x1", "0.5", "--x2", "-0.25"], capsys)
    expected = psi(1, 0, 0.5, -0.25, make_config(1.0))
    value = json.loads(out)["value"]
    assert complex(value["re"], value["im"]) == pytest.approx(expected, rel=1e-14)


def test_basis_gram(capsys):
    rc, out, _ = invoke(["basis", "gram", "--max-index", "2"], capsys)
    assert rc == 0
    assert json.loads(out)["max_error"] <= 1e-8


def test_kernel_eval_and_folner(pi0_file, capsys):
    rc, out, _ = invoke(["kernel", "eval", "--op", pi0_file,
                         "--x1", "0", "--x2", "0"], capsys)
    assert rc == 0
    assert json.loads(out)["value"]["re"] == pytest.approx(1.0, abs=1e-12)

    rc, out, _ = invoke(["kernel", "folner", "--op", pi0_file, "--R", "6.0"],
                        capsys)
    assert rc == 0
    assert json.loads(out)["value"]["re"] == pytest.approx(1.0, abs=1e-8)


def test_kernel_commutant(pi0_file, capsys):
    rc, out, _ = invoke(["--budget-profile", "quick", "kernel", "commutant",
                         "--op", pi0_file, "--a1", "1.0", "--a2", "0.5"], capsys)
    assert rc == 0
    assert json.loads(out)["residual"] <= 1e-5


def test_trace_ordered(pi0_file, capsys):
    rc, out, _ = invoke(["--budget-profile", "quick", "trace", "ordered",
                         "--op", pi0_file], capsys)
    assert rc == 0
    report = json.loads(out)
    assert abs(report["doubled"]["re"] - 1.0) <= 1e-2


def test_dixmier_commands(pi0_file, capsys):
    rc, out, _ = invoke(["--budget-profile", "quick", "dixmier", "estimate",
                         "--op", pi0_file], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["kind"] == "eigen"
    assert abs(report["table"]["extrapolated"]["re"] - 1.0) <= 5e-2

    rc, out, _ = invoke(["dixmier", "gamma", "--op", pi0_file, "--N", "100"],
                        capsys)
    assert rc == 0
    report = json.loads(out)
    h100 = math.fsum(1.0 / k for k in range(1, 101))
    assert report["gamma"] == pytest.approx(h100 / math.log(100.0), rel=1e-12)
    assert report["calderon"] == pytest.approx(1.5 / math.log(2.0), rel=1e-12)

    rc, out, _ = invoke(["--budget-profile", "quick", "dixmier", "spectrum",
                         "--op", pi0_file], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["count"] == 128
    assert report["head"][0] == {"im": 0.0, "re": 1.0}

    rc, out, _ = invoke(["--budget-profile", "quick", "dixmier", "tauberian",
                         "--op", pi0_file], capsys)
    assert rc == 0


def test_dos_commands(bump_file, capsys):
    rc, out, _ = invoke(["dos", "idos", "--eps", "2.0"], capsys)
    assert rc == 0
    assert json.loads(out)["idos"] == pytest.approx(1.0 / math.pi, rel=1e-13)

    rc, out, _ = invoke(["dos", "measure", "--J", "3"], capsys)
    assert rc == 0
    atoms = json.loads(out)["atoms"]
    assert [a[0] for a in atoms] == [0.5, 1.5, 2.5]
    assert atoms[0][1] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    rc, out, _ = invoke(["dos", "measure"], capsys)
    assert (rc, len(json.loads(out)["atoms"])) == (0, 16)

    rc, out, _ = invoke(["dos", "spectral", "--f", bump_file], capsys)
    assert rc == 0
    assert json.loads(out)["gap"] <= 1e-12

    rc, out, _ = invoke(["--budget-profile", "quick", "dos", "approx",
                         "--eps", "2.0"], capsys)
    assert rc == 0

    rc, out, _ = invoke(["--budget-profile", "quick", "dos", "dixmier",
                         "--f", bump_file], capsys)
    assert rc == 0
    assert json.loads(out)["gap"] <= 5e-2


def test_compare(pi0_file, capsys):
    rc, out, _ = invoke(["compare", "--op", pi0_file], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["max_gap"] <= 1e-2
    engines = report["engines"]
    assert set(engines) == {"diagonal", "residue", "shell", "ordered", "dixmier"}
    assert engines["diagonal"]["gap"] == 0.0
    assert engines["shell"]["gap"] == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0, None],
                         ids=["hermitian", "anti-hermitian", "non-hermitian"])
def test_compare_dixmier_row_estimates_the_trace(sign, rng, tmp_path, capsys):
    # a dense source: the singular values would give its trace norm, not its trace
    matrix = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    if sign is not None:
        matrix = 0.5 * (matrix + sign * matrix.conj().T)
    path = tmp_path / "dense.json"
    save_operator(CoefficientOperator({(j, k): matrix[j, k] for j in range(6)
                                       for k in range(6)}), str(path))
    rc, out, _ = invoke(["compare", "--op", str(path)], capsys)
    assert rc in (0, 3)
    dixmier = json.loads(out)["engines"]["dixmier"]
    trace_norm = np.linalg.svd(matrix, compute_uv=False).sum()
    assert dixmier["gap"] <= 0.05 * trace_norm
    assert dixmier["kind"] == "eigen"
    value = complex(dixmier["extrapolated"]["re"], dixmier["extrapolated"]["im"])
    assert abs(value - np.trace(matrix)) == pytest.approx(dixmier["gap"], rel=1e-12)


@pytest.mark.parametrize("budget", ["full", "quick"])
def test_compare_on_the_zero_operator(budget, tmp_path, capsys):
    # D(0) = 0: no Hermitian part has entries, so no Dixmier table is fitted
    path = tmp_path / "zero.json"
    path.write_text('{"entries": []}')
    rc, out, err = invoke(["--budget-profile", budget, "compare", "--op", str(path)], capsys)
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["max_gap"] == 0.0
    zero = {"im": 0.0, "re": 0.0}
    assert report["engines"]["dixmier"] == {"extrapolated": zero, "residual": 0.0,
                                            "kind": "eigen", "gap": 0.0}
    assert all(value in (zero, 0.0) for row in report["engines"].values()
               for key, value in row.items() if key != "kind")


def test_length_flag_changes_idos(capsys):
    rc, out, _ = invoke(["--ell", "2.0", "dos", "idos", "--eps", "2.0"], capsys)
    assert rc == 0
    assert json.loads(out)["idos"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)


def test_zero_flags_are_rejected(pi0_file, capsys):
    # a 0 is validated like any other value, not replaced by the budget default
    for argv in (["dixmier", "estimate", "--op", pi0_file, "--shells", "0"],
                 ["dixmier", "spectrum", "--op", pi0_file, "--shells", "0"],
                 ["kernel", "commutant", "--op", pi0_file, "--a1", "1", "--a2", "0",
                  "--nodes", "0", "--extent", "0"],
                 ["kernel", "commutant", "--op", pi0_file, "--a1", "1", "--a2", "0",
                  "--extent", "0"],
                 ["basis", "gram", "--max-index", "1", "--nodes", "0", "--extent", "0"],
                 ["basis", "gram", "--max-index", "1", "--nodes", "0"]):
        rc, out, err = invoke(argv, capsys)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: ")


def test_kernel_commutant_rejects_non_finite_input(pi0_file, capsys):
    base = ["--budget-profile", "quick", "kernel", "commutant", "--op", pi0_file]
    for flags in (["--a1", "1", "--a2", "0", "--extent", "nan", "--nodes", "8"],
                  ["--a1", "1", "--a2", "0", "--extent", "inf", "--nodes", "8"],
                  ["--a1", "nan", "--a2", "0", "--nodes", "8"],
                  ["--a1", "inf", "--a2", "0", "--nodes", "8"],
                  ["--a1", "0", "--a2=-inf", "--nodes", "8"]):
        rc, out, err = invoke(base + flags, capsys)
        assert (rc, out) == (2, ""), flags
        assert "finite" in err


@pytest.mark.filterwarnings("error")
def test_kernel_commutant_rejects_overflowing_spacing(pi0_file, capsys):
    # the extent is finite but 2 * extent / (nodes - 1) is not: nothing is sampled
    rc, out, err = invoke(["--budget-profile", "quick", "kernel", "commutant", "--op", pi0_file,
                           "--a1", "1", "--a2", "0", "--extent", "1e308", "--nodes", "8"],
                          capsys)
    assert (rc, out) == (2, "")
    assert "grid spacing" in err


@pytest.mark.filterwarnings("error")
def test_basis_gram_rejects_overflowing_spacing(capsys):
    # the same grid check as kernel commutant: refused before any sampling
    rc, out, err = invoke(["basis", "gram", "--max-index", "1", "--extent", "1e308"], capsys)
    assert (rc, out) == (2, "")
    assert "grid spacing" in err


def invoke_traced(argv, capsys):
    """invoke, also returning the peak of Python allocations during the run."""
    tracemalloc.start()
    try:
        rc, out, err = invoke(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, out, err, peak


def test_kernel_commutant_budget_is_checked_first(pi0_file, capsys):
    # 1e5 nodes would need 160 GB for the probe alone: the guard must fire
    # before the probe or the kernel table is allocated
    rc, out, err, peak = invoke_traced(["kernel", "commutant", "--op", pi0_file, "--a1", "1",
                                        "--a2", "0", "--nodes", "100000"], capsys)
    assert (rc, out) == (2, "")
    assert "over the limit" in err
    assert peak < 8 * 2 ** 20


OVERSIZED = {
    "dos-idos": ["dos", "idos", "--eps", "1e9"],
    "dos-idos-far": ["dos", "idos", "--eps", "1e30"],
    "dos-measure": ["dos", "measure", "--J", "1000000000"],
    "basis-gram": ["basis", "gram", "--max-index", "1", "--nodes", "40000"],
    "dixmier-diagonal": ["dixmier", "estimate", "--op", "{pi0}", "--shells", "100000000"],
    "dixmier-stack": ["dixmier", "estimate", "--op", "{dense16}", "--shells", "100000000"],
    "op-block": ["op", "block", "--in", "{pi0}", "--N", "100000"],
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_memory_budget_is_checked_first(name, pi0_file, tmp_path, capsys):
    # each command sizes an allocation from its input: the budget check must
    # refuse it before the allocation, or anything proportional to it, is made
    dense16 = tmp_path / "dense16.json"
    dense16.write_text(json.dumps({"entries": [{"j": j, "k": k, "re": 1.0}
                                               for j in range(16) for k in range(16)]}))
    argv = [arg.format(pi0=pi0_file, dense16=dense16) for arg in OVERSIZED[name]]
    rc, out, err, peak = invoke_traced(argv, capsys)
    assert (rc, out) == (2, "")
    assert "over the limit" in err
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("budget", ("quick", "full"))
def test_far_diagonal_source_stays_refused(budget, tmp_path, capsys):
    # the (5000, 5000) chain lies wholly below the frontier, so none of its
    # values is reliable: admitted, the estimate reads about 0.997, flagged
    # converged, for a trace of 2.  A real frontier block needs half the
    # bytes, and the budget must still count the complex one.
    far = tmp_path / "far.json"
    far.write_text(json.dumps({"entries": [{"j": 0, "k": 0, "re": 1.0},
                                           {"j": 5000, "k": 5000, "re": 1.0}]}))
    rc, out, err, peak = invoke_traced(["--budget-profile", budget, "dixmier", "estimate",
                                        "--op", str(far)], capsys)
    assert (rc, out) == (2, "")
    assert "over the limit" in err
    assert peak < 8 * 2 ** 20


def _child_env():
    # the child finds the package that this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(magtrace.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(pi0_file):
    proc = subprocess.run([sys.executable, "-m", "magtrace.cli", "trace", "diag",
                           "--op", pi0_file], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"]["re"] == 1.0


def _modules_loaded(args):
    """Names of the modules that a fresh `python <args>` process imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr[-500:]
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_package_import_loads_no_submodule():
    loaded = _modules_loaded(["-c", "import magtrace"])
    assert "magtrace" in loaded
    assert sorted(name for name in loaded if name.startswith("magtrace.")) == []


# The scalar commands run on the standard library alone.
@pytest.mark.parametrize("argv, absent", [
    (["trace", "diag", "--op", "{pi0}"], {"numpy"}),
    (["trace", "residue", "--op", "{pi0}"], {"numpy"}),
    (["trace", "shell", "--op", "{pi0}"],
     {"magtrace.dixmier", "magtrace.dos", "magtrace.kernels", "magtrace.basis", "numpy"}),
    (["trace", "shell", "--op", "{pi0}", "--Ngrid", "1e6,1e9,1e12"],
     {"magtrace.dixmier", "magtrace.dos", "magtrace.kernels", "magtrace.basis", "numpy"}),
    (["trace", "ordered", "--op", "{pi0}"], {"numpy"}),
    (["kernel", "eval", "--op", "{pi0}", "--x1", "0.5", "--x2", "0.25"],
     {"magtrace.dixmier", "magtrace.dos"}),
    (["dixmier", "estimate", "--op", "{pi0}"], {"numpy.ma"}),
    (["dos", "approx", "--eps", "2.5"], {"magtrace.dixmier", "magtrace.kernels", "numpy"}),
    (["dos", "idos", "--eps", "2.5"], {"numpy"}),
    (["op", "norm", "--in", "{pi0}", "--p", "2"], {"numpy"}),
    (["dos", "spectral", "--f", "{bump}"], {"numpy", "magtrace.dixmier", "magtrace.kernels"}),
    (["dos", "dixmier", "--f", "{bump}"], {"numpy.ma", "magtrace.kernels"}),
    (["--budget-profile", "quick", "compare", "--op", "{pi0}"],
     {"numpy.ma", "magtrace.dos", "magtrace.kernels", "magtrace.basis"}),
], ids=["trace-diag", "trace-residue", "trace-shell", "trace-shell-far-grid", "trace-ordered",
        "kernel-eval", "dixmier-estimate", "dos-approx", "dos-idos", "op-norm", "dos-spectral",
        "dos-dixmier", "compare"])
def test_a_command_loads_only_what_it_runs(argv, absent, pi0_file, bump_file):
    argv = [arg.format(pi0=pi0_file, bump=bump_file) for arg in argv]
    loaded = _modules_loaded(["-m", "magtrace.cli", *argv])
    assert "magtrace.operators" in loaded
    assert sorted(absent & loaded) == []


def _outcome(argv, capsys):
    try:
        rc = run(list(argv))
    except SystemExit as done:  # argparse's help exits
        rc = done.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _subcommand_names(parser, prefix=()):
    """The full names of the leaf subcommands that a parser holds, in order."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                names += _subcommand_names(child, prefix + (name,)) or [" ".join(prefix + (name,))]
    return names


def test_parser_holds_the_subcommands_that_argv_names():
    assert _subcommand_names(cli.build_parser()) == list(cli.COMMANDS)
    assert _subcommand_names(cli.build_parser(["--ell", "2", "trace"])) == list(cli.COMMANDS)
    assert _subcommand_names(cli.build_parser(["trace", "shell", "--op", "x"])) == ["trace shell"]
    # a flag value that is a subcommand word adds that subcommand too
    assert _subcommand_names(cli.build_parser(["dos", "dixmier", "--f", "estimate"])) == [
        "dixmier estimate", "dos dixmier"]


@pytest.mark.parametrize("argv", [
    ["--help"], ["trace", "--help"], ["trace", "diag", "--help"], ["--help", "trace", "diag"],
    ["trace", "--help", "diag"], ["--hel", "compare"], ["trace", "dag", "--op", "x"],
    ["trace", "compare", "--op", "x"], ["dixmier", "diag", "--op", "trace"],
    ["trace", "diag"], ["compare", "--op"], ["--out", "compare"],
])
def test_help_and_usage_errors_match_the_full_parser(argv, monkeypatch, capsys):
    small = _outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full())
    assert _outcome(argv, capsys) == small
