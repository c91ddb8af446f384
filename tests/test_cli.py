"""End-to-end command line checks: exit codes, payloads, determinism."""

import argparse
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

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


def test_exit_2_on_invalid_shift(pi0_file, bump_file, tmp_path, capsys):
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
    # only the split form reads --lambda2: the other forms refuse it
    for argv in (["dixmier", "estimate", "--op", pi0_file, "--form", "left"],
                 ["dixmier", "spectrum", "--op", pi0_file, "--form", "right"],
                 ["dixmier", "gamma", "--op", pi0_file, "--N", "10"],
                 ["dixmier", "tauberian", "--op", pi0_file, "--form", "right"],
                 ["dos", "dixmier", "--f", bump_file, "--form", "left"]):
        rc, out, err = invoke(argv + ["--lambda2", "5"], capsys)
        assert (rc, out) == (2, ""), argv
        assert "--lambda2 is read by --form split only" in err
    rc, out, _ = invoke(["dixmier", "spectrum", "--op", pi0_file, "--form", "split",
                         "--lambda2", "5"], capsys)
    assert rc == 0 and "lam2=5" in json.loads(out)["provenance"]
    for eps in ("nan", "inf"):
        rc, out, err = invoke(["dos", "idos", "--eps", eps], capsys)
        assert (rc, out) == (2, "")
        assert "threshold must be finite" in err
    # psi_{2000,0} at |x| = 30 is subnormal, and its power does not overflow
    rc, out, _ = invoke(["basis", "eval", "--n", "2000", "--m", "0", "--x1", "30",
                         "--x2", "0"], capsys)
    assert rc == 0
    zeta, b = 450.0, 30.0 / math.sqrt(2.0)
    log_ratio = 0.5 * (math.lgamma(1) - math.lgamma(2001))
    expected = math.exp(2000 * math.log(b) + log_ratio - zeta / 2) / math.sqrt(2.0 * math.pi)
    value = json.loads(out)["value"]
    assert value["im"] == 0.0
    assert abs(value["re"] - expected) <= 1e-9 * expected
    # a non-finite report value is refused at emission, in either format
    path = tmp_path / "huge.json"
    save_operator(CoefficientOperator({(0, 0): 1e308, (1, 1): 1e308}), str(path))
    for fmt in ("json", "csv"):
        rc, out, err = invoke(["--format", fmt, "trace", "diag", "--op", str(path)], capsys)
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
    assert cli._read_command_line(argv).ngrid == (100, 12345678901234567891)
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
    assert value["re"] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14, abs=0.0)

    rc, out, _ = invoke(["basis", "eval", "--n", "1", "--m", "0",
                         "--x1", "0.5", "--x2", "-0.25"], capsys)
    expected = psi(1, 0, 0.5, -0.25, make_config(1.0))
    value = json.loads(out)["value"]
    assert complex(value["re"], value["im"]) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_scalar_evaluation_folds_the_gaussian_before_the_power(tmp_path, capsys):
    # b**2000 alone overflows and the Gaussian e^-900 underflows: folded
    # into the base, the value is finite and no OverflowError escapes
    rc, out, err = invoke(["basis", "eval", "--n", "2000", "--m", "0",
                           "--x1", "60", "--x2", "0"], capsys)
    assert (rc, err) == (0, "")
    expected = math.exp(2000.0 * math.log(60.0 / math.sqrt(2.0)) - 0.5 * math.lgamma(2001.0)
                        - 900.0) / math.sqrt(2.0 * math.pi)
    value = json.loads(out)["value"]
    assert value["im"] == 0.0
    assert value["re"] == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert value["re"] == pytest.approx(1.7703e-4, rel=1e-4, abs=0.0)

    # at zeta = 2000 the Gaussian e^-1000 underflows and L_300(2000)
    # overflows: their logs meet in one sum (3.6468e-83 by mpmath)
    rc, out, err = invoke(["basis", "eval", "--n", "300", "--m", "300",
                           "--x1", "63.245553", "--x2", "0"], capsys)
    assert (rc, err) == (0, "")
    value = json.loads(out)["value"]
    assert value["im"] == 0.0
    assert value["re"] == pytest.approx(3.6467829239957e-83, rel=1e-11, abs=0.0)
    # at zeta = 1500 the power folded with the Gaussian alone would be
    # subnormal and lose 8 % (5.7243e-45 by mpmath)
    rc, out, err = invoke(["basis", "eval", "--n", "260", "--m", "250",
                           "--x1", "43.817805", "--x2", "32.863353"], capsys)
    assert (rc, err) == (0, "")
    value = json.loads(out)["value"]
    assert complex(value["re"], value["im"]) == pytest.approx(
        5.658335405834337e-45 + 8.657429057571857e-46j, rel=1e-11, abs=0.0)

    # off-diagonal terms up to the power 3 at |x| = 1e200, where zeta overflows
    path = tmp_path / "far.json"
    save_operator(CoefficientOperator({(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5j,
                                       (0, 3): -2.0}), str(path))
    rc, out, err = invoke(["kernel", "eval", "--op", str(path),
                           "--x1", "1e200", "--x2", "0"], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["value"] == {"im": 0.0, "re": 0.0}


@pytest.mark.parametrize("x1", ["1e100", "1e155"])
def test_far_field_kernel_value_is_zero(x1, tmp_path, capsys):
    # the Laguerre factors overflow to inf where the Gaussian underflows to 0
    path = tmp_path / "kop.json"
    save_operator(CoefficientOperator({(0, 1): 0.3 + 0.1j, (1, 0): 0.2, (2, 2): 1.0,
                                       (1, 3): -0.5 + 0.4j}), str(path))
    rc, out, err = invoke(["kernel", "eval", "--op", str(path), "--x1", x1, "--x2", "0"],
                          capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["value"] == {"im": 0.0, "re": 0.0}


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
    for radius in ("0", "-1", "nan", "inf"):
        rc, out, err = invoke(["kernel", "folner", "--op", pi0_file, "--R", radius], capsys)
        assert (rc, out) == (2, ""), radius
        assert "the averaging box must have a positive, finite radius" in err


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
    assert report["gamma"] == pytest.approx(h100 / math.log(100.0), rel=1e-12, abs=0.0)
    assert report["calderon"] == pytest.approx(1.5 / math.log(2.0), rel=1e-12, abs=0.0)

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
    assert json.loads(out)["idos"] == pytest.approx(1.0 / math.pi, rel=1e-13, abs=0.0)

    rc, out, _ = invoke(["dos", "measure", "--J", "3"], capsys)
    assert rc == 0
    atoms = json.loads(out)["atoms"]
    assert [a[0] for a in atoms] == [0.5, 1.5, 2.5]
    assert atoms[0][1] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14, abs=0.0)
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
    assert abs(value - np.trace(matrix)) == pytest.approx(dixmier["gap"], rel=1e-12, abs=0.0)


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
    assert json.loads(out)["idos"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13, abs=0.0)


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
                  ["--a1", "0", "--a2", "-inf", "--nodes", "8"],
                  # finite, but the phase ramp pi |a| / h overflows: refused before any FFT
                  ["--a1", "1e308", "--a2", "0"],
                  ["--a1", "0", "--a2", "-1e308"]):
        rc, out, err = invoke(base + flags, capsys)
        assert (rc, out) == (2, ""), flags
        assert "finite" in err


@pytest.mark.filterwarnings("error")
def test_kernel_commutant_rejects_overflowing_spacing(pi0_file, capsys):
    # the extent is finite but 2 * extent / (nodes - 1) overflows, or underflows
    # to 0: nothing is sampled
    for extent in ("1e308", "5e-324"):
        rc, out, err = invoke(["--budget-profile", "quick", "kernel", "commutant",
                               "--op", pi0_file, "--a1", "1", "--a2", "0",
                               "--extent", extent, "--nodes", "8"], capsys)
        assert (rc, out) == (2, ""), extent
        assert "grid spacing" in err


@pytest.mark.filterwarnings("error")
def test_basis_gram_rejects_overflowing_spacing(capsys):
    # the same grid check as kernel commutant: refused before any sampling
    for extent in ("1e308", "5e-324"):
        rc, out, err = invoke(["basis", "gram", "--max-index", "1", "--extent", extent], capsys)
        assert (rc, out) == (2, ""), extent
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
    "dixmier-calderon": ["dixmier", "gamma", "--op", "{pi0}", "--N", "100",
                         "--shells", "100000000"],
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


def test_diagonal_estimate_at_any_depth(pi0_file, capsys):
    # a diagonal source is read level by level: 10^8 shells take no memory
    # sized by them, and the estimate comes out right
    rc, out, err, peak = invoke_traced(["dixmier", "estimate", "--op", pi0_file,
                                        "--shells", "100000000"], capsys)
    assert (rc, err) == (0, "")
    assert abs(json.loads(out)["table"]["extrapolated"]["re"] - 1.0) <= 1e-2
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("levels, shells, calderon", [
    (200, "512", 36.603914231558555),  # 102 400 nonzero values
    (1, "400000", 2.1640425613334453),
])
def test_calderon_norm_of_a_long_level_spectrum(levels, shells, calderon, tmp_path, capsys):
    # the identity of levels 0 .. levels - 1: the Calderon norm is one pass
    # over the level values, which holds nothing sized by them
    source = tmp_path / "identity.json"
    source.write_text(json.dumps({"entries": [{"j": n, "k": n, "re": 1.0}
                                              for n in range(levels)]}))
    rc, out, err, peak = invoke_traced(["dixmier", "gamma", "--op", str(source), "--N", "100",
                                        "--shells", shells], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["calderon"] == pytest.approx(calderon, rel=1e-14, abs=0.0)
    assert peak < 2 ** 20


@pytest.mark.parametrize("budget", ("quick", "full"))
def test_far_diagonal_source_stays_refused(budget, tmp_path, capsys):
    # the (5000, 5000) chain lies wholly below the frontier, so none of its
    # values is reliable: admitted, the estimate reads about 0.997, flagged
    # converged, for a trace of 2.  The missed level carries more l1 mass
    # than the converged tolerance, so the spectrum is refused.
    far = tmp_path / "far.json"
    far.write_text(json.dumps({"entries": [{"j": 0, "k": 0, "re": 1.0},
                                           {"j": 5000, "k": 5000, "re": 1.0}]}))
    rc, out, err, peak = invoke_traced(["--budget-profile", budget, "dixmier", "estimate",
                                        "--op", str(far)], capsys)
    assert (rc, out) == (2, "")
    assert "no value above the truncation frontier" in err
    assert peak < 8 * 2 ** 20


def test_dixmier_spectrum_lists_a_far_level_head_only(tmp_path, capsys):
    # the level holds 512 values among 51.2 M: the head is read off the
    # merged levels, with no list of every value
    path = tmp_path / "level.json"
    save_operator(CoefficientOperator({(100000, 100000): 1.0}), str(path))
    rc, out, err, peak = invoke_traced(["dixmier", "spectrum", "--op", str(path)], capsys)
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert (report["count"], report["reliable"]) == (100001 * 512, 512)
    assert [v["re"] for v in report["head"]] == [1.0 / (100001.0 + m) for m in range(16)]
    assert peak < 8 * 2 ** 20


CONTRACT_SOURCES = {
    "pair-1e308": {(0, 0): 1e308, (1, 1): 1e308},
    "hop-1e300": {(0, 1): 1e300, (1, 0): 1e300},
    "level-1e300": {(0, 0): 1e300},
    "index-1e15": {(10 ** 15, 10 ** 15): 1.0},
    "zero": {},
    "pi0": {(0, 0): 1.0},
    "hop-5e-324": {(0, 1): 5e-324, (1, 0): 5e-324},
    "far": {(0, 0): 1.0, (5000, 5000): 1.0},
    "far-hop": {(0, 3000): 1.0, (3000, 0): 1.0, (1, 1): 0.5},
}
OP_COMMANDS = sorted(name for name, (_, flags) in cli.COMMANDS.items() if "--op" in flags)
OP_REQUIRED = {"kernel eval": ["--x1", "0.5", "--x2", "0.25"],
               "kernel commutant": ["--a1", "0.5", "--a2", "-0.3"],
               "dixmier gamma": ["--N", "100"]}


class Overtime(Exception):
    """Raised by the alarm in a run that passes its time bound (cli.run does not catch it)."""


def _overtime(signum, frame):
    raise Overtime("the run passed its time bound")


def invoke_bounded(argv, capsys):
    """invoke within 10 s, also returning the warnings that the run recorded."""
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = invoke(argv, capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return rc, out, err, caught


@pytest.mark.parametrize("source", sorted(CONTRACT_SOURCES))
@pytest.mark.parametrize("name", OP_COMMANDS)
def test_every_op_command_keeps_the_exit_contract(name, source, tmp_path, capsys):
    # sums past the largest double, a finite answer of 2e300 whose squares
    # overflow, an index whose Laguerre recurrence would not end, the zero
    # operator, pi0, the smallest subnormal, a level at index 5000 and a hop
    # 3000 off the diagonal: each command that reads --op exits 0, 2 or 3
    # (64 is for usage) and raises nothing, within 10 s; the slowest, kernel
    # commutant on the far level, takes about 1 s on a 2-core host.  numpy's
    # floating-point warnings (overflow, and invalid values after it) are
    # recorded, not raised: a command prints them as warnings, and no report
    # carries them yet.  kernel commutant scales the source to its largest
    # entry, so it raises none
    path = tmp_path / "source.json"
    save_operator(CoefficientOperator(CONTRACT_SOURCES[source]), str(path))
    argv = name.split() + ["--op", str(path)] + OP_REQUIRED.get(name, [])
    rc, out, err, caught = invoke_bounded(argv, capsys)
    assert rc in (0, 2, 3, 64)
    assert (out == "") == (rc == 2)
    assert all(w.category is RuntimeWarning for w in caught)
    if name == "kernel commutant":
        assert caught == []


def test_overflowing_sources_are_refused_or_scaled(tmp_path, capsys):
    # a level mass past the largest double is refused, and so is a commutant
    # residual that scales back past it (the 1e300 hop on the same grid reads
    # about 9e299); a hop of 2**996, whose fit residuals square past it,
    # gives 2**996 times the unit hop's estimate and commutant residual, bit
    # for bit
    pair = tmp_path / "pair.json"
    save_operator(CoefficientOperator(CONTRACT_SOURCES["pair-1e308"]), str(pair))
    for action in ("spectrum", "estimate", "tauberian"):
        rc, out, err = invoke(["dixmier", action, "--op", str(pair)], capsys)
        assert (rc, out) == (2, ""), action
        assert "largest double" in err
    square = tmp_path / "square.json"
    save_operator(CoefficientOperator({key: 1.7e308 for key in ((0, 0), (0, 1), (1, 0), (1, 1))}),
                  str(square))
    hop = tmp_path / "hop.json"
    save_operator(CoefficientOperator(CONTRACT_SOURCES["hop-1e300"]), str(hop))
    grid = ["--a1", "3", "--a2", "3", "--extent", "3", "--nodes", "16"]
    rc, out, err = invoke(["kernel", "commutant", "--op", str(square)] + grid, capsys)
    assert (rc, out) == (2, "")
    assert "the commutant residual passes the largest double" in err
    rc, out, err = invoke(["kernel", "commutant", "--op", str(hop)] + grid, capsys)
    assert (rc, err) == (0, "")
    assert 9e299 < json.loads(out)["residual"] < 9.1e299
    tables, residuals = [], []
    for k in (0, 996):
        hop = tmp_path / ("hop%d.json" % k)
        save_operator(CoefficientOperator({(0, 1): math.ldexp(1.0, k),
                                           (1, 0): math.ldexp(1.0, k)}), str(hop))
        rc, out, err = invoke(["dixmier", "estimate", "--op", str(hop)], capsys)
        assert (rc, err) == (0, "")
        tables.append(json.loads(out)["table"])
        rc, out, err = invoke(["kernel", "commutant", "--op", str(hop), "--a1", "0.5",
                               "--a2", "-0.3"], capsys)
        assert (rc, err) == (0, "")
        residuals.append(json.loads(out)["residual"])
    unit, scaled = tables
    assert scaled["extrapolated"]["re"] == math.ldexp(unit["extrapolated"]["re"], 996)
    assert scaled["residual"] == math.ldexp(unit["residual"], 996)
    assert residuals[0] > 0.0
    assert residuals[1] == math.ldexp(residuals[0], 996)


def test_work_limit_is_checked_first(tmp_path, capsys):
    # the Laguerre recurrence of index 10**15 is refused before it starts
    path = tmp_path / "far.json"
    save_operator(CoefficientOperator(CONTRACT_SOURCES["index-1e15"]), str(path))
    for argv in (["kernel", "eval", "--op", str(path), "--x1", "0.5", "--x2", "0"],
                 ["basis", "eval", "--n", "1000000000", "--m", "1000000000",
                  "--x1", "0.5", "--x2", "0"]):
        rc, out, err = invoke(argv, capsys)
        assert (rc, out) == (2, "")
        assert "steps, over the limit" in err


def test_level_power_sums_past_the_largest_double_are_refused(tmp_path, capsys):
    # zeta_T sums |v|^(1 + x) level by level; where a power, a Hurwitz term
    # or their sum passes the largest double (1e300 at x = 0.1, 2 and 4 at
    # x = 2000), the run is refused, not ended by an OverflowError; a dense
    # spectrum's power sum (the 1e300 hop) is refused alike, with no warning
    path = tmp_path / "source.json"
    for entries, xgrid in (({(0, 0): 1e300}, []),
                           ({(0, 0): 2.0}, ["--xgrid", "2000,1500,1000"]),
                           ({(3, 3): 4.0}, ["--xgrid", "2000,1500,1000"]),
                           ({(0, 1): 1e300, (1, 0): 1e300}, [])):
        save_operator(CoefficientOperator(entries), str(path))
        rc, out, err = invoke(["dixmier", "tauberian", "--op", str(path)] + xgrid, capsys)
        assert (rc, out) == (2, ""), entries
        assert "largest double" in err


def test_huge_dos_threshold_is_refused_briefly(capsys):
    # the level count is not spelled out: the message names the threshold
    # and the limit
    rc, out, err = invoke(["dos", "idos", "--eps", "1e300"], capsys)
    assert (rc, out) == (2, "")
    assert "1e+300" in err and "524288" in err
    assert len(err.encode()) < 200


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


# The scalar commands, and the Dixmier routes on diagonal sources, run on the
# standard library alone, and on its light part: no dataclasses, no inspect,
# and no argparse, gettext or locale, for a command or for help.
STDLIB_ONLY = {"numpy", "dataclasses", "inspect", "argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv, absent", [
    (["trace", "diag", "--op", "{pi0}"], STDLIB_ONLY),
    (["trace", "residue", "--op", "{pi0}"], STDLIB_ONLY),
    (["trace", "shell", "--op", "{pi0}"],
     STDLIB_ONLY | {"magtrace.dixmier", "magtrace.dos", "magtrace.kernels", "magtrace.basis"}),
    (["trace", "shell", "--op", "{pi0}", "--Ngrid", "1e6,1e9,1e12"],
     STDLIB_ONLY | {"magtrace.dixmier", "magtrace.dos", "magtrace.kernels", "magtrace.basis"}),
    (["trace", "ordered", "--op", "{pi0}"], STDLIB_ONLY),
    (["kernel", "eval", "--op", "{pi0}", "--x1", "0.5", "--x2", "0.25"],
     STDLIB_ONLY | {"magtrace.dixmier", "magtrace.dos"}),
    (["kernel", "folner", "--op", "{pi0}", "--R", "6.0"],
     STDLIB_ONLY | {"magtrace.dixmier", "magtrace.dos"}),
    (["basis", "eval", "--n", "3", "--m", "1", "--x1", "0.5", "--x2", "-0.25"],
     STDLIB_ONLY | {"magtrace.dixmier", "magtrace.dos", "magtrace.kernels"}),
    (["dixmier", "estimate", "--op", "{pi0}"], STDLIB_ONLY),
    (["dixmier", "tauberian", "--op", "{pi0}"], STDLIB_ONLY),
    (["dixmier", "gamma", "--op", "{pi0}", "--N", "10"], STDLIB_ONLY),
    (["dos", "approx", "--eps", "2.5"], STDLIB_ONLY | {"magtrace.dixmier", "magtrace.kernels"}),
    (["dos", "idos", "--eps", "2.5"], STDLIB_ONLY),
    (["op", "norm", "--in", "{pi0}", "--p", "2"], STDLIB_ONLY),
    (["dos", "spectral", "--f", "{bump}"],
     STDLIB_ONLY | {"magtrace.dixmier", "magtrace.kernels"}),
    (["dos", "dixmier", "--f", "{bump}"], STDLIB_ONLY | {"magtrace.kernels"}),
    (["--budget-profile", "quick", "compare", "--op", "{pi0}"],
     STDLIB_ONLY | {"magtrace.dos", "magtrace.kernels", "magtrace.basis"}),
    (["compare", "--op", "{pi0}"], STDLIB_ONLY | {"magtrace.dos", "magtrace.kernels"}),
    (["--help"], STDLIB_ONLY | {"magtrace.traces", "magtrace.dixmier", "magtrace.kernels"}),
    (["trace", "diag", "--help"], STDLIB_ONLY | {"magtrace.traces", "magtrace.dixmier"}),
], ids=["trace-diag", "trace-residue", "trace-shell", "trace-shell-far-grid", "trace-ordered",
        "kernel-eval", "kernel-folner", "basis-eval", "dixmier-estimate", "dixmier-tauberian",
        "dixmier-gamma", "dos-approx", "dos-idos", "op-norm", "dos-spectral", "dos-dixmier",
        "compare", "compare-full", "help", "trace-diag-help"])
def test_a_command_loads_only_what_it_runs(argv, absent, pi0_file, bump_file):
    argv = [arg.format(pi0=pi0_file, bump=bump_file) for arg in argv]
    loaded = _modules_loaded(["-m", "magtrace.cli", *argv])
    assert "magtrace.operators" in loaded
    assert sorted(absent & loaded) == []




def test_help_lists_every_command_and_flag(capsys):
    # help is made from the command table, in a fresh process as in process
    proc = subprocess.run([sys.executable, "-m", "magtrace.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    globals_part, _, commands_part = proc.stdout.partition("\ncommands:\n")
    listed = [line.split(None, 1) + [""] for line in commands_part.splitlines()]
    assert [" ".join([group, action]).strip() for group, actions, *_ in listed
            for action in actions.split(", ")] == list(cli.COMMANDS)
    for flag in cli.GLOBAL_FLAGS:
        assert "\n  %s VALUE " % flag in globals_part
    for name, (_, flags) in cli.COMMANDS.items():
        group, _, action = name.rpartition(" ")
        if group:
            rc, out, err = invoke([group, "--help"], capsys)
            assert (rc, err) == (0, "") and action in out.split("actions: ")[1].strip().split(", ")
        rc, out, err = invoke(name.split() + ["-h"], capsys)
        assert (rc, err) == (0, "")
        lines = out.split("flags:\n")[1].splitlines()
        assert [line.split()[0] for line in lines] == list(flags), name
        for flag, line in zip(flags, lines):
            spec = cli.FLAGS[flag]
            assert ("required" if spec.get("required") else "default") in line
            assert all(choice in line for choice in spec.get("choices", ()))
            assert spec.get("help", "") in line


@pytest.mark.parametrize("argv", [
    ["trace", "diag", "--op", "{pi0}", "-h"], ["--format", "csv", "trace", "diag", "--help"],
    ["trace", "diag", "--op", "-h"], ["--ell", "2", "--ell", "3", "trace", "diag", "-h"],
])
def test_help_anywhere_is_the_help_of_the_command(argv, pi0_file, capsys):
    assert (invoke([arg.format(pi0=pi0_file) for arg in argv], capsys)
            == invoke(["trace", "diag", "--help"], capsys))


def _oracle():
    """argparse's reading of FLAGS and COMMANDS, which the table reader must agree with."""
    parser = argparse.ArgumentParser(prog="magtrace")
    for flag in cli.GLOBAL_FLAGS:
        parser.add_argument(flag, **cli.FLAGS[flag])
    groups = {"": parser.add_subparsers()}
    for name, (handler, flags) in cli.COMMANDS.items():
        group, _, action = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group).add_subparsers()
        leaf = groups[group].add_parser(action)
        for flag in flags:
            leaf.add_argument(flag, **cli.FLAGS[flag])
        leaf.set_defaults(func=handler, command=name)
    return parser


def _oracle_namespace(argv):
    """The oracle's namespace of a well-formed argv, each pair given as flag=value.

    argparse takes a value such as -1e-05 or -inf for an option, and reads
    it as a value only in that form.
    """
    words = list(argv)
    for at in reversed(range(len(words) - 1)):
        if words[at] in cli.FLAGS:
            words[at:at + 2] = [words[at] + "=" + words[at + 1]]
    return vars(_oracle().parse_args(words))


def _reprs(namespace):
    # repr tells nan, -0.0 and the int/float of each value apart
    return {key: repr(value) for key, value in namespace.items()}


# A value for each flag: some negative, some not finite, and an integer above 2**53.
FLAG_VALUES = {
    "--ell": "2.5", "--format": "csv", "--out": "report.csv", "--budget-profile": "quick",
    "--n": "-3", "--m": "1", "--x1": "-1e-05", "--x2": "-.5", "--max-index": "2",
    "--extent": "6.0", "--nodes": "32", "--in": "{pi0}", "--in2": "{pi0}", "--op": "{pi0}",
    "--p": "inf", "--N": "4", "--save": "out.json", "--R": "6.0", "--a1": "nan", "--a2": "-inf",
    "--lambda": "-0.5", "--lambda2": "0.25", "--xgrid": "0.1,-.5", "--eps": "-2.5",
    "--Ngrid": "100,12345678901234567891", "--form": "split", "--shells": "64", "--J": "8",
    "--f": "{bump}",
}


def _command_lines():
    """Every subcommand with its required flags only, and with each of its flags."""
    for name, (_, flags) in cli.COMMANDS.items():
        required = [flag for flag in flags if cli.FLAGS[flag].get("required")]
        for chosen in (required, list(flags)):
            yield name.split() + [word for flag in chosen for word in (flag, FLAG_VALUES[flag])]
    every_global = [word for flag in cli.GLOBAL_FLAGS for word in (flag, FLAG_VALUES[flag])]
    yield every_global + ["compare", "--op", "{pi0}"]
    yield ["--ell", "-1", "--format", "json", "trace", "diag", "--op", "{pi0}"]


@pytest.mark.parametrize("argv", list(_command_lines()))
def test_table_reader_matches_an_argparse_oracle(argv, pi0_file, bump_file):
    argv = [arg.format(pi0=pi0_file, bump=bump_file) for arg in argv]
    assert _reprs(vars(cli._read_command_line(argv))) == _reprs(_oracle_namespace(argv))


# Plain values for the required flags of a command.
PLAIN_VALUES = {
    "--n": "1", "--m": "0", "--x1": "0.5", "--x2": "0.25", "--in": "{pi0}", "--in2": "{pi0}",
    "--op": "{pi0}", "--p": "2", "--N": "10", "--a1": "0.5", "--a2": "-0.3", "--eps": "2.5",
    "--f": "{bump}",
}


def _line_with(flag, value, name=None):
    """Command name, by default the first that takes flag, at value and plain required flags."""
    if name is None:
        name = next(name for name, (_, flags) in cli.COMMANDS.items()
                    if flag in flags + cli.GLOBAL_FLAGS)
    flags = cli.COMMANDS[name][1]
    words = [word for other in flags if cli.FLAGS[other].get("required") and other != flag
             for word in (other, PLAIN_VALUES[other])]
    words += ["--form", "split"] if flag == "--lambda2" else []  # read by split only
    if flag in cli.GLOBAL_FLAGS:
        return [flag, value] + name.split() + words
    return name.split() + words + [flag, value]


NUMBER_FLAGS = sorted(flag for flag, spec in cli.FLAGS.items()
                      if spec.get("type") in (float, cli._parse_floats, cli._parse_ints))


@pytest.mark.parametrize("value", ["-1e-05", "-inf", "-.5", "-1E+3"])
@pytest.mark.parametrize("flag", NUMBER_FLAGS)
def test_negative_values_are_read_in_any_notation(flag, value, pi0_file, bump_file):
    # the word after a flag is its value, whatever it starts with: the table
    # reader and the oracle give the same namespace, or both refuse the value
    # with the same message (--Ngrid takes integers only)
    argv = [arg.format(pi0=pi0_file, bump=bump_file) for arg in _line_with(flag, value)]
    try:
        expected = _reprs(_oracle_namespace(argv))
    except cli.UsageError as err:
        with pytest.raises(cli.UsageError, match=re.escape(str(err))):
            cli._read_command_line(argv)
        assert flag == "--Ngrid"
        return
    assert _reprs(vars(cli._read_command_line(argv))) == expected


def test_kernel_eval_reads_a_negative_exponent(pi0_file, capsys):
    # repr writes small negative floats as -1e-05, and kernel eval reads them;
    # pi0's kernel is radial, so the point's mirror image gives the same value
    values = []
    for x1 in ("-1e-05", "1e-05"):
        rc, out, err = invoke(["kernel", "eval", "--op", pi0_file, "--x1", x1, "--x2", "0"],
                              capsys)
        assert (rc, err) == (0, "")
        values.append(json.loads(out)["value"])
    assert values[0] == values[1]


# Command lines that are not well formed, each with the start of its usage
# error.  Abbreviated flags, flag=value and -- are not read.
USAGE_ERRORS = [
    ([], "missing command (choose from basis, op, kernel, trace, dixmier, dos, compare)"),
    (["--ell", "2"], "missing command (choose from basis"),
    (["--out", "compare"], "missing command (choose from basis"),
    (["trace"], "missing command (choose from diag, residue, shell, ordered)"),
    (["trace", "dag", "--op", "x"], "invalid choice: 'dag' (choose from diag, residue"),
    (["trace", "compare", "--op", "x"], "invalid choice: 'compare' (choose from diag"),
    (["dixmier", "diag", "--op", "trace"], "invalid choice: 'diag' (choose from spectrum"),
    (["trace diag", "--op", "{pi0}"], "invalid choice: 'trace diag' (choose from basis"),
    (["--hel", "compare"], "invalid choice: '--hel'"),
    (["--bud", "quick", "trace", "diag", "--op", "{pi0}"], "invalid choice: '--bud'"),
    (["--ell=2", "trace", "diag", "--op", "{pi0}"], "invalid choice: '--ell=2'"),
    (["--", "trace", "diag", "--op", "{pi0}"], "invalid choice: '--'"),
    (["trace", "diag", "--o", "{pi0}"], "unrecognized arguments: --o "),
    (["dixmier", "spectrum", "--op", "{pi0}", "--lam", "0.5"], "unrecognized arguments: --lam"),
    (["trace", "diag", "--op={pi0}"], "unrecognized arguments: --op="),
    (["trace", "diag", "--", "--op", "{pi0}"], "unrecognized arguments: -- --op "),
    (["trace", "diag", "--op", "{pi0}", "extra"], "unrecognized arguments: extra"),
    (["trace", "diag", "--op", "{pi0}", "--ell", "2"], "unrecognized arguments: --ell 2"),
    (["trace", "diag", "compare"], "unrecognized arguments: compare"),
    (["trace", "diag", "--op", "{pi0}", "--Ngrid", "100"], "unrecognized arguments: --Ngrid"),
    (["trace", "diag", "--op", "{pi0}", "--op", "{pi0}"], "argument --op: given more than once"),
    (["--ell", "2", "--ell", "3", "trace", "diag", "--op", "{pi0}"],
     "argument --ell: given more than once"),
    (["trace", "diag"], "the following arguments are required: --op"),
    (["basis", "eval", "--n", "1"], "the following arguments are required: --m, --x1, --x2"),
    (["compare", "--op"], "argument --op: expected one argument"),
    (["op", "norm", "--in", "{pi0}", "--p", "x"], "argument --p: invalid float value: 'x'"),
    (["op", "norm", "--in", "{pi0}", "--p", "- 1"], "argument --p: invalid float value: '- 1'"),
    (["op", "norm", "--in", "{pi0}", "--p", "-"], "argument --p: invalid float value: '-'"),
    (["basis", "eval", "--n", "1.5", "--m", "0", "--x1", "0", "--x2", "0"],
     "argument --n: invalid int value: '1.5'"),
    (["--format", "xml", "trace", "diag", "--op", "{pi0}"],
     "argument --format: invalid choice: 'xml' (choose from json, csv)"),
    (["dixmier", "spectrum", "--op", "{pi0}", "--form", "both"],
     "argument --form: invalid choice: 'both'"),
    (["trace", "shell", "--op", "{pi0}", "--Ngrid", "1e500"],
     "expected a comma-separated list of integers: '1e500'"),
    (["trace", "residue", "--op", "{pi0}", "--xgrid", "0.1;0.01"],
     "expected a comma-separated list of numbers: '0.1;0.01'"),
]
HELP_LINES = [
    ["-h"], ["--help"], ["trace", "-h"], ["trace", "--help"], ["trace", "diag", "--help"],
    ["trace", "diag", "--op", "{pi0}", "-h"], ["--help", "trace", "diag"],
    ["trace", "--help", "diag"], ["trace", "diag", "--op", "-h"],
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS + [(argv, None) for argv in HELP_LINES])
def test_usage_errors_and_help_end_the_run(argv, message, pi0_file, capsys):
    rc, out, err = invoke([arg.format(pi0=pi0_file) for arg in argv], capsys)
    if message is None:
        assert (rc, out[:16], err) == (0, "usage: magtrace ", "")
    else:
        assert (rc, out) == (64, "")
        assert err.startswith("usage error: " + message)


# The extreme values of each typed flag, the grids' own, then by type.
EXTREME_VALUES = {
    int: ["0", "-1", str(10 ** 18), "9" * 30],
    float: ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0", "-1e-05"],
    "--xgrid": ["1e308,1e-308", "5e-324", "-0.0,0.1", "nan", "0.1,-inf"],
    "--Ngrid": ["2,3", "-1,100", "%d,%d" % (10 ** 18, 10 ** 18 + 1), "9" * 30, "nan"],
}


def _extremes(flag):
    return EXTREME_VALUES.get(flag, EXTREME_VALUES.get(cli.FLAGS[flag].get("type"), ()))


# every command with each typed flag it takes, the global flags included
EXTREME_CASES = [(name, flag, value) for name, (_, flags) in cli.COMMANDS.items()
                 for flag in flags + cli.GLOBAL_FLAGS for value in _extremes(flag)]


@pytest.mark.parametrize("name, flag, value", EXTREME_CASES)
def test_extreme_flag_values_keep_the_exit_contract(name, flag, value, pi0_file, bump_file,
                                                    capsys):
    # each typed flag at each extreme value, in every command that takes it
    # (--lambda2 with --form split): the run ends within 10 s, raises
    # nothing, and writes a report exactly when it computed one (exit 0 or 3)
    argv = [arg.format(pi0=pi0_file, bump=bump_file) for arg in _line_with(flag, value, name)]
    rc, out, err, caught = invoke_bounded(argv, capsys)
    assert rc in (0, 2, 3, 64)
    assert (out == "") == (rc in (2, 64))
    assert all(w.category is RuntimeWarning for w in caught)
