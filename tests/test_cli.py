"""End-to-end command line checks: exit codes, payloads, determinism."""

import json
import math
import subprocess
import sys

import pytest

from magtrace import adjoint, make_config, psi
from magtrace.cli import run
from magtrace.serialize import canonical_json, load_operator


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
    for eps in ("nan", "inf"):
        rc, out, err = invoke(["dos", "idos", "--eps", eps], capsys)
        assert (rc, out) == (2, "")
        assert "threshold must be finite" in err
    # a non-finite report value is refused at emission
    rc, out, err = invoke(["basis", "eval", "--n", "2000", "--m", "0",
                           "--x1", "30", "--x2", "0"], capsys)
    assert (rc, out) == (2, "")
    assert "non-finite" in err


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
    for grid in ("1e400", "100,nan"):
        rc, _, err = invoke(["trace", "shell", "--op", pi0_file, "--Ngrid", grid], capsys)
        assert rc == 64
        assert err.startswith("usage error:")
    rc, _, err = invoke(["--format", "xml", "trace", "diag", "--op", pi0_file], capsys)
    assert rc == 64
    assert err.startswith("usage error:")


def test_exit_3_on_unconverged_table(pi0_file, capsys):
    rc, out, _ = invoke(["trace", "shell", "--op", pi0_file,
                         "--Ngrid", "100"], capsys)
    assert rc == 3
    report = json.loads(out)
    assert report["table"]["model"] == "none"
    assert report["table"]["residual"] is None
    assert report["table"]["converged"] is False


def test_csv_table_output(pi0_file, capsys):
    rc, out, _ = invoke(["--format", "csv", "trace", "shell",
                         "--op", pi0_file], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,raw,accelerated,extrapolated,residual"
    assert len(lines) == 4
    assert lines[2].split(",")[3:] == ["", ""]


def test_csv_scalar_output(pi0_file, capsys):
    rc, out, _ = invoke(["--format", "csv", "trace", "diag",
                         "--op", pi0_file], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "value,1" in lines


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


def test_op_compose_norm_block(pi0_file, capsys):
    rc, out, _ = invoke(["op", "compose", "--in", pi0_file, "--in2", pi0_file],
                        capsys)
    assert rc == 0
    entries = json.loads(out)["operator"]["entries"]
    assert entries == [{"im": 0.0, "j": 0, "k": 0, "re": 1.0}]

    rc, out, _ = invoke(["op", "norm", "--in", pi0_file, "--p", "2"], capsys)
    assert rc == 0
    assert json.loads(out)["norm"] == 1.0

    rc, out, _ = invoke(["op", "block", "--in", pi0_file, "--m", "0", "--N", "2"],
                        capsys)
    assert rc == 0
    report = json.loads(out)
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


def test_length_flag_changes_idos(capsys):
    rc, out, _ = invoke(["--ell", "2.0", "dos", "idos", "--eps", "2.0"], capsys)
    assert rc == 0
    assert json.loads(out)["idos"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)


def test_module_entry_point(pi0_file):
    proc = subprocess.run([sys.executable, "-m", "magtrace.cli", "trace", "diag",
                           "--op", pi0_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"]["re"] == 1.0
