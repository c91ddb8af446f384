"""Honesty ledger: a report that says `converged` meets its answer.

Each command runs in process through cli.run on a source, a threshold or
a test function whose exact value is fixed before the run.  A run passes when it refuses (exit 2),
says that it has not converged, or reports a limit L within
0.05 (1 + |L|) of the exact value; `compare` passes unless it exits 0
with a gap over 0.05 (1 + |tau|).  Runs that claim `converged` falsely
today are strict expected failures, each naming the ROADMAP item that
mends it: when that item lands, the case passes, the strict mark fails
the suite, and the mark goes.
"""

import json
import math

import numpy as np
import pytest

from magtrace import CoefficientOperator
from magtrace.cli import run
from magtrace.serialize import save_operator


def _hermitian(size):
    """H = (A + A*)/2 for A = N(0,1) + i N(0,1) from default_rng(1): entries, tr H, sum |eig|."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    h = 0.5 * (a + a.conj().T)
    entries = {(j, k): complex(h[j, k]) for j in range(size) for k in range(size)}
    return entries, float(np.trace(h).real), float(np.abs(np.linalg.eigvalsh(h)).sum())


def _heat(t):
    """e^{-tH}, cut where e^{-t j} < e^{-40}: levels j <= 40/t with e^{-t (j + 1/2)}."""
    trace = 1.0 / (2.0 * math.sinh(0.5 * t))
    return {(j, j): math.exp(-t * (j + 0.5)) for j in range(round(40.0 / t) + 1)}, trace, trace


DIAGONAL = {(0, 0): 0.7, (2, 2): 0.4, (3, 3): 0.9, (5, 5): 0.3}
# name: (entries, the trace, the sum of the singular values); the Dixmier
# commands read the singular values of a source with off-diagonal entries,
# and the eigenvalues of a real diagonal one, which are positive here
SOURCES = {
    "pi0": ({(0, 0): 1.0}, 1.0, 1.0),
    "diagonal": (DIAGONAL, 2.3, 2.3),
    "heat-1": _heat(1.0),
    "hermitian-6": _hermitian(6),
    "hermitian-16": _hermitian(16),
    "heat-0.1": _heat(0.1),
    "far": ({(0, 0): 1.0, (5000, 5000): 1.0}, 2.0, 2.0),
    "far-hop": ({(0, 3000): 1.0, (3000, 0): 1.0, (1, 1): 0.5}, 0.5, 2.5),
    "diagonal+5000": ({(j + 5000, k + 5000): v for (j, k), v in DIAGONAL.items()}, 2.3, 2.3),
}
# name: (argv, the exact value's place in SOURCES, its factor); the ordered
# basis averages tend to half the trace, and compare is checked by its gaps
COMMANDS = {
    "tauberian": (["dixmier", "tauberian"], 2, 1.0),
    "estimate": (["dixmier", "estimate"], 2, 1.0),
    "estimate-lambda-100": (["dixmier", "estimate", "--lambda", "100"], 2, 1.0),
    "estimate-split": (["dixmier", "estimate", "--form", "split", "--lambda", "-0.5",
                        "--lambda2", "2"], 2, 1.0),
    "trace-residue": (["trace", "residue"], 1, 1.0),
    "trace-shell": (["trace", "shell"], 1, 1.0),
    "trace-ordered": (["trace", "ordered"], 1, 0.5),
    "compare": (["compare"], 1, 1.0),
}
TRUNCATED_ZETA = "ROADMAP item 17: x zeta_T(x) tends to 0 on a truncated spectrum"
SHIFTED_DEPTH = "ROADMAP item 4a: at lambda = 100 the truncation misses most of the mass"
DENSE_DEPTH = ("ROADMAP items 23 and 4b: a dense source's estimate is biased like 1/m_max, "
               "and no residual sees the bias")
SHORT_GRID = ("ROADMAP items 3 and 8: the shell and ordered grids stop short of a level at "
              "index 5000, and the fit of the rows before it says converged")
FALSE_CLAIMS = {("pi0", "tauberian"): TRUNCATED_ZETA,
                ("diagonal", "tauberian"): TRUNCATED_ZETA,
                ("heat-1", "tauberian"): TRUNCATED_ZETA,
                ("pi0", "estimate-lambda-100"): SHIFTED_DEPTH,
                ("diagonal", "estimate-lambda-100"): SHIFTED_DEPTH,
                ("hermitian-6", "estimate-lambda-100"): DENSE_DEPTH,
                ("hermitian-16", "estimate"): DENSE_DEPTH,
                ("hermitian-16", "estimate-lambda-100"): DENSE_DEPTH,
                ("hermitian-16", "estimate-split"): DENSE_DEPTH,
                ("far", "trace-shell"): SHORT_GRID,
                ("far", "trace-ordered"): SHORT_GRID,
                ("diagonal+5000", "trace-shell"): SHORT_GRID,
                ("diagonal+5000", "trace-ordered"): SHORT_GRID}
CASES = [pytest.param(source, command, id="%s-%s" % (source, command),
                      marks=[pytest.mark.xfail(strict=True, reason=FALSE_CLAIMS[source, command])]
                      if (source, command) in FALSE_CLAIMS else [])
         for source in SOURCES for command in COMMANDS]


@pytest.fixture(scope="module")
def source_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("honesty")
    paths = {}
    for name, (entries, *_) in SOURCES.items():
        paths[name] = str(folder / ("%s.json" % name))
        save_operator(CoefficientOperator(entries), paths[name])
    return paths


def _assert_claim(rc, out, exact):
    """Exit 2, a table that says it has not converged, or a limit L within 0.05 (1 + |L|)."""
    assert rc in (0, 2, 3)
    if rc == 2:
        return
    table = json.loads(out)["table"]
    limit = table["extrapolated"]["re"]
    assert not table["converged"] or abs(limit - exact) <= 0.05 * (1.0 + abs(limit)), limit


@pytest.mark.parametrize("source, command", CASES)
def test_a_converged_report_meets_its_claim(source, command, source_files, capsys):
    argv, place, factor = COMMANDS[command]
    rc = run(argv + ["--op", source_files[source]])
    out = capsys.readouterr().out
    exact = factor * SOURCES[source][place]
    if command != "compare":
        _assert_claim(rc, out, exact)
        return
    # exit 0 says that every engine converged
    assert rc in (0, 2, 3)
    assert rc != 0 or json.loads(out)["max_gap"] <= 0.05 * (1.0 + abs(exact))


def _bump_sum(nodes):
    """sum_j f(j + 1/2) for the piecewise-linear f through the nodes."""
    xs, ys = zip(*nodes)
    return math.fsum(np.interp(np.arange(int(xs[-1]) + 1) + 0.5, xs, ys))


# dos dixmier reads a test function f: piecewise-linear bumps through these
# nodes; the last is zero on every level, so f(H) is the zero operator
BUMPS = {
    "ramp-2.8": ((0.0, 0.0), (1.0, 1.0), (2.8, 0.0)),
    "signed-11.4": ((0.0, 0.0), (3.0, 1.0), (6.0, -0.5), (11.4, 0.0)),
    "tent-100": ((0.0, 0.0), (50.0, 1.0), (100.0, 0.0)),
    "tent-500": ((400.0, 0.0), (450.0, 1.0), (500.0, 0.0)),
    "empty": ((0.0, 0.0), (0.4, 1.0), (0.45, 0.0)),
}
DOS_FORMS = {
    "left": [],
    "lambda-100": ["--lambda", "100"],
    "split": ["--form", "split", "--lambda", "-0.5", "--lambda2", "2"],
}
# name: (argv, the exact value); at ell = 1 the IDOS at eps is
# #{j : j + 1/2 <= eps} / (2 pi), and the Dixmier DOS check of f is
# sum_j f(j + 1/2).  A bump's name in argv stands for its file
DOS_RUNS = {"approx-%g" % eps: (["dos", "approx", "--eps", repr(eps)],
                                math.floor(eps + 0.5) / (2.0 * math.pi))
            for eps in (0.6, 2.5, 10.9, 100.0, 1000.0, 5000.0)}
DOS_RUNS.update({"dixmier-%s-%s" % (bump, form): (["dos", "dixmier", "--f", bump] + flags,
                                                  _bump_sum(nodes))
                 for bump, nodes in BUMPS.items() for form, flags in DOS_FORMS.items()})
DOS_DEPTH = ("ROADMAP item 4a: the truncated estimate misses the mass of f(H) on far "
             "or shifted levels")
DOS_FALSE_CLAIMS = {"dixmier-ramp-2.8-lambda-100", "dixmier-signed-11.4-lambda-100",
                    "dixmier-tent-100-left", "dixmier-tent-100-lambda-100",
                    "dixmier-tent-100-split", "dixmier-tent-500-left",
                    "dixmier-tent-500-lambda-100", "dixmier-tent-500-split"}
DOS_CASES = [pytest.param(name, id=name,
                          marks=[pytest.mark.xfail(strict=True, reason=DOS_DEPTH)]
                          if name in DOS_FALSE_CLAIMS else [])
             for name in DOS_RUNS]


@pytest.fixture(scope="module")
def bump_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bumps")
    paths = {}
    for name, nodes in BUMPS.items():
        paths[name] = str(folder / ("%s.json" % name))
        with open(paths[name], "w") as handle:
            json.dump({"nodes": nodes}, handle)
    return paths


@pytest.mark.parametrize("name", DOS_CASES)
def test_a_converged_dos_report_meets_its_claim(name, bump_files, capsys):
    argv, exact = DOS_RUNS[name]
    rc = run([bump_files.get(arg, arg) for arg in argv])
    _assert_claim(rc, capsys.readouterr().out, exact)
