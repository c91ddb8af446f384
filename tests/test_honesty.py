"""Honesty ledger: a report that says `converged` meets its answer.

Each command runs in process through cli.run on a source, a threshold or
a test function whose exact value is fixed before the run.  A run passes when it refuses (exit 2),
says that it has not converged, or reports a limit L within
0.05 (1 + |L|) of the exact value; `compare` passes unless it exits 0
with a gap over 0.05 (1 + |tau|).  The relations need no exact value: a
route reads 2^k times its reading of S on 2^k S, the same numbers at
ell = 2, (the trace routes) the conjugate on S*, and the same limit at
the shifts lambda = 2 and 100 and on S moved to the levels j + 5000.  Runs that
break a claim or a relation today are expected failures, each naming
the ROADMAP item that mends it.  The suite makes every expected failure
strict (xfail_strict in pyproject.toml): when that item lands, the case
passes, the mark fails the suite, and the mark goes.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from magtrace import CoefficientOperator, adjoint
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
    "pi0+5000": ({(5000, 5000): 1.0}, 1.0, 1.0),
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
FAR_LEVEL = ("ROADMAP item 4a: every value of a single far level lies above its own frontier, "
             "so no refusal fires, and the truncation misses most of its mass")
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
                ("diagonal+5000", "trace-ordered"): SHORT_GRID,
                ("pi0+5000", "tauberian"): TRUNCATED_ZETA,
                ("pi0+5000", "estimate"): FAR_LEVEL,
                ("pi0+5000", "estimate-lambda-100"): FAR_LEVEL,
                ("pi0+5000", "estimate-split"): FAR_LEVEL,
                ("pi0+5000", "trace-shell"): SHORT_GRID,
                ("pi0+5000", "trace-ordered"): SHORT_GRID,
                ("pi0+5000", "compare"): FAR_LEVEL}
CASES = [pytest.param(source, command, id="%s-%s" % (source, command),
                      marks=[pytest.mark.xfail(reason=FALSE_CLAIMS[source, command])]
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
                          marks=[pytest.mark.xfail(reason=DOS_DEPTH)]
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


# Relations: each route is compared with itself on a transformed source,
# never with an exact value, so they also cover dense and complex sources
RELATION_SOURCES = {
    "pi0": {(0, 0): 1.0},
    "diagonal": DIAGONAL,
    "hermitian-6": _hermitian(6)[0],
    "complex": {(0, 0): 0.7 + 0.2j, (1, 2): 0.5 - 0.1j, (2, 1): 0.3j, (3, 3): -0.4},
}
RELABEL = 5000
TRACES = {"trace-" + route: ["trace", route] for route in ("diag", "residue", "shell", "ordered")}
RELATION_COMMANDS = dict(TRACES, **{"estimate": ["dixmier", "estimate"],
                                    "gamma-100": ["dixmier", "gamma", "--N", "100"],
                                    "tauberian": ["dixmier", "tauberian"],
                                    "compare": ["compare"]})
# report fields that echo the budget, the grids or the flags, not a reading of S
ECHOES = {"budget", "config", "lambda", "N", "params", "shells"}
SCALES = (10, -500, 1000)
UNSCALED_ZETA = ("ROADMAP item 24b: x zeta_T(x) is not homogeneous in the source's scale; "
                 "at 2^10 and 2^-500 the residue and its exit code move")
SCALE_CASES = [pytest.param(source, command, k, id="%s-%s-2^%d" % (source, command, k),
                            marks=[pytest.mark.xfail(reason=UNSCALED_ZETA)]
                            if command == "tauberian" and k != 1000 else [])
               for source in RELATION_SOURCES for command in RELATION_COMMANDS for k in SCALES]


def _scaled(entries, k):
    return {key: complex(math.ldexp(complex(v).real, k), math.ldexp(complex(v).imag, k))
            for key, v in entries.items()}


@pytest.fixture(scope="module")
def relation_runs(tmp_path_factory):
    """runs(source, command, transform, flags, options): the runs of the command on the
    source and, between the global flags and the command's options, on its transform,
    each as (exit code, report or error text).  A transform is None, "adjoint",
    "relabeled" (j -> j + RELABEL) or the power k of a scale 2^k; each argv runs once."""
    folder = tmp_path_factory.mktemp("relations")
    paths = {}
    for name, entries in RELATION_SOURCES.items():
        source = CoefficientOperator(entries)
        variants = {None: source, "adjoint": adjoint(source), "relabeled": CoefficientOperator(
            {(j + RELABEL, k + RELABEL): v for (j, k), v in entries.items()})}
        variants.update((k, CoefficientOperator(_scaled(entries, k))) for k in SCALES)
        for transform, op in variants.items():
            paths[name, transform] = str(folder / ("%s-%s.json" % (name, transform)))
            save_operator(op, paths[name, transform])
    reports = {}

    def report(argv):
        if argv not in reports:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run(list(argv))
            reports[argv] = rc, json.loads(out.getvalue()) if rc in (0, 3) else err.getvalue()
        return reports[argv]

    def runs(source, command, transform, flags=(), options=()):
        argv = tuple(RELATION_COMMANDS[command])
        return (report(argv + ("--op", paths[source, None])),
                report(tuple(flags) + argv + tuple(options) + ("--op", paths[source, transform])))

    return runs


def _leaves(report, path=()):
    """(path, value) for every leaf of a report but its wall time."""
    if isinstance(report, dict):
        for key, value in report.items():
            if key != "wall_time_s":
                yield from _leaves(value, path + (key,))
    elif isinstance(report, list):
        for place, value in enumerate(report):
            yield from _leaves(value, path + (place,))
    else:
        yield path, report


@pytest.mark.parametrize("source, command, k", SCALE_CASES)
def test_a_route_scales_with_its_source(source, command, k, relation_runs):
    # S -> 2^k S multiplies every value, residual and gap by 2^k; a scaled
    # run may instead refuse a sum that passes the largest double
    (rc, report), (scaled_rc, scaled) = relation_runs(source, command, k)
    if scaled_rc == 2 and "passes the largest double" in scaled:
        return
    assert scaled_rc == rc
    if rc == 2:
        return
    expected, got = dict(_leaves(report)), dict(_leaves(scaled))
    assert got.keys() == expected.keys()
    for path, value in expected.items():
        if ECHOES.isdisjoint(path) and type(value) in (int, float):
            assert abs(math.ldexp(got[path], -k) - value) <= 1e-13 * abs(value), path
        else:
            assert got[path] == value, path


@pytest.mark.parametrize("command", RELATION_COMMANDS)
@pytest.mark.parametrize("source", RELATION_SOURCES)
def test_a_route_reads_the_same_numbers_at_every_length(source, command, relation_runs):
    # the coefficient picture does not depend on ell: --ell 2 moves no number
    (rc, report), (ell_rc, at_two) = relation_runs(source, command, None, ("--ell", "2"))
    assert ell_rc == rc
    expected, got = dict(_leaves(report)), dict(_leaves(at_two))
    assert expected.pop(("config", "ell")) == 1 and got.pop(("config", "ell")) == 2
    assert got == expected


@pytest.mark.parametrize("command", TRACES)
@pytest.mark.parametrize("source", RELATION_SOURCES)
def test_a_trace_of_the_adjoint_is_the_conjugate(source, command, relation_runs):
    # tau(S*) is the conjugate of tau(S), bit for bit; the Dixmier routes are
    # left out, since Q^-1 S* has the singular values of S Q^-1, not of Q^-1 S
    (rc, report), (adjoint_rc, conjugate) = relation_runs(source, command, "adjoint")
    assert adjoint_rc == rc != 2
    expected, got = dict(_leaves(report)), dict(_leaves(conjugate))
    assert got.keys() == expected.keys()
    for path, value in expected.items():
        assert got[path] == (-value if path[-1] == "im" else value), path


def _limits(report):
    """The limits that a report reads, as complex numbers: one per engine of compare."""
    readings = report["engines"].values() if "engines" in report else [report.get("table", report)]
    values = (reading.get("extrapolated", reading.get("value")) for reading in readings)
    return [complex(value["re"], value["im"]) for value in values]


def _assert_same_limits(runs):
    """Either run refuses (exit 2), or both exit alike with limits within 0.05 (1 + |L|)."""
    (rc, report), (other_rc, other) = runs
    if 2 in (rc, other_rc):
        return
    assert other_rc == rc
    for limit, other_limit in zip(_limits(report), _limits(other), strict=True):
        assert abs(other_limit - limit) <= 0.05 * (1.0 + abs(limit)), (limit, other_limit)


# dixmier gamma is a finite quotient sigma_N / log N, which moves with the
# shift and the labels, so neither relation reads it
SHIFTED = ("trace-residue", "estimate", "tauberian", "compare")
SHIFT_CASES = [pytest.param(source, command, lam, id="%s-%s-lambda-%s" % (source, command, lam),
                            marks=[pytest.mark.xfail(reason=SHIFTED_DEPTH)]
                            if lam == "100" and command in ("estimate", "compare") else [])
               for source in RELATION_SOURCES for command in SHIFTED for lam in ("2", "100")]


@pytest.mark.parametrize("source, command, lam", SHIFT_CASES)
def test_a_limit_does_not_depend_on_the_shift(source, command, lam, relation_runs):
    # the trace, and the Dixmier trace of the weighted product, are the same
    # for every shift lambda > -1
    _assert_same_limits(relation_runs(source, command, None, options=("--lambda", lam)))


RELABELED = ("trace-diag", "trace-residue", "trace-shell", "trace-ordered", "estimate",
             "tauberian", "compare")
RELABEL_MISSES = {("pi0", "estimate"): FAR_LEVEL, ("pi0", "compare"): FAR_LEVEL}
RELABEL_MISSES.update(((source, command), SHORT_GRID) for source in RELATION_SOURCES
                      for command in ("trace-shell", "trace-ordered"))
RELABEL_CASES = [pytest.param(source, command, id="%s-%s" % (source, command),
                              marks=[pytest.mark.xfail(reason=RELABEL_MISSES[source, command])]
                              if (source, command) in RELABEL_MISSES else [])
                 for source in RELATION_SOURCES for command in RELABELED]


@pytest.mark.parametrize("source, command", RELABEL_CASES)
def test_a_limit_does_not_depend_on_the_labels(source, command, relation_runs):
    # the limits read the same on the source moved to the Landau levels
    # j + RELABEL; a Dixmier run that cannot resolve the far levels refuses
    _assert_same_limits(relation_runs(source, command, "relabeled"))
