"""Canonical trace: four estimator routes and their numerical contracts."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from magtrace import (
    CoefficientOperator,
    CompactTestFunction,
    DomainError,
    adjoint,
    collect_spectrum,
    compose,
    completed_shells,
    deep_ladder,
    functional_calculus,
    hurwitz_zeta,
    landau_hamiltonian,
    log_inverse_fit,
    richardson_zero,
    shell_average,
    tau_diagonal,
    tau_ordered_basis,
    tau_residue,
    tau_shell,
    theta,
    weighted_product,
)
from magtrace import cli
from magtrace.extrapolate import log_inverse_table, richardson_table
from magtrace.traces import checked_n_grid, hurwitz_sum, shell_sums
from conftest import random_operator

X_GRID = (1e-1, 1e-2, 1e-3)


def zeta_tail_oracle(t, q, head=50000):
    """Direct partial sum plus integral and half-term tail corrections.

    Independent of the library evaluation: no Bernoulli terms, accuracy
    is set purely by the head length.
    """
    partial = math.fsum((q + k) ** (-t) for k in range(head))
    edge = q + head
    return partial + edge ** (1.0 - t) / (t - 1.0) + 0.5 * edge ** (-t)


def test_hurwitz_against_tail_oracle():
    for t in (1.5, 2.0, 3.3, 4.0):
        for q in (0.5, 1.0, 2.75, 40.0):
            assert hurwitz_zeta(t, q) == pytest.approx(
                zeta_tail_oracle(t, q), rel=1e-10)


def test_hurwitz_against_scipy(rng):
    for trial in range(40):
        t = float(rng.uniform(1.05, 6.0))
        q = float(rng.uniform(0.1, 50.0))
        assert hurwitz_zeta(t, q) == pytest.approx(
            float(scipy.special.zeta(t, q)), rel=1e-12)


def test_hurwitz_closed_forms():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
    assert hurwitz_zeta(4.0, 1.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-13)
    assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-13)
    assert hurwitz_zeta(3.0, 1.0) == pytest.approx(1.2020569031595943, rel=1e-13)


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(0.5, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -3.0)


@pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 1.0, 2.5, 23.5])
def test_hurwitz_sum_closed_forms(q):
    # at t = 1 the finite sum is a difference of digammas, at t = 0 the term
    # count and at t = -1 an arithmetic series; the counts cross the direct
    # sums' end at q + count = 24 (below it, a difference of two
    # Euler-Maclaurin sums loses 1e-12 at q = 0.01).  The slack is the
    # rounding of the two digammas, which cancel for small counts
    for count in (0, 1, 2, 23, 24, 25, 100, 2000, 10 ** 6):
        assert hurwitz_sum(0.0, q, count) == count
        assert hurwitz_sum(-1.0, q, count) == pytest.approx(
            count * q + count * (count - 1) / 2, rel=1e-14, abs=0.0)
        low, high = scipy.special.digamma([q, q + count])
        assert hurwitz_sum(1.0, q, count) == pytest.approx(
            float(high - low), rel=1e-14, abs=1e-15 * float(abs(low) + abs(high)))
    # one term, and a pure Euler-Maclaurin difference (no direct terms)
    assert hurwitz_sum(1.0, q, 1) == pytest.approx(1.0 / q, rel=1e-14, abs=0.0)
    assert hurwitz_sum(2.0, q + 30.0, 70) == pytest.approx(
        math.fsum((q + 30.0 + k) ** -2.0 for k in range(70)), rel=1e-14, abs=0.0)


def test_hurwitz_sum_domain():
    for q in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="positive offset"):
            hurwitz_sum(1.0, q, 3)
    with pytest.raises(DomainError, match="count >= 0"):
        hurwitz_sum(1.0, 1.0, -1)


def test_tau_diagonal_examples():
    assert tau_diagonal(CoefficientOperator({})) == 0.0
    off = CoefficientOperator.transition(0, 3)
    assert tau_diagonal(off) == 0.0
    mixed = CoefficientOperator({(0, 0): 1.0 + 2.0j, (4, 4): -0.5, (1, 2): 9.0})
    assert tau_diagonal(mixed) == pytest.approx(0.5 + 2.0j, abs=1e-15)


def test_theta_matches_scipy_series():
    s = CoefficientOperator({(0, 0): 2.0, (3, 3): -1.0})
    for x in (0.5, 0.05, 0.001):
        expected = 2.0 * scipy.special.zeta(1.0 + x, 1.0) \
            - scipy.special.zeta(1.0 + x, 4.0)
        assert theta(s, x) == pytest.approx(expected, rel=1e-12)


def test_theta_domain():
    s = CoefficientOperator.projection(0)
    with pytest.raises(DomainError):
        theta(s, 0.0)
    with pytest.raises(DomainError):
        theta(s, -0.5)
    with pytest.raises(DomainError, match="invertible only for lambda > -1"):
        theta(s, 0.1, lam=-1.0)
    with pytest.raises(DomainError, match="invertible only for lambda > -1"):
        theta(s, 0.1, lam=float("nan"))
    with pytest.raises(DomainError, match="x > 0"):
        theta(s, float("nan"))


def test_tau_residue_projection():
    table = tau_residue(CoefficientOperator.projection(0), 0.0, X_GRID)
    assert table.model == "richardson_x"
    assert table.extrapolated == pytest.approx(1.0, abs=1e-6)
    assert abs(table.extrapolated - 1.0) <= table.residual + 1e-12
    assert table.converged


def test_tau_residue_residual_is_honest():
    # the reported residual dominates the true error for a benign diagonal
    # operator and for one concentrated at a very large index
    rng = np.random.default_rng(7)
    indices = rng.choice(40, size=12, replace=False)
    entries = {(int(n), int(n)): float(v)
               for n, v in zip(indices, rng.normal(size=12))}
    benign = CoefficientOperator(entries)
    table = tau_residue(benign, 0.0, X_GRID)
    err = abs(table.extrapolated - tau_diagonal(benign))
    assert err <= table.residual + 1e-12

    hard = CoefficientOperator({(10 ** 6, 10 ** 6): 1.0})
    table = tau_residue(hard, 0.0, X_GRID)
    err = abs(table.extrapolated - 1.0)
    assert err <= table.residual + 1e-12
    assert table.converged


def test_tau_residue_linearity(rng):
    a = random_operator(rng, max_index=9, count=8)
    b = random_operator(rng, max_index=9, count=8)
    combo = 2.5 * a + b
    ta = tau_residue(a, 0.0, X_GRID).extrapolated
    tb = tau_residue(b, 0.0, X_GRID).extrapolated
    tc = tau_residue(combo, 0.0, X_GRID).extrapolated
    assert tc == pytest.approx(2.5 * ta + tb, abs=1e-10)


def test_tau_residue_positivity(rng):
    a = random_operator(rng, max_index=6, count=10)
    gram = compose(adjoint(a), a)
    table = tau_residue(gram, 0.0, X_GRID)
    assert table.extrapolated.real >= -1e-9
    assert abs(table.extrapolated.imag) <= 1e-9


def test_tau_residue_grid_validation():
    s = CoefficientOperator.projection(0)
    with pytest.raises(DomainError):
        tau_residue(s, 0.0, (0.1, 0.01))
    with pytest.raises(DomainError):
        tau_residue(s, 0.0, (0.1, -0.01, 0.001))
    with pytest.raises(DomainError):
        tau_residue(s, 0.0, (0.1, 0.1, 0.01))
    with pytest.raises(DomainError, match="positive"):
        tau_residue(s, 0.0, (0.1, float("nan"), 0.001))
    with pytest.raises(DomainError, match=r"finite: \[inf, 1.0, 2.0\]"):
        tau_residue(s, 0.0, (float("inf"), 1.0, 2.0))


def test_shell_average_values():
    s = CoefficientOperator({(0, 0): 2.0, (2, 2): 4.0})
    assert shell_average(s, 1) == 2.0
    assert shell_average(s, 2) == 1.0
    assert shell_average(s, 3) == 2.0
    assert shell_average(s, 5) == pytest.approx(6.0 / 5.0, rel=1e-15)
    with pytest.raises(DomainError):
        shell_average(s, 0)


def test_shell_rearrangement_identity(rng):
    # sum_{j<=N} w_j(S) = sum_{n<N} (h_N - h_n) s_nn with the harmonic
    # numbers computed by a plain loop
    indices = rng.choice(30, size=20, replace=False)
    entries = {(int(n), int(n)): float(v)
               for n, v in zip(indices, rng.normal(size=20))}
    s = CoefficientOperator(entries)
    hs = [0.0]
    for k in range(1, 201):
        hs.append(hs[-1] + 1.0 / k)
    for n_top in (10, 50, 200):
        lhs = math.fsum(shell_average(s, j).real for j in range(1, n_top + 1))
        rhs = math.fsum((hs[n_top] - hs[n]) * v.real
                        for (n, _), v in sorted(entries.items()) if n < n_top)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tau_shell_projection():
    # Independent oracle: harmonic numbers accumulated by a plain loop.
    ns = (100, 1000, 10000)
    hs = [0.0]
    for k in range(1, ns[-1] + 1):
        hs.append(hs[-1] + 1.0 / k)
    table = tau_shell(CoefficientOperator.projection(0), ns)
    for n, value in zip(ns, table.raw):
        assert value == pytest.approx(hs[n] / math.log(n), rel=1e-13)
    assert table.accelerated == ((1.0 + 0.0j),) * 3
    assert abs(table.extrapolated - 1.0) <= 1e-2
    assert table.model == "log_inverse"
    assert table.converged


def test_tau_shell_accelerated_equals_diagonal(rng):
    # the accelerated column telescopes to the plain diagonal sum exactly
    for trial in range(6):
        indices = rng.choice(60, size=15, replace=False)
        values = rng.normal(size=15) + 1j * rng.normal(size=15)
        s = CoefficientOperator({(int(n), int(n)): complex(v)
                                 for n, v in zip(indices, values)})
        table = tau_shell(s, (100, 400, 1600))
        assert table.accelerated[-1] == tau_diagonal(s)


def test_tau_shell_single_point():
    table = tau_shell(CoefficientOperator.projection(0), (100,))
    assert table.model == "none"
    assert math.isinf(table.residual)
    assert not table.converged


def test_tau_shell_grid_validation():
    s = CoefficientOperator.projection(0)
    with pytest.raises(DomainError):
        tau_shell(s, ())
    with pytest.raises(DomainError):
        tau_shell(s, (1, 100))


def test_checked_n_grid():
    # one rule for every truncation grid: distinct integral values >= 2, sorted
    assert checked_n_grid((1000, 100, 1e12)) == [100, 1000, 10 ** 12]
    assert checked_n_grid((np.int64(7), 2.0)) == [2, 7]
    for grid in ((100.7,), (100, 100, 1000), (100, float("nan")), (100, float("inf")), ()):
        with pytest.raises(DomainError):
            checked_n_grid(grid)


def test_completed_shells():
    assert completed_shells(0) == 0
    assert completed_shells(1) == 1
    assert completed_shells(2) == 1
    assert completed_shells(3) == 2
    assert completed_shells(10) == 4
    assert completed_shells(11) == 4
    assert completed_shells(15) == 5


def test_tau_ordered_basis_projection():
    ns = tuple(e * (e + 1) // 2 - 1 for e in (8, 16, 32, 64))
    table = tau_ordered_basis(CoefficientOperator.projection(0), ns)
    # the route recovers half the trace; doubling lands on tau
    doubled = 2.0 * table.extrapolated
    assert doubled == pytest.approx(1.0, abs=1e-2)
    assert table.converged


def test_tau_ordered_basis_rounds_to_shells():
    table = tau_ordered_basis(CoefficientOperator.projection(0), (12, 30))
    assert table.params == (9.0, 27.0)
    h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25
    assert table.raw[0] == pytest.approx(h4 / math.log(10.0), rel=1e-13)


def test_tau_ordered_basis_small_grids():
    with pytest.raises(DomainError):
        tau_ordered_basis(CoefficientOperator.projection(0), (1,))
    table = tau_ordered_basis(CoefficientOperator.projection(0), (9,))
    assert table.model == "none"
    assert not table.converged


def test_engines_agree_on_mixed_operator():
    s = CoefficientOperator({(0, 0): 1.0, (2, 2): 0.5, (1, 3): 2.0 - 1.0j})
    exact = 1.5
    assert tau_diagonal(s) == exact
    residue = tau_residue(s, 0.0, X_GRID)
    assert residue.extrapolated == pytest.approx(exact, abs=1e-5)
    shell = tau_shell(s, (100, 1000, 10000))
    assert shell.accelerated[-1] == exact
    ns = tuple(e * (e + 1) // 2 - 1 for e in (8, 16, 32, 64))
    ordered = tau_ordered_basis(s, ns)
    assert 2.0 * ordered.extrapolated == pytest.approx(exact, abs=2e-2)


def test_richardson_zero_polynomial():
    xs = (0.4, 0.2, 0.1)
    ys = [3.0 - 2.0 * x + x * x for x in xs]
    limit, residual = richardson_zero(xs, ys)
    assert limit == pytest.approx(3.0, abs=1e-12)
    assert residual >= 0.0


def test_richardson_zero_complex():
    xs = (0.3, 0.15, 0.05)
    target = 1.0 - 4.0j
    ys = [target + (2.0 + 1.0j) * x for x in xs]
    limit, _ = richardson_zero(xs, ys)
    assert limit == pytest.approx(target, abs=1e-12)


def test_richardson_zero_validation():
    with pytest.raises(DomainError):
        richardson_zero((0.1,), (1.0,))
    with pytest.raises(DomainError):
        richardson_zero((0.1, 0.1), (1.0, 2.0))


def test_log_inverse_fit_recovers_model():
    params = (10.0, 100.0, 1000.0)
    limit = 2.0 - 1.0j
    slope = 0.7
    values = [limit + slope / math.log(p) for p in params]
    got_limit, got_slope, rms = log_inverse_fit(params, values)
    assert got_limit == pytest.approx(limit, abs=1e-12)
    assert got_slope == pytest.approx(slope, abs=1e-12)
    assert rms <= 1e-13


def test_log_inverse_fit_validation():
    with pytest.raises(DomainError):
        log_inverse_fit((10.0,), (1.0,))
    with pytest.raises(DomainError):
        log_inverse_fit((1.0, 10.0), (1.0, 2.0))
    with pytest.raises(DomainError, match="distinct"):
        log_inverse_fit((10.0, 10.0), (1.0, 2.0))
    with pytest.raises(DomainError, match="one value per parameter"):
        log_inverse_fit((10.0, 100.0), (1.0,))


def _lstsq_fit(params, values):
    """(L, c) of value = L + c / log(param) by numpy's least squares."""
    u = 1.0 / np.log(np.asarray(params, dtype=float))
    design = np.column_stack([np.ones_like(u), u]).astype(complex)
    return np.linalg.lstsq(design, np.asarray(values, dtype=complex), rcond=None)[0]


def _exact_fit(params, values):
    """(L, c) in rational arithmetic from the same rounded u = 1/log(param)."""
    u = [Fraction(1.0 / math.log(float(p))) for p in params]
    u_mean = sum(u) / len(u)
    fits = []
    for part in ([v.real for v in values], [v.imag for v in values]):
        v = [Fraction(x) for x in part]
        v_mean = sum(v) / len(v)
        slope = (sum((a - u_mean) * (b - v_mean) for a, b in zip(u, v))
                 / sum((a - u_mean) ** 2 for a in u))
        fits.append((v_mean - slope * u_mean, slope))
    return [complex(float(re), float(im)) for re, im in zip(*fits)]


def _runtime_grids():
    """Every parameter column that a log-inverse fit meets in the budgets and criteria.

    The budgets' n_grid and ordered state counts (the ordered route fits in
    N + 1), and the deep ladders of acceptance criteria 5 (pi0 and pi0 + pi1
    at m_max 8191) and 7 (a test function of the 12-level Landau operator at
    m_max 32767).
    """
    grids = []
    for budget in cli.BUDGETS.values():
        grids += [budget.n_grid, [n + 1 for n in budget.ordered_grid]]
    pi0 = CoefficientOperator.projection(0)
    bump = CompactTestFunction(((0.0, 0.0), (0.5, 1.0), (11.45, 0.0)))
    for source, m_max in ((pi0, 8191), (pi0 + CoefficientOperator.projection(1), 8191),
                          (functional_calculus(landau_hamiltonian(12), bump), 32767)):
        spectrum = collect_spectrum(weighted_product(source, "left", 0.0), m_max=m_max,
                                    n_max=source.max_index + 1, kind="eigen")
        grids.append(deep_ladder(spectrum))
    return grids


def test_log_inverse_fit_matches_least_squares(rng):
    # the closed form agrees with numpy's lstsq, and with the exact fit more closely
    grids = _runtime_grids()
    assert len(grids) == 7
    for params in grids:
        for _ in range(20):
            values = rng.normal(size=len(params)) + 1j * rng.normal(size=len(params))
            limit, slope, _ = log_inverse_fit(params, values)
            for (want_limit, want_slope), tol in ((_lstsq_fit(params, values), 1e-13),
                                                  (_exact_fit(params, values), 1e-14)):
                assert abs(limit - want_limit) <= tol * abs(want_limit), params
                assert abs(slope - want_slope) <= tol * abs(want_slope), params


def test_two_row_fit_leaves_a_rounding_residual(rng):
    # two rows fit the model exactly, so the residual is rounding alone;
    # (100, 1000) is the quick budget's n_grid
    for params in ((100, 1000), (1000, 10000), (2, 3), (2, 10 ** 12)):
        for _ in range(200):
            values = rng.normal(size=2) + 1j * rng.normal(size=2)
            _, _, rms = log_inverse_fit(params, values)
            assert rms <= 1e-15 * max(abs(values)), params


def test_shell_sums_match_numpy_cumsum(rng):
    # the running sums keep numpy's bits: p[N] by cumsum, W[N] by cumsum of p[j] / j
    entries = {(int(j), int(j)): complex(*rng.normal(size=2))
               for j in rng.choice(5000, size=300, replace=False)}
    entries[(3, 7)] = 2.0
    s = CoefficientOperator(entries)
    count = 4000
    prefix, sums = shell_sums(s, count)
    diagonal = np.zeros(count, dtype=complex)
    for (j, k), v in s.entries.items():
        if j == k and j < count:
            diagonal[j] = v
    want_prefix = np.concatenate([[0j], np.cumsum(diagonal)])
    want_sums = np.concatenate([[0j], np.cumsum(want_prefix[1:] / np.arange(1, count + 1))])
    assert len(prefix) == len(sums) == count + 1
    assert np.array_equal(np.array(prefix).view(float), want_prefix.view(float))
    assert np.array_equal(np.array(sums).view(float), want_sums.view(float))


def test_shell_routes_are_sized_by_the_grid():
    # One far diagonal entry must not size the prefix sums: the shell
    # routes allocate for the largest truncation point only.
    s = CoefficientOperator({(0, 0): 1.0, (2_000_000, 2_000_000): 1.0})
    tracemalloc.start()
    try:
        table = tau_shell(s, (100, 1000, 10000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.accelerated == (1.0, 1.0, 1.0)
    assert peak < 8 * 2 ** 20


def test_richardson_table_sorts_and_keeps_real_limits_real():
    table = richardson_table((0.1, 0.4, 0.2), lambda x: 3.0 / x - 2.0 + x)
    assert table.params == (0.4, 0.2, 0.1)
    assert table.model == "richardson_x"
    assert table.extrapolated == pytest.approx(3.0, abs=1e-12)
    assert type(table.extrapolated) is float and table.converged is True


def test_log_inverse_table_rows_and_types():
    single = log_inverse_table((50,), [np.float64(1.5)], [np.float64(1.0)])
    assert (single.model, single.residual, single.extrapolated) == ("none", math.inf, 1.5)
    assert single.converged is False
    assert type(single.raw[0]) is float and type(single.accelerated[0]) is float
    params = (10, 100, 1000)
    real = log_inverse_table(params, [np.float64(2.0 + 0.5 / math.log(p)) for p in params])
    assert real.model == "log_inverse"
    assert real.params == (10.0, 100.0, 1000.0)
    assert type(real.extrapolated) is float and real.converged is True
    assert real.extrapolated == pytest.approx(2.0, abs=1e-12)
    mixed = log_inverse_table(params, [2.0, 1.0 + 0.0j, 2.0])
    assert type(mixed.extrapolated) is complex and type(mixed.raw[1]) is complex
