"""End-to-end acceptance suite for the magtrace trace calculus.

One test per acceptance criterion, in order.  Each test prints a single
summary line with the measured extremes next to the pinned tolerance
(run pytest with -s to see the lines); the asserts use the pinned
tolerances, so a FAIL line always comes with a failing assert.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from magtrace import (
    CoefficientOperator,
    CompactTestFunction,
    DiagonalWeight,
    GridSpec,
    absorb_product,
    adjoint,
    apply_kernel,
    checkpoint_ladder,
    coefficient_bound_check,
    collect_spectrum,
    commutant_residual,
    compose,
    dixmier_dos_check,
    dixmier_estimate,
    grid_from_function,
    hurwitz_zeta,
    idos,
    idos_shell_approx,
    kernel_at_zero,
    landau_hamiltonian,
    lp_norm,
    make_config,
    psi,
    richardson_zero,
    sample_basis,
    shell_average,
    shell_checkpoints,
    shell_spectrum,
    spectral_formula_check,
    tau_diagonal,
    tau_ordered_basis,
    tau_residue,
    tau_shell,
    tauberian_residue,
    weighted_product,
)

CFG = make_config(1.0)
X_GRID = (1e-1, 1e-2, 1e-3)
N_GRID = (100, 1000, 10000)
FORMS = ("left", "right", "split")
LAMBDAS = (-0.5, 0.0, 2.0)


def _report(label, ok, detail):
    print("%s: %s (%s)" % (label, "PASS" if ok else "FAIL", detail))


def _weighted_eigen_estimate(op, form, lam, lam2, m_max):
    weighted = weighted_product(op, form, lam, lam2, s=1.0)
    spectrum = collect_spectrum(weighted, m_max=m_max,
                                n_max=op.max_index + 1, kind="eigen")
    table = dixmier_estimate(spectrum, checkpoint_ladder(spectrum))
    return complex(table.extrapolated).real


def test_criterion_01_projection_trace_by_four_routes():
    # Checkpoints at completed shells up to 2000; params count shell
    # members, so shell e contributes e*(e+1)/2 - 1 usable positions.
    ordered_grid = tuple(e * (e + 1) // 2 - 1 for e in (250, 500, 1000, 2000))
    start = time.perf_counter()
    worst = {"diagonal": 0.0, "residue": 0.0, "shell": 0.0, "ordered": 0.0}
    for j in (0, 1, 5):
        proj = CoefficientOperator.projection(j)
        worst["diagonal"] = max(worst["diagonal"],
                                abs(tau_diagonal(proj) - 1.0))
        residue = tau_residue(proj, 0.0, X_GRID)
        worst["residue"] = max(worst["residue"],
                               abs(complex(residue.extrapolated) - 1.0))
        shell = tau_shell(proj, N_GRID)
        worst["shell"] = max(worst["shell"],
                             max(abs(a - (1.0 + 0.0j)) for a in shell.accelerated))
        ordered = tau_ordered_basis(proj, ordered_grid)
        worst["ordered"] = max(worst["ordered"],
                               abs(2.0 * complex(ordered.extrapolated) - 1.0))
    elapsed = time.perf_counter() - start
    ok = (worst["diagonal"] == 0.0 and worst["residue"] <= 1e-3
          and worst["shell"] == 0.0 and worst["ordered"] <= 5e-2
          and elapsed < 10.0)
    _report("criterion 1", ok,
            "diagonal %.1e exact, residue %.1e <= 1e-3, shell %.1e exact, "
            "ordered doubled %.1e <= 5e-2, %.1fs < 10s"
            % (worst["diagonal"], worst["residue"], worst["shell"],
               worst["ordered"], elapsed))
    assert worst["diagonal"] == 0.0
    assert worst["residue"] <= 1e-3
    assert worst["shell"] == 0.0
    assert worst["ordered"] <= 5e-2
    assert elapsed < 10.0


def test_criterion_02_harmonic_rearrangement_identity():
    # Independent oracle: harmonic numbers accumulated by a plain loop.
    hs = [0.0]
    for k in range(1, 1001):
        hs.append(hs[-1] + 1.0 / k)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n_sites = int(rng.integers(1, 12))
        idx = rng.choice(60, size=n_sites, replace=False)
        vals = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
        s = CoefficientOperator({(int(i), int(i)): complex(v)
                                 for i, v in zip(idx, vals)})
        top = int(rng.integers(80, 1001))
        direct = complex(
            math.fsum(complex(shell_average(s, j)).real
                      for j in range(1, top + 1)),
            math.fsum(complex(shell_average(s, j)).imag
                      for j in range(1, top + 1)))
        rearranged = complex(
            math.fsum(((hs[top] - hs[n]) * complex(v)).real
                      for (n, _), v in s.entries.items() if n < top),
            math.fsum(((hs[top] - hs[n]) * complex(v)).imag
                      for (n, _), v in s.entries.items() if n < top))
        worst = max(worst, abs(direct - rearranged))
    ok = worst <= 1e-12
    _report("criterion 2", ok,
            "100 random diagonals, worst identity gap %.1e <= 1e-12" % worst)
    assert worst <= 1e-12


def test_criterion_03_hurwitz_zeta_residue():
    xs = (1e-1, 1e-2, 1e-3, 1e-4)
    worst = 0.0
    for q in (1.0, 2.5, 7.0):
        values = [x * hurwitz_zeta(1.0 + x, q) for x in xs]
        extrapolated, _ = richardson_zero(xs, values)
        worst = max(worst, abs(complex(extrapolated) - 1.0))
    pi_gap = abs(hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6.0)
    ok = worst <= 1e-6 and pi_gap <= 1e-12
    _report("criterion 3", ok,
            "residue gap %.1e <= 1e-6, zeta(2,1) gap %.1e <= 1e-12"
            % (worst, pi_gap))
    assert worst <= 1e-6
    assert pi_gap <= 1e-12


def test_criterion_04_inverse_square_weight_dixmier_half():
    start = time.perf_counter()
    # The ladder starts at shell 512 for the same curvature reason as
    # checkpoint_ladder: the raw gamma sequence bends like 1/log^2 below that.
    checkpoints = shell_checkpoints(2000, points=6, min_shell=512)
    worst_half = 0.0
    worst_agree = 0.0
    for lam in LAMBDAS:
        spectrum = shell_spectrum(DiagonalWeight.q_power(2.0, lam), 2000)
        estimate = complex(
            dixmier_estimate(spectrum, checkpoints).extrapolated).real
        tauberian = complex(
            tauberian_residue(spectrum, X_GRID).extrapolated).real
        worst_half = max(worst_half, abs(estimate - 0.5))
        worst_agree = max(worst_agree, abs(estimate - tauberian))
    elapsed = time.perf_counter() - start
    ok = worst_half <= 1e-2 and worst_agree <= 1e-2 and elapsed < 30.0
    _report("criterion 4", ok,
            "estimate gap %.1e <= 1e-2, tauberian agreement %.1e <= 1e-2, "
            "%.1fs < 30s" % (worst_half, worst_agree, elapsed))
    assert worst_half <= 1e-2
    assert worst_agree <= 1e-2
    assert elapsed < 30.0


def test_criterion_05_dixmier_equals_trace_all_weight_forms():
    combos = [(f, l1, l2) for f in FORMS for l1 in LAMBDAS for l2 in LAMBDAS]
    pi0 = CoefficientOperator.projection(0)
    pi01 = pi0 + CoefficientOperator.projection(1)
    worst = 0.0
    for op in (pi0, pi01):
        target = complex(tau_diagonal(op)).real
        for form, l1, l2 in combos:
            estimate = _weighted_eigen_estimate(op, form, l1, l2, m_max=8191)
            worst = max(worst, abs(estimate - target))
    rng = np.random.default_rng(20260814)
    pairs = [(l1, l2) for l1 in LAMBDAS for l2 in LAMBDAS]
    for trial in range(10):
        count = int(rng.integers(2, 5))
        idx = rng.choice(6, size=count, replace=False)
        weights = rng.uniform(0.25, 1.0, size=count)
        op = CoefficientOperator({(int(i), int(i)): float(w)
                                  for i, w in zip(idx, weights)},
                                 declared_class="Itau")
        target = complex(tau_diagonal(op)).real
        l1, l2 = pairs[trial % len(pairs)]
        for form in FORMS:
            estimate = _weighted_eigen_estimate(op, form, l1, l2, m_max=8191)
            worst = max(worst, abs(estimate - target))
    ok = worst <= 1e-2
    _report("criterion 5", ok,
            "two fixed projections x 27 combos plus 10 random diagonals "
            "x 3 forms, worst gap %.1e <= 1e-2" % worst)
    assert worst <= 1e-2


def test_criterion_06_landau_idos_exact_and_shell_route():
    op = landau_hamiltonian(12)
    exact = idos(op, 2.0, CFG)
    exact_gap = abs(exact - 1.0 / math.pi)
    table = idos_shell_approx(op, 2.0, N_GRID, CFG)
    ratios = [complex(r).real / exact for r in table.raw]
    monotone = all(r > 1.0 for r in ratios) and all(
        a > b for a, b in zip(ratios, ratios[1:]))
    accelerated_exact = all(complex(a).real == exact for a in table.accelerated)
    ok = exact_gap <= 1e-12 and accelerated_exact and monotone
    _report("criterion 6", ok,
            "idos(2.0) gap %.1e <= 1e-12, accelerated column exact %s, "
            "raw/exact ratios %s decrease toward 1"
            % (exact_gap, accelerated_exact,
               ["%.4f" % r for r in ratios]))
    assert exact_gap <= 1e-12
    assert accelerated_exact
    assert monotone


def _random_test_function(rng, upper):
    inner = int(rng.integers(1, 4))
    xs = np.sort(rng.uniform(0.01, upper, size=inner + 2))
    while np.min(np.diff(xs)) < 1e-3:
        xs = np.sort(rng.uniform(0.01, upper, size=inner + 2))
    values = rng.uniform(-1.0, 1.0, size=inner)
    nodes = [(float(xs[0]), 0.0)]
    nodes += [(float(x), float(v)) for x, v in zip(xs[1:-1], values)]
    nodes += [(float(xs[-1]), 0.0)]
    return CompactTestFunction(nodes=tuple(nodes))


def test_criterion_07_spectral_formula_and_dixmier_dos():
    op = landau_hamiltonian(12)
    rng = np.random.default_rng(42)
    worst_spectral = 0.0
    worst_dixmier = 0.0
    for _ in range(20):
        fn = _random_test_function(rng, upper=11.45)
        check = spectral_formula_check(op, fn, CFG)
        worst_spectral = max(worst_spectral, check.gap)
        dix = dixmier_dos_check(op, fn, CFG, m_max=32767)
        worst_dixmier = max(worst_dixmier, dix.gap)
    ok = worst_spectral <= 1e-12 and worst_dixmier <= 2e-2
    _report("criterion 7", ok,
            "20 random piecewise-linear functions, spectral gap %.1e "
            "<= 1e-12, dixmier gap %.1e <= 2e-2"
            % (worst_spectral, worst_dixmier))
    assert worst_spectral <= 1e-12
    assert worst_dixmier <= 2e-2


def test_criterion_08_kernel_cross_representation():
    rng = np.random.default_rng(88)
    worst_zero = 0.0
    for _ in range(50):
        n_entries = int(rng.integers(1, 7))
        keys = {(int(j), int(k))
                for j, k in rng.integers(0, 25, size=(n_entries, 2))}
        s = CoefficientOperator({key: complex(*rng.normal(size=2))
                                 for key in keys})
        worst_zero = max(worst_zero, abs(kernel_at_zero(s, CFG)
                                         - tau_diagonal(s)))

    # 96 nodes over [-9, 9]: basis tails are ~1e-9 at the boundary, so
    # quadrature errors stay well under the kernel tolerances while each
    # kernel application stays near one second.
    grid = GridSpec(extent=9.0, nodes=96)
    basis = {(n, m): sample_basis(n, m, grid, CFG)
             for n in range(3) for m in range(3)}
    action = CoefficientOperator({(0, 1): 0.7, (2, 0): -0.25j, (1, 1): 0.4})
    worst_sup = 0.0
    for (n, m), phi in basis.items():
        out = apply_kernel(action, phi, CFG)
        expected = np.zeros_like(out.values)
        for (j, k), v in action.entries.items():
            if j == n:
                expected = expected + v * basis[(k, m)].values
        worst_sup = max(worst_sup,
                        float(np.max(np.abs(out.values - expected))))

    pi0 = CoefficientOperator.projection(0)
    probe = grid_from_function(lambda x1, x2: psi(0, 0, x1, x2, CFG), grid)
    worst_commutant = 0.0
    for shift in ((2.0, 0.0), (0.0, 2.0), (1.0, 1.0), (-1.2, 0.9),
                  (1.41, -1.41)):
        worst_commutant = max(worst_commutant,
                              commutant_residual(pi0, shift, probe, CFG))

    # the Folner box trace of pi0: its kernel diagonal is constant, so every
    # box average, scaled by omega_ell/2, is f(0)
    worst_folner = abs(kernel_at_zero(pi0, CFG) - 1.0)
    ok = (worst_zero <= 1e-8 and worst_sup <= 1e-6
          and worst_commutant <= 1e-5 and worst_folner <= 1e-10)
    _report("criterion 8", ok,
            "kernel-at-zero gap %.1e <= 1e-8, action sup gap %.1e <= 1e-6, "
            "commutant residual %.1e <= 1e-5, folner gap %.1e <= 1e-10"
            % (worst_zero, worst_sup, worst_commutant, worst_folner))
    assert worst_zero <= 1e-8
    assert worst_sup <= 1e-6
    assert worst_commutant <= 1e-5
    assert worst_folner <= 1e-10


def test_criterion_09_transition_algebra_and_absorption():
    for j1, k1, j2, k2 in product(range(21), repeat=4):
        left = CoefficientOperator.transition(j1, k1)
        right = CoefficientOperator.transition(j2, k2)
        expected = {(j2, k1): (1 + 0j)} if j1 == k2 else {}
        assert compose(left, right).entries == expected
    for j, k in product(range(21), repeat=2):
        flipped = adjoint(CoefficientOperator.transition(j, k))
        assert flipped.entries == {(k, j): (1 + 0j)}

    rng = np.random.default_rng(909)
    worst_entry = math.inf
    worst_l1 = math.inf
    for _ in range(100):
        def random_summable():
            count = int(rng.integers(2, 9))
            entries = {}
            for _ in range(count):
                j, k = rng.integers(0, 4, size=2)
                entries[(int(j), int(k))] = complex(*rng.normal(size=2))
            return CoefficientOperator(entries, "L1")

        a1, a2 = random_summable(), random_summable()
        bounded = {(int(j), int(k)): complex(rng.uniform(-1, 1),
                                             rng.uniform(-1, 1))
                   for j in range(4) for k in range(4)}
        check = coefficient_bound_check(bounded, 4)
        worst_entry = min(worst_entry, check.margin)
        absorbed = absorb_product(a1, bounded, a2)
        bound = check.block_norm * lp_norm(a1, 1) * lp_norm(a2, 1)
        worst_l1 = min(worst_l1, bound - lp_norm(absorbed, 1))
    ok = worst_entry >= 0.0 and worst_l1 >= 0.0
    _report("criterion 9", ok,
            "all 21^4 generator relations exact, entry-bound margin "
            ">= %.3f, l1-bound margin >= %.3f" % (worst_entry, worst_l1))
    assert worst_entry >= 0.0
    assert worst_l1 >= 0.0


def test_criterion_10_eigen_sum_cancellation_vs_singular():
    hop = CoefficientOperator({(0, 1): 1.0, (1, 0): 1.0})
    weighted = weighted_product(hop, "left", 0.0, None, s=1.0)
    eigen = collect_spectrum(weighted, m_max=2000, n_max=2, kind="eigen")
    singular = collect_spectrum(weighted, m_max=2000, n_max=2,
                                kind="singular")

    # Oracle first: each degeneracy block is [[0, 1/(m+1)], [1/(m+2), 0]]
    # with eigenvalues +-((m+1)(m+2))^(-1/2) and singular values 1/(m+1)
    # and 1/(m+2), so both spectra have closed forms.
    m = np.arange(0, 2001, dtype=float)
    eigen_closed = np.sort(np.repeat(1.0 / np.sqrt((m + 1.0) * (m + 2.0)),
                                     2))[::-1]
    singular_closed = np.sort(np.concatenate([1.0 / (m + 1.0),
                                              1.0 / (m + 2.0)]))[::-1]
    assert np.allclose(np.abs(eigen.values), eigen_closed, rtol=1e-12, atol=0.0)
    assert np.allclose(singular.values, singular_closed, rtol=1e-12, atol=0.0)

    # Even checkpoints hold complete +- pairs, so the signed partial sums
    # cancel exactly while the singular sums keep growing like log N.
    checkpoints = [128, 256, 512, 1024, 2048, 4000]
    eigen_table = dixmier_estimate(eigen, checkpoints)
    singular_table = dixmier_estimate(singular, checkpoints)
    eigen_limit = abs(complex(eigen_table.extrapolated))
    singular_limit = complex(singular_table.extrapolated).real
    singular_last = complex(singular_table.raw[-1]).real
    ok = eigen_limit <= 1e-6 and singular_limit >= 0.5 and singular_last >= 0.5
    _report("criterion 10", ok,
            "eigen-sum limit %.1e <= 1e-6, singular estimate %.2f and "
            "last gamma %.2f stay away from 0"
            % (eigen_limit, singular_limit, singular_last))
    assert eigen_limit <= 1e-6
    assert singular_limit >= 0.5
    assert singular_last >= 0.5
