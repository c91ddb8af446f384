"""Dixmier trace estimation from partial sums of singular values."""

import math

import numpy as np
import pytest

from magtrace import (
    CoefficientOperator,
    ComputationError,
    DiagonalWeight,
    DomainError,
    RangeError,
    ResourceError,
    Spectrum,
    adjoint,
    calderon_norm,
    checkpoint_ladder,
    collect_spectrum,
    compose,
    deep_ladder,
    dixmier_estimate,
    gamma,
    hurwitz_zeta,
    shell_checkpoints,
    shell_spectrum,
    sigma_p,
    tau_diagonal,
    tauberian_residue,
    tauberian_zeta,
    weighted_product,
)
from magtrace.dixmier import SpectralTail

X_GRID = (1e-1, 1e-2, 1e-3)


def harmonic_spectrum(count):
    return Spectrum(1.0 / np.arange(1, count + 1, dtype=float),
                            "harmonic sequence")


def test_singular_spectrum_sorts_and_validates():
    spec = Spectrum(np.array([0.5, 2.0, 1.0]), "scrambled")
    assert np.array_equal(spec.values, [2.0, 1.0, 0.5])
    assert len(spec) == 3
    with pytest.raises(DomainError):
        Spectrum(np.array([1.0, -0.5]), "negative")
    with pytest.raises(DomainError):
        Spectrum(np.array([1.0]), "bogus kind", kind="bogus")


def test_eigen_sequence_orders_by_modulus():
    seq = Spectrum(np.array([1.0 - 1.0j, 3.0, -0.5j, 1.0 + 1.0j]), "mixed", "eigen")
    assert seq.values[0] == 3.0
    assert abs(seq.values[1]) == pytest.approx(math.sqrt(2.0))
    # tie in modulus is broken toward the larger imaginary part
    assert seq.values[1] == 1.0 + 1.0j
    assert seq.values[-1] == -0.5j


def test_spectral_tail_power_sums():
    shell = SpectralTail(s=2.0, shift=0.0, start=5)
    assert shell.power_sum(2.0) == pytest.approx(hurwitz_zeta(3.0, 5.0), rel=1e-14)
    with pytest.raises(DomainError):
        SpectralTail(s=2.0, shift=0.0, start=5).power_sum(1.0)


def test_collect_spectrum_offdiagonal_closed_form():
    # each block is antidiagonal with entries 1/(m+1) and 1/(m+2), so the
    # singular values and eigenvalues are known in closed form
    src = CoefficientOperator({(0, 1): 1.0, (1, 0): 1.0})
    wp = weighted_product(src, "left", 0.0)
    spec = collect_spectrum(wp, m_max=5, n_max=2)
    expected = sorted([1.0 / (m + 1.0) for m in range(6)]
                      + [1.0 / (m + 2.0) for m in range(6)], reverse=True)
    assert np.allclose(spec.values, expected, rtol=1e-13)
    assert spec.reliable == 11

    eigen = collect_spectrum(wp, m_max=5, n_max=2, kind="eigen")
    moduli = np.abs(eigen.values)
    expected_mod = np.repeat([((m + 1.0) * (m + 2.0)) ** -0.5 for m in range(6)], 2)
    assert np.allclose(moduli, expected_mod, rtol=1e-12)
    pair_sums = eigen.values[0::2] + eigen.values[1::2]
    assert np.abs(pair_sums).max() <= 1e-12


def test_collect_spectrum_validation():
    wp = weighted_product(CoefficientOperator.projection(0), "left", 0.0)
    with pytest.raises(DomainError, match="spectrum kind"):
        collect_spectrum(wp, m_max=3, n_max=4, kind="bogus")
    with pytest.raises(DomainError, match="truncation"):
        collect_spectrum(wp, m_max=-1, n_max=4)
    with pytest.raises(DomainError, match="truncation"):
        collect_spectrum(wp, m_max=3, n_max=0)
    for op in (CoefficientOperator.projection(0), DiagonalWeight.q_power(1.0, 0.0)):
        with pytest.raises(DomainError, match="expects a WeightedProduct"):
            collect_spectrum(op, m_max=3, n_max=4)
    # the dense block stack is refused before it is allocated
    wide = weighted_product(CoefficientOperator({(0, 1): 1.0, (3000, 3000): 1.0}), "left", 0.0)
    with pytest.raises(ResourceError):
        collect_spectrum(wide, m_max=10, n_max=3001)


def test_collect_spectrum_non_diagonalizable_block():
    src = CoefficientOperator({(0, 1): 1.0})
    wp = weighted_product(src, "left", 0.0)
    with pytest.raises(ComputationError, match="block m=0 is numerically non-diagonalizable"):
        collect_spectrum(wp, m_max=2, n_max=2, kind="eigen")


def test_eigen_partial_sums_reject_imaginary_drift():
    src = CoefficientOperator({(0, 1): 1.0, (1, 0): -1.0})
    wp = weighted_product(src, "left", 0.0)
    spec = collect_spectrum(wp, m_max=4, n_max=2, kind="eigen")
    with pytest.raises(ComputationError, match="imaginary drift"):
        dixmier_estimate(spec, (2, 3, 4))


def test_shell_spectrum_multiplicities():
    weight = DiagonalWeight.q_power(1.0, 0.0)
    spec = shell_spectrum(weight, 4)
    assert len(spec) == 10
    assert np.count_nonzero(np.isclose(spec.values, 1.0 / 3.0, rtol=1e-13)) == 3
    assert (spec.tail.s, spec.tail.shift, spec.tail.start) == (1.0, 0.0, 5)
    assert spec.reliable == 10
    with pytest.raises(DomainError):
        shell_spectrum(weight, 0)


def test_sigma_and_gamma():
    spec = harmonic_spectrum(10000)
    assert sigma_p(spec, 4) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0 + 0.25, rel=1e-15)
    oracle = math.fsum(1.0 / k for k in range(1, 10001)) / math.log(10000.0)
    assert gamma(spec, 10000) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(RangeError):
        sigma_p(spec, 10001)
    with pytest.raises(DomainError):
        gamma(spec, 1)


def test_calderon_norm_single_atom():
    spec = Spectrum(np.array([5.0, 0.0, 0.0]), "atom")
    assert calderon_norm(spec) == pytest.approx(5.0 / math.log(2.0), rel=1e-14)
    with pytest.raises(DomainError):
        calderon_norm(Spectrum(np.array([1.0]), "too short"))


@pytest.mark.filterwarnings("error")
def test_partial_sums_of_an_eigen_spectrum_are_real():
    # gamma sums the real parts after the drift check, as dixmier_estimate does,
    # with no ComplexWarning for a discarded imaginary part
    spec = Spectrum(np.array([1.0, 0.5 + 1e-13j, -0.25, 0.125 - 1e-13j]), "eigen", kind="eigen")
    assert sigma_p(spec, 4) == 1.375
    assert isinstance(sigma_p(spec, 4), float)
    assert gamma(spec, 3) == pytest.approx(1.25 / math.log(3.0), rel=1e-15)
    drifting = Spectrum(np.array([1.0, 0.5 + 1e-3j, 0.25]), "drifting", kind="eigen")
    with pytest.raises(ComputationError, match="imaginary drift"):
        gamma(drifting, 3)
    # the Calderon norm is a supremum over singular values only
    with pytest.raises(DomainError, match="singular values"):
        calderon_norm(spec)


def test_checkpoint_ladder_shape():
    spec = harmonic_spectrum(10000)
    ladder = checkpoint_ladder(spec)
    assert ladder[0] == 32
    assert ladder[-1] == 10000
    assert ladder == sorted(ladder)
    assert len(ladder) <= 6
    capped = Spectrum(spec.values, "capped", reliable=50)
    assert checkpoint_ladder(capped)[-1] == 50
    # the deep ladder starts at the top eighth of the reliable prefix
    assert deep_ladder(spec)[0] == 10000 // 8
    assert deep_ladder(spec)[-1] == 10000
    assert len(deep_ladder(spec)) == 6
    assert deep_ladder(capped) == [6, 9, 14, 21, 32, 50]
    with pytest.raises(DomainError):
        checkpoint_ladder(Spectrum(np.array([1.0, 0.5, 0.25]), "short"))


def test_shell_checkpoints():
    cps = shell_checkpoints(64)
    assert cps[0] == 8 * 9 // 2
    assert cps[-1] == 64 * 65 // 2
    with pytest.raises(DomainError):
        shell_checkpoints(4)


def test_dixmier_estimate_harmonic():
    spec = harmonic_spectrum(100000)
    table = dixmier_estimate(spec, checkpoint_ladder(spec))
    assert abs(table.extrapolated - 1.0) <= 1e-2
    assert table.converged
    with pytest.raises(DomainError):
        dixmier_estimate(spec, (10, 100))
    with pytest.raises(DomainError):
        dixmier_estimate(spec, (1, 10, 100))
    with pytest.raises(RangeError):
        dixmier_estimate(spec, (10, 100, 200000))


def test_dixmier_inverse_square_oscillator():
    # whole-shell partial sums of the inverse square of the shifted
    # oscillator approach one half
    weight = DiagonalWeight.q_power(2.0, 0.0)
    spec = shell_spectrum(weight, 256)
    table = dixmier_estimate(spec, shell_checkpoints(256))
    assert abs(table.extrapolated - 0.5) <= 5e-3
    assert table.converged


def test_tauberian_zeta_is_riemann_zeta():
    # complete shells plus the analytic tail reproduce zeta(1 + 2x) exactly
    weight = DiagonalWeight.q_power(2.0, 0.0)
    spec = shell_spectrum(weight, 64)
    for x in (0.5, 0.1, 0.01):
        assert tauberian_zeta(spec, x) == pytest.approx(
            hurwitz_zeta(1.0 + 2.0 * x, 1.0), rel=1e-10)
    with pytest.raises(DomainError):
        tauberian_zeta(spec, 0.0)


def test_tauberian_residue_matches_dixmier():
    weight = DiagonalWeight.q_power(2.0, 0.0)
    spec = shell_spectrum(weight, 256)
    residue = tauberian_residue(spec, X_GRID)
    assert abs(residue.extrapolated - 0.5) <= 1e-5
    ladder = dixmier_estimate(spec, shell_checkpoints(256))
    assert abs(residue.extrapolated - ladder.extrapolated) <= 5e-3


def test_tauberian_residue_trace_class_vanishes():
    spec = Spectrum(2.0 ** -np.arange(60, dtype=float), "geometric")
    table = tauberian_residue(spec, X_GRID)
    assert abs(table.extrapolated) <= 1e-4
    with pytest.raises(DomainError):
        tauberian_residue(spec, (0.1, 0.01))
    with pytest.raises(DomainError):
        tauberian_residue(spec, (0.1, 0.01, -0.001))
    with pytest.raises(DomainError, match="distinct"):
        tauberian_residue(spec, (0.1, 0.1, 0.01))


def test_weighted_estimate_is_shift_and_form_independent():
    pi0 = CoefficientOperator.projection(0)
    results = {}
    for form in ("left", "right", "split"):
        for lam in (0.0, 0.7):
            wp = weighted_product(pi0, form, lam)
            spec = collect_spectrum(wp, m_max=2000, n_max=1)
            table = dixmier_estimate(spec, checkpoint_ladder(spec, minimum=64))
            results[(form, lam)] = table.extrapolated
            assert abs(table.extrapolated - 1.0) <= 2e-2
    for lam in (0.0, 0.7):
        assert abs(results[("left", lam)] - results[("right", lam)]) <= 1e-9
        assert abs(results[("left", lam)] - results[("split", lam)]) <= 1e-9


def test_trace_ideal_evidence():
    # the composition of two square-summable families lands in the trace
    # ideal and the weighted partial-sum route approximates its trace
    a = CoefficientOperator({(n, n): (n + 1.0) ** -0.75 for n in range(4)}, "L2")
    s = compose(adjoint(a), a)
    assert s.declared_class == "Itau"
    wp = weighted_product(s, "left", 0.0)
    spec = collect_spectrum(wp, m_max=4095, n_max=4)
    table = dixmier_estimate(spec, checkpoint_ladder(spec, minimum=64))
    assert abs(table.extrapolated - tau_diagonal(s).real) <= 0.1
