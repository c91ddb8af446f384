"""Dixmier trace estimation from partial sums of singular values."""

import math
import tracemalloc

import numpy as np
import pytest

from magtrace import (
    CoefficientOperator,
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
    seq = Spectrum(np.array([-0.5, 3.0, 0.25, -1.0, 1.0]), "mixed", "eigen")
    assert seq.values.dtype == float
    # a tie in modulus is broken toward the positive value
    assert list(seq.values) == [3.0, 1.0, -1.0, -0.5, 0.25]
    # complex input whose imaginary parts vanish is held as real
    tie = Spectrum(np.array([-2.0 + 0.0j, 2.0 + 0.0j]), "tie", "eigen")
    assert tie.values.dtype == float
    assert list(tie.values) == [2.0, -2.0]
    # the sign bit breaks the tie of +0.0 and -0.0, whatever the input order
    zeros = Spectrum(np.array([-0.0, 1.0, 0.0, -0.0]), "zeros", "eigen")
    assert list(np.signbit(zeros.values)) == [False, False, True, True]


def _lexsort_order(values):
    """The eigen order as a stable lexsort: modulus, then value, then sign bit."""
    return np.lexsort((np.signbit(values), -values, -np.abs(values)))


@pytest.mark.parametrize("seed", range(6))
def test_eigen_order_matches_the_lexsort_rule(seed):
    rng = np.random.default_rng([seed, 15])
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, size=300)
    signed = magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size)
    tiny = np.array([5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 0.0, -0.0])
    small = rng.integers(-3, 4, size=60).astype(float)
    # ties in modulus, repeated values, subnormals and signed zeros
    values = np.concatenate([signed, -signed[:80], rng.choice(signed, 80), tiny, small])
    values = rng.permutation(values)
    spec = Spectrum(values, "mixed", "eigen")
    expected = values[_lexsort_order(values)]
    assert np.array_equal(spec.values, expected)
    assert np.array_equal(np.signbit(spec.values), np.signbit(expected))
    # without zeros the sign-bit key changes nothing in the plain lexsort rule
    nonzero = values[values != 0.0]
    plain = nonzero[np.lexsort((-nonzero, -np.abs(nonzero)))]
    assert np.array_equal(Spectrum(nonzero, "nonzero", "eigen").values, plain)
    # an eigen run spectrum keeps each count with its value
    counts = rng.permutation(values.size) + 1
    runs = Spectrum(values, "runs", "eigen", counts=counts)
    order = _lexsort_order(values)
    assert np.array_equal(runs.counts, counts[order])
    assert np.array_equal(np.signbit(runs.values), np.signbit(values[order]))
    assert np.array_equal(runs.values, values[order])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ("singular", "eigen"))
@pytest.mark.parametrize("values,match", [
    pytest.param([1.0, np.nan], "finite", id="nan"),
    pytest.param([np.inf, 1.0], "finite", id="inf"),
    pytest.param([-np.inf], "finite", id="-inf"),
    pytest.param(np.array([np.nan + 0.0j]), "finite|real", id="complex-nan"),
    pytest.param(["1.5", "2"], "real numbers", id="strings"),
    pytest.param([True, False], "real numbers", id="booleans"),
    pytest.param([1.0, None], "real numbers", id="object"),
    pytest.param([[1.0, 0.5]], "1-D", id="2-d"),
    pytest.param(1.0, "1-D", id="scalar"),
])
def test_spectrum_refuses_values_that_are_not_finite_reals(kind, values, match):
    with pytest.raises(DomainError, match=match):
        Spectrum(values, "refused", kind)


@pytest.mark.filterwarnings("error")
def test_singular_spectrum_refuses_complex_values():
    # the imaginary part used to be dropped with a ComplexWarning
    for values in (np.array([1.0 + 1.0j, 2.0]), np.array([1.0 + 0.0j, 2.0])):
        with pytest.raises(DomainError, match="real numbers"):
            Spectrum(values, "complex")
    with pytest.raises(DomainError, match="real eigenvalues"):
        Spectrum(np.array([1.0 + 1.0j, 2.0]), "complex", "eigen")


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


def _assert_eigen_refused(entries):
    wp = weighted_product(CoefficientOperator(entries), "left", 0.0)
    with pytest.raises(DomainError, match="Hermitian source"):
        collect_spectrum(wp, m_max=2, n_max=2, kind="eigen")
    # the entries are checked before the memory budget is
    with pytest.raises(DomainError, match="Hermitian source"):
        collect_spectrum(wp, m_max=10 ** 9, n_max=2, kind="eigen")
    # singular values need no symmetry
    assert len(collect_spectrum(wp, m_max=2, n_max=2)) == 6


def test_collect_spectrum_non_diagonalizable_block():
    # a one-sided source has non-diagonalizable blocks; it is refused as
    # non-Hermitian before any block is factored
    _assert_eigen_refused({(0, 1): 1.0})


def test_eigen_partial_sums_reject_imaginary_drift():
    # an anti-Hermitian source has imaginary eigenvalues; it is refused
    # before summation, and so is a spectrum holding such a value
    _assert_eigen_refused({(0, 1): 1.0, (1, 0): -1.0})
    with pytest.raises(DomainError):
        Spectrum(np.array([1.0, 1j]), "imaginary", kind="eigen")


def test_eigen_spectra_refuse_non_hermitian_sources():
    _assert_eigen_refused({(0, 0): 1j})
    # only the truncated source has to be Hermitian
    beyond = CoefficientOperator({(0, 0): 1.0, (0, 5): 1.0})
    spec = collect_spectrum(weighted_product(beyond, "left", 0.0), m_max=2, n_max=2,
                            kind="eigen")
    assert spec.values.dtype == float


@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_eigen_spectrum_matches_general_eig_of_the_weighted_blocks(form):
    rng = np.random.default_rng(2024)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + h.conj().T
    source = CoefficientOperator({(j, k): h[j, k] for j in range(6) for k in range(6)})
    lam, lam2, m_max = -0.5, 10.0, 7
    spectrum = collect_spectrum(weighted_product(source, form, lam, lam2), m_max, 6, "eigen")

    # the explicit, non-symmetrised blocks A S B, with block entry (n, n') = a_{n'n}
    n = np.arange(6.0)
    m = np.arange(m_max + 2.0)[:, None]
    w, w2, ones = 1.0 / (n + m + 1.0 + lam), 1.0 / (n + m + 1.0 + lam2), np.ones((m_max + 2, 6))
    a, b = {"left": (w, ones), "right": (ones, w), "split": (np.sqrt(w), np.sqrt(w2))}[form]
    blocks = a[:, :, None] * h.T * b[:, None, :]
    expected = np.linalg.eigvals(blocks[:-1]).ravel()
    scale = np.abs(expected).max()
    assert np.abs(expected.imag).max() <= 1e-12 * scale
    assert spectrum.values.dtype == float
    assert np.abs(np.sort(spectrum.values) - np.sort(expected.real)).max() <= 1e-12 * scale
    # the reliable prefix stops at the 2-norm of the form's own frontier
    # block; at this small m_max the symmetrised block would admit more
    threshold = np.linalg.norm(blocks[-1], ord=2)
    assert spectrum.reliable == np.count_nonzero(np.abs(spectrum.values) > threshold)
    root = np.sqrt(a[-1] * b[-1])
    symmetrised = np.linalg.norm(root[:, None] * h.T * root[None, :], ord=2)
    assert spectrum.reliable < np.count_nonzero(np.abs(spectrum.values) > symmetrised)

    # hopping eigenvalues come in exact +- pairs, each sorted positive first
    hop = CoefficientOperator({(0, 1): 0.6 - 0.8j, (1, 0): 0.6 + 0.8j})
    pairs = collect_spectrum(weighted_product(hop, form, lam, lam2), 255, 2, "eigen").values
    assert np.all(pairs[0::2] > 0.0)
    assert np.array_equal(pairs[1::2], -pairs[0::2])


@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_singular_spectrum_is_the_svd_of_the_explicit_blocks(form):
    rng = np.random.default_rng(2025)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    source = CoefficientOperator({(j, k): h[j, k] for j in range(6) for k in range(6)})
    lam, lam2, m_max = -0.5, 10.0, 63
    spectrum = collect_spectrum(weighted_product(source, form, lam, lam2), m_max, 6)

    # the blocks A S B written out, with block entry (n, n') = a_{n'n}
    n = np.arange(6.0)
    m = np.arange(m_max + 2.0)[:, None]
    w, w2 = DiagonalWeight(1.0, lam).value(n, m), DiagonalWeight(1.0, lam2).value(n, m)
    ones = np.ones((m_max + 2, 6))
    a, b = {"left": (w, ones), "right": (ones, w), "split": (np.sqrt(w), np.sqrt(w2))}[form]
    blocks = a[:, :, None] * h.T * b[:, None, :]
    expected = np.sort(np.linalg.svd(blocks[:-1], compute_uv=False).ravel())[::-1]
    assert np.array_equal(spectrum.values, expected)
    threshold = np.linalg.norm(blocks[-1], ord=2)
    assert spectrum.reliable == np.count_nonzero(expected > threshold)
    assert 0 < spectrum.reliable < len(spectrum)


@pytest.mark.parametrize("kind", ("singular", "eigen"))
@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_weighted_stack_stays_within_its_memory_estimate(form, kind):
    # a dense source is factored as one block stack: every form and kind
    # holds it once, within the check_memory estimate unit * (1 + n_max)
    rng = np.random.default_rng(16)
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = h + h.conj().T
    source = CoefficientOperator({(j, k): h[j, k] for j in range(16) for k in range(16)})
    product = weighted_product(source, form, 0.0, 1.0)
    m_max, n_max = 4095, 16
    estimate = 16 * (m_max + 2) * n_max * (1 + n_max)
    tracemalloc.start()
    try:
        collect_spectrum(product, m_max, n_max, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * estimate


@pytest.mark.parametrize("kind", ("singular", "eigen"))
@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_diagonal_spectrum_stays_within_its_memory_estimate(form, kind):
    # the landau-dos shape: 11 signed levels, one of them 0, at m_max 32767;
    # the weighted diagonal is real for both kinds, and the estimate
    # 3 * unit + 16 * n_max**2 still counts it as complex
    levels = np.linspace(-1.0, 1.0, 11)
    levels[4] = 0.0
    source = CoefficientOperator({(j, j): float(v) for j, v in enumerate(levels)})
    product = weighted_product(source, form, 0.0, 1.0)
    m_max, n_max = 32767, 11
    estimate = 3 * 16 * (m_max + 2) * n_max + 16 * n_max ** 2
    tracemalloc.start()
    try:
        spectrum = collect_spectrum(product, m_max, n_max, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spectrum) == (m_max + 1) * n_max
    assert peak <= estimate


@pytest.mark.parametrize("kind", ("singular", "eigen"))
def test_split_weights_take_their_roots_in_place(kind):
    # the split form holds its two real weight arrays (one unit) and one
    # real weighted diagonal (half a unit), not a second copy of the
    # weights for their square roots (2.05 units)
    levels = np.linspace(-1.0, 1.0, 11)
    levels[4] = 0.0
    source = CoefficientOperator({(j, j): float(v) for j, v in enumerate(levels)})
    product = weighted_product(source, "split", -0.5, 2.0)
    m_max, n_max = 32767, 11
    unit = 16 * (m_max + 2) * n_max
    collect_spectrum(product, 8, n_max, kind)  # first-call imports
    tracemalloc.start()
    try:
        collect_spectrum(product, m_max, n_max, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * unit


def test_shell_spectrum_multiplicities():
    weight = DiagonalWeight.q_power(1.0, 0.0)
    spec = shell_spectrum(weight, 4)
    assert len(spec) == 10
    # shell 3 is one run: the value 1/3 with count 3
    assert spec.values[2] == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert spec.counts[2] == 3
    assert list(spec.counts) == [1, 2, 3, 4]
    assert (spec.tail.s, spec.tail.shift, spec.tail.start) == (1.0, 0.0, 5)
    assert spec.reliable == 10
    with pytest.raises(DomainError):
        shell_spectrum(weight, 0)


def test_run_spectrum_validation():
    values = np.array([0.25, 1.0, 0.5])
    runs = Spectrum(values, "runs", counts=[3, 1, 2])
    assert list(runs.values) == [1.0, 0.5, 0.25]
    assert list(runs.counts) == [1, 2, 3]
    assert runs.counts.dtype == np.int64
    assert len(runs) == 6
    # integral floats are accepted and held as integers
    assert list(Spectrum(values, "float counts", counts=[3.0, 1.0, 2.0]).counts) == [1, 2, 3]
    for counts in ([[3, 1, 2]], [3, 1], [3, 1, 2, 1], [3, 2.5, 2], [3, 0, 2], [3, -1, 2],
                   [3, np.inf, 2], [3, np.nan, 2], [True, True, True], ["3", "1", "2"],
                   [2 ** 62, 2 ** 62, 1]):
        with pytest.raises(DomainError, match="run counts"):
            Spectrum(values, "bad counts", counts=counts)
    with pytest.raises(DomainError, match="non-negative"):
        Spectrum(np.array([1.0, -0.5]), "negative run", counts=[1, 2])
    # an eigen run spectrum is ordered by the permutation of a flat one
    eigen = Spectrum(np.array([-0.5, 3.0, 0.25, -1.0, 1.0]), "mixed runs", "eigen",
                     counts=[1, 2, 3, 4, 5])
    assert list(eigen.values) == [3.0, 1.0, -1.0, -0.5, 0.25]
    assert list(eigen.counts) == [2, 5, 4, 1, 3]
    flat = Spectrum(np.repeat(eigen.values, eigen.counts), "mixed", "eigen")
    for n in range(1, len(flat) + 1):
        assert sigma_p(eigen, n) == pytest.approx(sigma_p(flat, n), rel=1e-15, abs=1e-15)
    assert tauberian_zeta(eigen, 0.5) == pytest.approx(tauberian_zeta(flat, 0.5), rel=1e-15)


@pytest.mark.parametrize("lam", [-0.5, 0.0, 2.0])
@pytest.mark.parametrize("shells", [1, 4, 64])
def test_shell_runs_match_the_expanded_spectrum(shells, lam):
    runs = shell_spectrum(DiagonalWeight.q_power(2.0, lam), shells)
    flat = Spectrum(np.repeat(runs.values, runs.counts), "expanded", tail=runs.tail)
    assert len(runs) == len(flat) == runs.reliable == shells * (shells + 1) // 2
    # every N, inside runs and at their ends
    for n in range(1, len(flat) + 1):
        assert sigma_p(runs, n) == pytest.approx(sigma_p(flat, n), rel=1e-13)
        if n >= 2:
            assert gamma(runs, n) == pytest.approx(gamma(flat, n), rel=1e-13)
    with pytest.raises(RangeError):
        sigma_p(runs, len(flat) + 1)
    if shells >= 4:
        on_shells = shell_checkpoints(shells, min_shell=2)
        off_shells = [n + 1 for n in on_shells[:-1]] + [on_shells[-1] - 1]
        for ladder in (on_shells, off_shells):
            got, want = dixmier_estimate(runs, ladder), dixmier_estimate(flat, ladder)
            assert np.allclose(got.raw, want.raw, rtol=1e-13, atol=0.0)
            assert got.extrapolated == pytest.approx(want.extrapolated, rel=1e-13)
    for x in (0.5, 0.1, 0.01):
        assert tauberian_zeta(runs, x) == pytest.approx(tauberian_zeta(flat, x), rel=1e-13)


def test_shell_route_checks_the_memory_budget():
    # refused at once, before anything sized by the shells is allocated
    with pytest.raises(ResourceError, match="shell spectrum"):
        shell_spectrum(DiagonalWeight.q_power(2.0), 10 ** 8)
    # a run spectrum of 10^5 shells stores 10^5 values but holds 5 * 10^9
    spec = shell_spectrum(DiagonalWeight.q_power(2.0), 10 ** 5)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="Calderon"):
            calderon_norm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_shell_route_stays_small():
    # the criterion 4 route holds arrays of the shells, not of their
    # 2 001 000 elements (16 MB each)
    checkpoints = shell_checkpoints(2000, points=6, min_shell=512)
    weight = DiagonalWeight.q_power(2.0, 2.0)
    dixmier_estimate(shell_spectrum(weight, 2000), checkpoints)  # first-call imports
    tracemalloc.start()
    try:
        spec = shell_spectrum(weight, 2000)
        dixmier_estimate(spec, checkpoints)
        tauberian_residue(spec, X_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_shell_gamma_column_matches_harmonic_sums():
    # at lam = 0, sigma_N over the complete shells 1 .. e is the harmonic sum H_e
    checkpoints = shell_checkpoints(2000, points=6, min_shell=512)
    table = dixmier_estimate(shell_spectrum(DiagonalWeight.q_power(2.0, 0.0), 2000),
                             checkpoints)
    for n, value in zip(checkpoints, table.raw):
        e = (math.isqrt(8 * n + 1) - 1) // 2
        assert e * (e + 1) // 2 == n
        oracle = math.fsum(1.0 / k for k in range(1, e + 1)) / math.log(n)
        assert value == pytest.approx(oracle, rel=1e-14)


def test_sigma_and_gamma():
    spec = harmonic_spectrum(10000)
    assert sigma_p(spec, 4) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0 + 0.25, rel=1e-15)
    oracle = math.fsum(1.0 / k for k in range(1, 10001)) / math.log(10000.0)
    assert gamma(spec, 10000) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(RangeError):
        sigma_p(spec, 10001)
    with pytest.raises(DomainError):
        sigma_p(spec, 0)
    with pytest.raises(DomainError):
        gamma(spec, 1)


def test_gamma_reads_the_estimate_rows():
    # gamma and dixmier_estimate share one partial-sum path: equal bits
    singular = harmonic_spectrum(4000)
    hop = CoefficientOperator({(0, 1): 0.5, (1, 0): 0.5, (1, 1): -0.25})
    eigen = collect_spectrum(weighted_product(hop, "left", 0.0), m_max=255, n_max=2,
                             kind="eigen")
    for spec in (singular, eigen):
        ladder = checkpoint_ladder(spec)
        table = dixmier_estimate(spec, ladder)
        assert list(table.raw) == [gamma(spec, n) for n in ladder]


def test_calderon_norm_single_atom():
    spec = Spectrum(np.array([5.0, 0.0, 0.0]), "atom")
    assert calderon_norm(spec) == pytest.approx(5.0 / math.log(2.0), rel=1e-14)
    with pytest.raises(DomainError):
        calderon_norm(Spectrum(np.array([1.0]), "too short"))


@pytest.mark.filterwarnings("error")
def test_partial_sums_of_an_eigen_spectrum_are_real():
    # gamma sums signed real eigenvalues, as dixmier_estimate does, with no
    # ComplexWarning for complex input whose imaginary parts vanish
    spec = Spectrum(np.array([1.0, 0.5 + 0.0j, -0.25, 0.125 - 0.0j]), "eigen", kind="eigen")
    assert sigma_p(spec, 4) == 1.375
    assert isinstance(sigma_p(spec, 4), float)
    assert gamma(spec, 3) == pytest.approx(1.25 / math.log(3.0), rel=1e-15)
    # an eigenvalue off the real axis is refused when the spectrum is built
    with pytest.raises(DomainError, match="real eigenvalues"):
        Spectrum([1, 0.5 + 1e-3j], "drifting", kind="eigen")
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
    with pytest.raises(DomainError, match="distinct"):
        dixmier_estimate(spec, (10, 100, 100, 1000))
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
