"""Dixmier trace estimation from partial sums of singular values."""

import heapq
import itertools
import math
import sys
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
from magtrace import dixmier, errors
from magtrace.dixmier import LevelSpectrum, ShellSpectrum, _geometric_ladder, _order
from magtrace.extrapolate import log_inverse_table
from magtrace.operators import inverse_weight
from conftest import random_operator

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
    tie = Spectrum(np.array([-2.0, 2.0]), "tie", "eigen")
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


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
               2.0, -2.0, -2.0, 2.0, 1.5, -0.75, 0.75, -0.0, 0.0]


def test_eigen_keys_decode_to_the_same_bits_in_eigen_order():
    # keys, sorted and decoded in place, give back every value bit for bit,
    # signed zeros and the extreme doubles included, +v before -v
    values = np.array(EDGE_VALUES)
    key = dixmier._eigen_keys(values)
    key.sort()
    decoded = dixmier._decode_keys(key)[::-1]
    expected = np.array(sorted(EDGE_VALUES, key=dixmier._order))
    assert decoded.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert list(decoded[:2]) == [np.finfo(float).max, -np.finfo(float).max]
    assert list(np.signbit(decoded[-4:])) == [False, False, True, True]


@pytest.mark.parametrize("kind", ("singular", "eigen"))
def test_spectrum_neither_changes_nor_shares_its_input(kind):
    values = np.abs(EDGE_VALUES) if kind == "singular" else np.array(EDGE_VALUES)
    before = values.copy()
    spectrum = Spectrum(values, "edge values", kind)
    assert values.view(np.uint64).tolist() == before.view(np.uint64).tolist()
    assert not np.shares_memory(spectrum.values, values)
    assert sorted(spectrum.values.view(np.uint64).tolist()) == sorted(
        before.view(np.uint64).tolist())


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
    # the imaginary part used to be dropped with a ComplexWarning; complex
    # input is refused in both kinds, even where every imaginary part is 0
    for values in (np.array([1.0 + 1.0j, 2.0]), np.array([1.0 + 0.0j, 2.0])):
        for kind in ("singular", "eigen"):
            with pytest.raises(DomainError, match="real numbers"):
                Spectrum(values, "complex", kind)


def test_collect_spectrum_offdiagonal_closed_form():
    # each block is antidiagonal with entries 1/(m+1) and 1/(m+2), so the
    # singular values and eigenvalues are known in closed form
    src = CoefficientOperator({(0, 1): 1.0, (1, 0): 1.0})
    wp = weighted_product(src, "left", 0.0)
    spec = collect_spectrum(wp, m_max=5, n_max=2)
    expected = sorted([1.0 / (m + 1.0) for m in range(6)]
                      + [1.0 / (m + 2.0) for m in range(6)], reverse=True)
    assert np.allclose(spec.values, expected, rtol=1e-13, atol=0.0)
    assert spec.reliable == 11

    eigen = collect_spectrum(wp, m_max=5, n_max=2, kind="eigen")
    moduli = np.abs(eigen.values)
    expected_mod = np.repeat([((m + 1.0) * (m + 2.0)) ** -0.5 for m in range(6)], 2)
    assert np.allclose(moduli, expected_mod, rtol=1e-12, atol=0.0)
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
    # a 3001x3001 block and the copy that LAPACK factors pass the limit:
    # refused before either is allocated
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
    assert np.asarray(spec.values).dtype == float


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
    assert np.asarray(spectrum.values).dtype == float
    assert np.abs(np.sort(spectrum.values) - np.sort(expected.real)).max() <= 1e-12 * scale
    # the reliable prefix stops at the 2-norm of the form's own frontier
    # block; at this small m_max the symmetrised block would admit more
    threshold = np.linalg.norm(blocks[-1], ord=2)
    assert spectrum.reliable == np.count_nonzero(np.abs(spectrum.values) > threshold)
    root = np.sqrt(a[-1] * b[-1])
    symmetrised = np.linalg.norm(root[:, None] * h.T * root[None, :], ord=2)
    assert spectrum.reliable < np.count_nonzero(np.abs(spectrum.values) > symmetrised)
    # and the values are, bit for bit, those of the symmetrised blocks
    roots = np.sqrt(a[:-1] * b[:-1])
    hermitian = roots[:, :, None] * h.T * roots[:, None, :]
    expected = Spectrum(np.linalg.eigvalsh(hermitian).ravel(), "explicit", "eigen")
    assert np.array_equal(spectrum.values, expected.values)

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
    w, w2 = inverse_weight(n + m, lam), inverse_weight(n + m, lam2)
    ones = np.ones((m_max + 2, 6))
    a, b = {"left": (w, ones), "right": (ones, w), "split": (np.sqrt(w), np.sqrt(w2))}[form]
    blocks = a[:, :, None] * h.T * b[:, None, :]
    expected = np.sort(np.linalg.svd(blocks[:-1], compute_uv=False).ravel())[::-1]
    assert np.array_equal(spectrum.values, expected)
    threshold = np.linalg.norm(blocks[-1], ord=2)
    assert spectrum.reliable == np.count_nonzero(expected > threshold)
    assert 0 < spectrum.reliable < len(spectrum)


# one block per slab, and three 6x6 blocks per slab, which divides
# neither the 8 blocks nor the 64 of the tests above
@pytest.mark.parametrize("slab_bytes", (1, 3 * 16 * 6 * 6), ids=("one-block", "three-blocks"))
@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_block_spectra_are_the_same_across_slab_boundaries(form, slab_bytes, monkeypatch):
    monkeypatch.setattr(dixmier, "BLOCK_SLAB_BYTES", slab_bytes)
    test_eigen_spectrum_matches_general_eig_of_the_weighted_blocks(form)
    test_singular_spectrum_is_the_svd_of_the_explicit_blocks(form)


def _dense_source(size, seed):
    """A dense Hermitian source of the given size."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    h = h + h.conj().T
    return CoefficientOperator({(j, k): h[j, k] for j in range(size) for k in range(size)})


def _traced_estimates(monkeypatch):
    """The sizes dixmier passes to check_memory, recorded as it checks them."""
    estimates = []
    check = dixmier.check_memory
    monkeypatch.setattr(dixmier, "check_memory",
                        lambda size, what: (estimates.append(size), check(size, what)))
    return estimates


@pytest.mark.parametrize("n_max,m_max", ((16, 4095), (40, 1023)), ids=("16x4096", "40x1024"))
@pytest.mark.parametrize("kind", ("singular", "eigen"))
@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_weighted_stack_stays_within_its_memory_estimate(form, kind, n_max, m_max, monkeypatch):
    # a dense source is factored slab by slab: every form and kind holds
    # the values, one sorted copy and one byte per value, or the values and
    # one slab, within the check_memory estimate, while the spectrum is
    # built, estimated and summed for the Tauberian zeta; at 40 x 40 the
    # truncated entries, were they held beside the sort, would pass it
    product = weighted_product(_dense_source(n_max, 16), form, 0.0, 1.0)
    warm = collect_spectrum(product, 7, n_max, kind)  # first-call imports
    tauberian_zeta(warm, 0.01)
    estimates = _traced_estimates(monkeypatch)
    tracemalloc.start()
    try:
        spectrum = collect_spectrum(product, m_max, n_max, kind)
        dixmier_estimate(spectrum, checkpoint_ladder(spectrum))
        tauberian_zeta(spectrum, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    # the values alone are 512 KiB and 320 KiB, one stack of the blocks
    # 17.8 MB and 26.8 MB
    assert 8 * len(spectrum) < peak <= estimates[0]
    assert estimates[0] <= 18 * len(spectrum) + dixmier.BLOCK_SLAB_BYTES


def test_slabs_admit_what_one_stack_would_not(monkeypatch):
    # one stack of a dense 16x16 source at m_max 4095 would need 17.8 MB,
    # over a 16 MiB limit; slab by slab it needs 1.2 MB and computes the
    # same values, and a depth whose values and their sorted copy pass the
    # limit stays refused
    product = weighted_product(_dense_source(16, 16), "split", 0.0, 1.0)
    expected = collect_spectrum(product, 4095, 16)
    monkeypatch.setattr(errors, "MEMORY_LIMIT_BYTES", 16 * 2 ** 20)
    spectrum = collect_spectrum(product, 4095, 16)
    assert np.array_equal(spectrum.values, expected.values)
    assert spectrum.reliable == expected.reliable
    with pytest.raises(ResourceError, match="block values"):
        collect_spectrum(product, 2 ** 16, 16)


@pytest.mark.parametrize("kind", ("singular", "eigen"))
@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_diagonal_spectrum_stays_within_its_memory_estimate(form, kind):
    # a diagonal source is read level by level: the spectrum, its deep
    # ladder, the estimate and the Tauberian zeta hold nothing sized by
    # m_max or n_max, so one small bound holds at any depth and index (the
    # landau-dos shape of 11 signed levels, one of them 0, and a pair of
    # tied levels at index 10^6)
    signed = {(j, j): float(v) for j, v in enumerate(np.linspace(-1.0, 1.0, 11)) if j != 4}
    far = {(10 ** 6, 10 ** 6): 1.0, (10 ** 6 + 1, 10 ** 6 + 1): -1.0}
    shapes = [(signed, 11, m_max) for m_max in (32767, 2 ** 30 - 1)]
    shapes += [(far, 10 ** 6 + 2, m_max) for m_max in (2047, 10 ** 8)]
    for entries, n_max, m_max in shapes:
        product = weighted_product(CoefficientOperator(entries), form, -0.5, 2.0)
        # the same reads before tracing: first-call imports, and the
        # Euler-Maclaurin cache of the Hurwitz sums filled at this shape
        spectrum = collect_spectrum(product, m_max, n_max, kind)
        dixmier_estimate(spectrum, checkpoint_ladder(spectrum))
        tauberian_zeta(spectrum, 0.01)
        tracemalloc.start()
        try:
            spectrum = collect_spectrum(product, m_max, n_max, kind)
            dixmier_estimate(spectrum, checkpoint_ladder(spectrum))
            tauberian_zeta(spectrum, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spectrum) == (m_max + 1) * n_max
        assert peak <= 16 * 2 ** 10


def _weighted_diagonal(entries, form, lam, lam2, m_max, n_max, kind, levels=None):
    """The weighted diagonal of blocks m = 0 .. m_max + 1 as the block stack rounded it.

    Row n holds level levels[n] (every level below n_max by default).
    """
    n = np.arange(n_max, dtype=float) if levels is None else np.array(levels, dtype=float)
    d = np.array([entries.get((int(j), int(j)), 0.0) for j in n], dtype=complex)
    m = np.arange(m_max + 2, dtype=float)[:, None]
    w, w2 = (n + m + 1.0 + lam) ** -1.0, (n + m + 1.0 + lam2) ** -1.0
    ones = np.ones_like(w)
    row, col = {"left": (w, ones), "right": (ones, w), "split": (np.sqrt(w), np.sqrt(w2))}[form]
    data = row * (d.real if kind == "eigen" else np.abs(d))
    data *= col
    return data


def _sorted_like_the_spectrum(values, kind):
    return np.sort(values)[::-1] if kind == "singular" else values[_lexsort_order(values)]


LEVEL_SOURCES = {
    "signed": {(0, 0): 0.7, (2, 2): -0.4, (3, 3): 0.9, (5, 5): -0.3},
    "tied": {(0, 0): 1.0, (1, 1): 1.0},
    "opposite": {(0, 0): 1.0, (1, 1): -1.0, (2, 2): 0.5},
}


@pytest.mark.parametrize("shifts", [(-0.5, -0.5), (0.0, 0.0), (0.37, 2.0), (2.0, -0.5)])
@pytest.mark.parametrize("kind", ("singular", "eigen"))
@pytest.mark.parametrize("form", ("left", "right", "split"))
@pytest.mark.parametrize("source", sorted(LEVEL_SOURCES))
def test_level_spectrum_matches_the_materialized_diagonal(source, form, kind, shifts):
    # the values, their order and the reliable prefix keep their bits; the
    # closed-form sigma_N and Tauberian zeta match sums over the values
    entries, (lam, lam2) = LEVEL_SOURCES[source], shifts
    for m_max, extra in ((63, 0), (200, 2)):
        n_max = max(j for j, _ in entries) + 1 + extra
        spectrum = collect_spectrum(weighted_product(CoefficientOperator(entries), form,
                                                     lam, lam2), m_max, n_max, kind)
        assert isinstance(spectrum, LevelSpectrum)
        data = _weighted_diagonal(entries, form, lam, lam2, m_max, n_max, kind)
        expected = _sorted_like_the_spectrum(data[:-1].ravel(), kind)
        values = np.asarray(spectrum.values)
        assert values.dtype == float and len(spectrum) == expected.size
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        # the 2-norm of the diagonal frontier block is its largest modulus
        # (LAPACK's 2 x 2 formula could return it an ulp low, which counted
        # a value tied with it, as in the tied source, as reliable)
        threshold = np.abs(data[-1]).max()
        assert spectrum.reliable == np.count_nonzero(np.abs(expected) > threshold)
        exact = np.cumsum(expected.astype(np.longdouble))
        scale = np.cumsum(np.abs(expected).astype(np.longdouble))
        sums = [sigma_p(spectrum, n) for n in range(1, len(spectrum) + 1)]
        assert np.all(np.abs(np.array(sums, dtype=np.longdouble) - exact) <= 1e-14 * scale)
        for x in X_GRID:
            oracle = float(np.sum(np.abs(expected[expected != 0.0]) ** (1.0 + x)))
            assert tauberian_zeta(spectrum, x) == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("form", ("left", "right", "split"))
def test_level_spectrum_at_index_a_million(form):
    # two tied levels of opposite sign at n = 10^6 and 10^6 + 1, materialized
    # alone: about 2e9 zeros follow them, which sigma_N adds nothing for
    entries = {(10 ** 6, 10 ** 6): 1.0, (10 ** 6 + 1, 10 ** 6 + 1): -1.0}
    m_max, n_max, lam, lam2 = 2047, 10 ** 6 + 2, 0.37, 2.0
    spectrum = collect_spectrum(weighted_product(CoefficientOperator(entries), form,
                                                 lam, lam2), m_max, n_max, "eigen")
    data = _weighted_diagonal(entries, form, lam, lam2, m_max, n_max, "eigen",
                              levels=(10 ** 6, 10 ** 6 + 1))
    expected = _sorted_like_the_spectrum(data[:-1].ravel(), "eigen")
    assert len(spectrum) == (m_max + 1) * n_max
    assert spectrum.reliable == np.count_nonzero(np.abs(expected) > np.abs(data[-1]).max())
    exact = np.cumsum(expected.astype(np.longdouble))
    scale = np.cumsum(np.abs(expected).astype(np.longdouble))
    for n in list(range(1, 40)) + list(range(1000, expected.size + 1, 97)):
        assert abs(sigma_p(spectrum, n) - exact[n - 1]) <= 1e-14 * scale[n - 1]
    assert abs(sigma_p(spectrum, len(spectrum)) - exact[-1]) <= 1e-14 * scale[-1]
    oracle = float(np.sum(np.abs(expected) ** 1.01))
    assert tauberian_zeta(spectrum, 0.01) == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_level_spectrum_refusals():
    # values that overflow are refused, as a materialized spectrum refuses them
    huge = weighted_product(CoefficientOperator({(0, 0): 1e308}), "left", -0.999999)
    for kind in ("singular", "eigen"):
        with pytest.raises(DomainError, match="finite"):
            collect_spectrum(huge, 10, 1, kind)
    # finite levels whose l1 mass passes the largest double, in both kinds
    pair = weighted_product(CoefficientOperator({(0, 0): 1e308, (1, 1): 1e308}), "left", 0.0)
    for kind in ("singular", "eigen"):
        with pytest.raises(RangeError, match="largest double"):
            collect_spectrum(pair, 511, 2, kind)
    # more values than a length can count: pi0 at 10**30 shells
    pi0 = weighted_product(CoefficientOperator({(0, 0): 1.0}), "left", 0.0)
    with pytest.raises(RangeError, match="sys.maxsize"):
        collect_spectrum(pi0, 10 ** 30 - 1, 1)
    assert len(collect_spectrum(pi0, sys.maxsize - 1, 1)) == sys.maxsize
    # levels that hold no reliable value carry too much of the l1 mass
    far = weighted_product(CoefficientOperator({(0, 0): 1.0, (5000, 5000): 1.0}), "left", 0.0)
    with pytest.raises(RangeError, match="no value above the truncation frontier"):
        collect_spectrum(far, 511, 5001)
    # ... but a level whose weight lies within the converged tolerance is kept
    faint = {(j, j): 1.0 for j in range(4)}
    faint[(3000, 3000)] = 1e-3
    spectrum = collect_spectrum(weighted_product(CoefficientOperator(faint), "left", 0.0),
                                511, 3001, "eigen")
    assert spectrum.frontier_counts[-1] == 0 and spectrum.reliable > 0


def _merged_counts(spectrum, count):
    """Each level's share of the first count values of a brute-force merge of its runs."""
    end = spectrum.m_max + 1
    # each run a list: a generator in the comprehension would read the last level's n and a
    runs = [[(_order(spectrum._value(n, a, m)), i) for m in range(end)]
            for i, (n, a) in enumerate(spectrum.levels)]
    counts = [0] * len(runs)
    for _, i in itertools.islice(heapq.merge(*runs), count):
        counts[i] += 1
    return counts


def test_leading_counts_equal_a_merge_of_the_level_runs():
    # random level spectra, signed, with moduli shared across levels (so
    # values tie across levels), in every form and at shifts up to 100:
    # each level's share of the leading values is the brute-force merge's
    rng = np.random.default_rng(34)
    for trial in range(300):
        size = int(rng.integers(1, 9))
        ns = sorted(int(n) for n in rng.choice(40, size, replace=False))
        moduli = rng.choice([1.0, 0.5, 3.0, float(rng.uniform(0.01, 10.0))], size)
        levels = tuple((n, float(a * rng.choice([-1.0, 1.0]))) for n, a in zip(ns, moduli))
        lam, lam2 = (float(rng.choice([0.0, 1.0, rng.uniform(-0.99, 100.0)])) for _ in range(2))
        form = ("left", "right", "split")[trial % 3]
        m_max = int(rng.choice([0, 1, 7, int(rng.integers(0, 512)), 511]))
        spectrum = LevelSpectrum(levels, form, lam, lam2, m_max, ns[-1] + 1, "eigen")
        total = size * (m_max + 1)
        for count in {1, total // 3, total // 2, total - 1, total, int(rng.integers(1, total + 1))}:
            if count >= 1:
                assert spectrum._leading_counts(count) == _merged_counts(spectrum, count)


def test_leading_counts_at_a_depth_of_10_to_the_18():
    # at the first count a regula falsi step overshoots by one value and the
    # next rounds onto the bracket's end: that step is bisected, so the merge
    # takes a few values, not 1.25e17
    spectrum = LevelSpectrum(((0, 1.0),), "left", 0.0, 0.0, 10 ** 18 - 1, 1, "eigen")
    for count in (124999999999999976, 10 ** 18 - 1, 3):
        assert spectrum._leading_counts(count) == [count]


def test_leading_counts_when_the_first_threshold_is_short_of_the_count():
    # the second level underflows below 1e-300, so the first threshold is
    # 1 / 2e300: it passes only the first level's ten values, fewer than the
    # count, and the merge takes the other five without a regula falsi step
    spectrum = LevelSpectrum(((0, 1.0), (1, 1e-310)), "left", 0.0, 0.0, 9, 2, "eigen")
    assert spectrum._leading_counts(15) == _merged_counts(spectrum, 15) == [10, 5]


def test_the_split_head_is_bounded_by_the_count_and_the_work_limit():
    # at lambda2 = 1e308 the head's bound max(24, 4|d|) overflows: the
    # head is every value summed, not an OverflowError from ceil; its terms
    # are the values themselves, where the product (y + lam)(y + lam2) of
    # the shifted indices would overflow to inf and read 0; past the work
    # limit the head is refused before any term is summed
    for lam2 in (1e300, 1e308):
        spectrum = LevelSpectrum(((0, 1.0),), "split", 0.0, lam2, 10 ** 6, 1, "eigen")
        values = math.fsum(spectrum._value(0, 1.0, m) for m in range(10))
        assert spectrum.partial_sum(10) == values
        if lam2 == 1e308:
            # `dixmier gamma --op pi0 --N 10 --form split --lambda2 1e308`
            assert gamma(spectrum, 10) == 2.1805916813106242e-154
        assert math.isfinite(spectrum.partial_sum(errors.WORK_LIMIT_STEPS))
        with pytest.raises(ResourceError, match="direct head"):
            spectrum.partial_sum(errors.WORK_LIMIT_STEPS + 1)
        with pytest.raises(ResourceError, match="direct head"):
            spectrum.power_sum(1.01)


def test_left_and_right_level_spectra_hold_one_shift():
    # outside the split form lam2 is set to lam, as in WeightedProduct: a
    # spectrum built or replaced with another lam2 sums its own values, which
    # read lam alone (once lam2 moved its sums: 3.494 for the first 50 values'
    # 5.117, and 1.393 for the 1.5 power sum's 2.788)
    for form, lam in (("left", 0.0), ("right", 1.5)):
        spectrum = LevelSpectrum(((0, 1.0), (2, 0.5)), form, lam, 5.0, 99, 3, "singular")
        assert spectrum.lam2 == lam
        assert spectrum.replace(lam2=-0.5) == spectrum
        values = list(spectrum)
        for count in (1, 50, 150, len(values)):
            assert spectrum.partial_sum(count) == pytest.approx(math.fsum(values[:count]),
                                                                rel=1e-14, abs=0.0)
        for p in (1.5, 2.0, 3.0):
            assert spectrum.power_sum(p) == pytest.approx(math.fsum(abs(v) ** p for v in values),
                                                          rel=1e-14, abs=0.0)


def _geomspace_ladder(low, top, points):
    return sorted({int(n) for n in np.geomspace(low, top, points)})


def test_geometric_ladder_follows_geomspace():
    # the integer parts of numpy.geomspace on the pairs that the ladders use:
    # deep ladders (top // 8, top), fixed lowest checkpoints, shell ladders,
    # and power-of-two ratios that put steps on integers, such as (8, 256).
    # Elsewhere numpy's SIMD log10 can round apart from the C library's:
    # numpy puts (5, 160) at 39 and 79, the plain-Python ladder at 40 and 80
    assert _geometric_ladder(5, 160, 6) == [5, 10, 20, 40, 80, 160]
    pairs = [(max(2, top // 8), top, 6) for top in range(4, 6000)]
    pairs += [(low, top, 6) for low in (2, 8, 32, 64, 512) for top in range(low, 2500)]
    pairs += [(low, low * 2 ** k, points) for low in (1, 2, 4, 8, 16, 32, 64, 128, 512)
              for k in range(12) for points in (2, 3, 4, 6, 8)]
    assert _geometric_ladder(8, 256, 6) == [8, 16, 31, 63, 127, 256]
    assert [(low, top, points) for low, top, points in pairs
            if _geometric_ladder(low, top, points) != _geomspace_ladder(low, top, points)] == []


def test_shell_spectrum_multiplicities():
    weight = DiagonalWeight.q_power(1.0, 0.0)
    spec = shell_spectrum(weight, 4)
    # the shell type holds its three parameters, nothing sized by the shells
    assert isinstance(spec, ShellSpectrum)
    assert list(spec._fields) == ["s", "lam", "shells"]
    assert (spec.s, spec.lam, spec.shells, spec.kind) == (1.0, 0.0, 4, "singular")
    assert len(spec) == spec.reliable == 10
    assert shell_spectrum(weight, np.int64(4)) == spec
    # shell 3 holds the value 1/3 three times, at N = 4, 5, 6
    steps = [sigma_p(spec, n) - sigma_p(spec, n - 1) for n in range(2, 11)]
    assert steps == pytest.approx([1 / 2] * 2 + [1 / 3] * 3 + [1 / 4] * 4, rel=1e-13, abs=0.0)
    # the Calderon supremum needs the values, which a shell spectrum does not store
    with pytest.raises(DomainError, match="materialized"):
        calderon_norm(spec)


@pytest.mark.parametrize("call,args", [
    pytest.param(shell_spectrum, (DiagonalWeight.q_power(2.0), 2.5), id="shells-2.5"),
    pytest.param(shell_spectrum, (DiagonalWeight.q_power(2.0), 2.0), id="shells-2.0"),
    pytest.param(shell_spectrum, (DiagonalWeight.q_power(2.0), True), id="shells-true"),
    pytest.param(shell_spectrum, (DiagonalWeight.q_power(2.0), 0), id="shells-0"),
    pytest.param(shell_spectrum, (DiagonalWeight.q_power(2.0), -3), id="shells-negative"),
    pytest.param(shell_spectrum, (DiagonalWeight.q_power(2.0), "4"), id="shells-string"),
    pytest.param(shell_checkpoints, (10, 6, 0), id="min-shell-0"),
    pytest.param(shell_checkpoints, (10, 6, -2), id="min-shell-negative"),
    pytest.param(shell_checkpoints, (10, 0, 2), id="points-0"),
    pytest.param(shell_checkpoints, (10, 6.0, 2), id="points-float"),
    pytest.param(shell_checkpoints, (10.5, 6, 2), id="checkpoint-shells-10.5"),
    pytest.param(shell_checkpoints, (True, 6, 1), id="checkpoint-shells-true"),
])
def test_shell_inputs_are_validated(call, args):
    # refused, not rounded down, read as one shell or passed on to numpy
    with pytest.raises(DomainError, match="integer of at least 1"):
        call(*args)


def _expanded_shells(s, lam, shells):
    """The values of the first `shells` shells, each repeated e times."""
    return [(e + lam) ** -s for e in range(1, shells + 1) for _ in range(e)]


@pytest.mark.parametrize("lam", [-0.5, 0.0, 2.0])
@pytest.mark.parametrize("shells", [1, 4, 64])
def test_shell_runs_match_the_expanded_spectrum(shells, lam):
    # each shell is a run of e equal values; the closed form is checked
    # against math.fsum over the expanded values, plus the zeta tail
    for s in (0.5, 1.0, 2.0, 3.0):
        spec = shell_spectrum(DiagonalWeight.q_power(s, lam), shells)
        values = _expanded_shells(s, lam, shells)
        assert len(spec) == spec.reliable == len(values) == shells * (shells + 1) // 2
        # every N, inside shells and at their ends
        sums = [math.fsum(values[:n]) for n in range(1, len(values) + 1)]
        for n, oracle in enumerate(sums, start=1):
            assert sigma_p(spec, n) == pytest.approx(oracle, rel=1e-14, abs=0.0)
            if n >= 2:
                assert gamma(spec, n) == pytest.approx(oracle / math.log(n), rel=1e-14, abs=0.0)
        with pytest.raises(RangeError):
            sigma_p(spec, len(values) + 1)
        if shells >= 4:
            on_shells = shell_checkpoints(shells, min_shell=2)
            off_shells = [n + 1 for n in on_shells[:-1]] + [on_shells[-1] - 1]
            for ladder in (on_shells, off_shells):
                table = dixmier_estimate(spec, ladder)
                raw = [sums[n - 1] / math.log(n) for n in ladder]
                assert list(table.raw) == pytest.approx(raw, rel=1e-14, abs=0.0)
                assert table.extrapolated == pytest.approx(
                    log_inverse_table(ladder, raw).extrapolated, rel=1e-14, abs=0.0)
        q = shells + 1.0 + lam
        for x in (0.01, 0.1, 0.5, 1.5, 4.0):
            p = s * (1.0 + x)
            if p <= 2.0:
                # the sum over every shell diverges
                with pytest.raises(DomainError):
                    tauberian_zeta(spec, x)
                continue
            oracle = (math.fsum(v ** (1.0 + x) for v in values)
                      + hurwitz_zeta(p - 1.0, q) - lam * hurwitz_zeta(p, q))
            assert tauberian_zeta(spec, x) == pytest.approx(oracle, rel=1e-14, abs=0.0)


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
        assert value == pytest.approx(oracle, rel=1e-14, abs=0.0)


def test_sigma_and_gamma():
    spec = harmonic_spectrum(10000)
    assert sigma_p(spec, 4) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0 + 0.25, rel=1e-15, abs=0.0)
    oracle = math.fsum(1.0 / k for k in range(1, 10001)) / math.log(10000.0)
    assert gamma(spec, 10000) == pytest.approx(oracle, rel=1e-12, abs=0.0)
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


@pytest.mark.parametrize("kind", ("singular", "eigen"))
def test_spectrum_reads_match_one_full_cumsum(kind, rng):
    # numpy's cumsum adds in order, so a prefix's last sum is the full one's
    op = random_operator(rng, max_index=15, count=120)
    source = 0.5 * (op + adjoint(op))
    spec = collect_spectrum(weighted_product(source, "split", -0.5, 2.0), 63, 16, kind)
    assert len(spec) == 1024
    sums = np.cumsum(spec.values)
    assert [spec.partial_sum(n) for n in range(1, 501)] == sums[:500].tolist()
    nonzero = spec.values[spec.values != 0.0]
    for p in (1.001, 1.1, 2.0):
        assert spec.power_sum(p) == float((np.abs(nonzero) ** p).sum())


class HarmonicReads:
    """A spectrum by its reads alone: v_k = 1/k for k = 1 .. count."""

    def __init__(self, count):
        self.count = self.reliable = count

    def __len__(self):
        return self.count

    def partial_sum(self, count):
        return math.fsum(1.0 / k for k in range(1, count + 1))

    def power_sum(self, p):
        return math.fsum(k ** -p for k in range(1, self.count + 1))


def test_estimators_read_any_spectrum_through_its_two_sums():
    stub, spec = HarmonicReads(4000), harmonic_spectrum(4000)
    assert checkpoint_ladder(stub) == checkpoint_ladder(spec)
    assert sigma_p(stub, 1234) == pytest.approx(sigma_p(spec, 1234), rel=1e-12, abs=1e-12)
    assert gamma(stub, 4000) == pytest.approx(gamma(spec, 4000), rel=1e-12, abs=1e-12)
    ladder = checkpoint_ladder(spec)
    for ours, theirs in ((dixmier_estimate(stub, ladder), dixmier_estimate(spec, ladder)),
                         (tauberian_residue(stub, X_GRID), tauberian_residue(spec, X_GRID))):
        assert ours.raw == pytest.approx(theirs.raw, rel=1e-12, abs=1e-12)
        assert ours.extrapolated == pytest.approx(theirs.extrapolated, rel=1e-12, abs=1e-12)
    for x in X_GRID:
        assert tauberian_zeta(stub, x) == pytest.approx(tauberian_zeta(spec, x),
                                                        rel=1e-12, abs=1e-12)


def test_calderon_norm_single_atom():
    spec = Spectrum(np.array([5.0, 0.0, 0.0]), "atom")
    assert calderon_norm(spec) == pytest.approx(5.0 / math.log(2.0), rel=1e-14, abs=0.0)
    with pytest.raises(DomainError):
        calderon_norm(Spectrum(np.array([1.0]), "too short"))


def _cumsum_quotients(values):
    """sigma_N / log N for N >= 2 over numpy's in-order cumsum of the listed values."""
    sums = np.cumsum(np.asarray(list(values), dtype=float))
    return [float(sums[n - 1]) / math.log(n) for n in range(2, sums.size + 1)]


def _cumsum_calderon(values):
    """The supremum of the in-order cumsum's quotients, each divided by math.log."""
    return max(_cumsum_quotients(values))


def test_calderon_norm_reads_the_cumsum_bit_for_bit(monkeypatch):
    # every spectrum is summed in 2048-value runs, each behind the total of
    # the runs before it (16 387 values, three of them zero, cross seven
    # run boundaries), and divided by math.log; that gives the whole
    # cumsum's quotients bit for bit
    values = np.concatenate([np.random.default_rng(5).random(16384) ** 4, np.zeros(3)])
    dense = Spectrum(values, "dense")
    assert calderon_norm(dense) == _cumsum_calderon(dense.values)
    assert calderon_norm(Spectrum(values[:2], "two")) == _cumsum_calderon(values[:2])
    product = weighted_product(CoefficientOperator({(0, 0): 1.0, (2, 2): 0.25}), "left", 0.0)
    level = collect_spectrum(product, 999, 3)
    assert isinstance(level, LevelSpectrum)
    assert calderon_norm(level) == _cumsum_calderon(level)
    # a level spectrum's pass holds one run; it admits the 3000 values
    # whose listing and quotients, 40 bytes each, fit in the memory limit
    monkeypatch.setattr(errors, "MEMORY_LIMIT_BYTES", 40 * 3000)
    assert calderon_norm(level) == _cumsum_calderon(level)
    monkeypatch.setattr(errors, "MEMORY_LIMIT_BYTES", 40 * 3000 - 1)
    with pytest.raises(ResourceError, match="Calderon"):
        calderon_norm(level)


def _identity_levels(levels, shells, form="left", lam=0.0, lam2=None):
    source = CoefficientOperator({(n, n): 1.0 for n in range(levels)})
    return collect_spectrum(weighted_product(source, form, lam, lam2), shells - 1, levels)


# name: (the spectrum from a seeded generator, where the supremum lies)
CALDERON_SPECTRA = {
    "dense-early": (lambda rng: Spectrum(rng.random(6000) * 0.9 ** np.arange(6000), "early"),
                    "early"),
    "dense-late": (lambda rng: Spectrum(1.0 + 1e-3 * rng.random(6000), "late"), "last"),
    "dense-zero-tail": (lambda rng: Spectrum(np.concatenate([0.5 + rng.random(3000),
                                                             np.zeros(3000)]), "tail"), None),
    "dense-split": (lambda rng: collect_spectrum(weighted_product(
        random_operator(rng, max_index=5, count=24), "split", -0.5, 2.0), 599, 6), None),
    # the first value and two runs: the supremum is the quotient at N = 4097
    "dense-run-boundary": (lambda rng: Spectrum(1.0 + 1e-3 * rng.random(4097), "runs"), "last"),
    "level-early": (lambda rng: collect_spectrum(weighted_product(
        CoefficientOperator({(0, 0): 1.0}), "left", 0.0), 9999, 1), "early"),
    "level-late": (lambda rng: _identity_levels(40, 100), "last"),
    "level-zero-tail": (lambda rng: collect_spectrum(weighted_product(CoefficientOperator(
        {(0, 0): 1.0, (5, 5): float(rng.random())}), "right", 0.5), 999, 8), None),
    "level-split": (lambda rng: collect_spectrum(weighted_product(CoefficientOperator(
        {(n, n): complex(*rng.normal(size=2)) for n in (0, 2, 3, 7)}), "split", -0.5, 2.0),
        1499, 8), None),
    "level-run-boundary": (lambda rng: _identity_levels(1, 2049, "split", -0.75, 3.0), None),
}


@pytest.mark.parametrize("name", sorted(CALDERON_SPECTRA))
def test_calderon_norm_is_the_supremum_of_the_cumsum_quotients(name):
    make, where = CALDERON_SPECTRA[name]
    spec = make(np.random.default_rng(11))
    assert isinstance(spec, LevelSpectrum if name.startswith("level") else Spectrum)
    quotients = _cumsum_quotients(spec)
    argmax = quotients.index(max(quotients)) + 2
    if where == "early":
        assert argmax < 100
    elif where == "last":
        assert argmax == len(spec)
    assert calderon_norm(spec) == max(quotients)


class CountedReads:
    """A spectrum whose values are counted as they are read."""

    def __init__(self, spectrum):
        self.spectrum, self.kind, self.reads = spectrum, spectrum.kind, 0

    def __len__(self):
        return len(self.spectrum)

    def power_sum(self, p):
        return self.spectrum.power_sum(p)

    def __iter__(self):
        for value in self.spectrum:
            self.reads += 1
            yield value


def test_calderon_pass_stops_once_the_total_cannot_raise_the_quotient():
    # pi0 at 10^6 shells: the supremum 1.5 / log 2 is the first quotient,
    # and sigma_total / log N falls below it inside the first run
    pi0 = weighted_product(CoefficientOperator({(0, 0): 1.0}), "left", 0.0)
    counted = CountedReads(collect_spectrum(pi0, 10 ** 6 - 1, 1))
    assert calderon_norm(counted) == 1.5 / math.log(2.0)
    assert counted.reads <= 1 + dixmier.BLOCK_SLAB_BYTES // 32  # the first value and one run
    # the 200-level identity at 512 shells peaks at its last quotient, so
    # the pass reads every value
    counted = CountedReads(_identity_levels(200, 512))
    assert calderon_norm(counted) == pytest.approx(36.603914231558555, rel=1e-14, abs=0.0)
    assert counted.reads == len(counted) == 102400


@pytest.mark.filterwarnings("error")
def test_partial_sums_of_an_eigen_spectrum_are_real():
    # gamma sums signed real eigenvalues, as dixmier_estimate does
    spec = Spectrum(np.array([1.0, 0.5, -0.25, 0.125]), "eigen", kind="eigen")
    assert sigma_p(spec, 4) == 1.375
    assert isinstance(sigma_p(spec, 4), float)
    assert gamma(spec, 3) == pytest.approx(1.25 / math.log(3.0), rel=1e-15, abs=0.0)
    # complex input is refused when the spectrum is built, on the real axis too
    for values in ([1, 0.5 + 1e-3j], [1.0, 0.5 + 0.0j]):
        with pytest.raises(DomainError, match="real numbers"):
            Spectrum(values, "complex", kind="eigen")
    # the Calderon norm is a supremum over singular values only
    with pytest.raises(DomainError, match="singular values"):
        calderon_norm(spec)


def test_checkpoint_ladder_shape():
    # by default the ladder starts at the top eighth of the reliable prefix,
    # which a spectrum built without one takes to be its length
    spec = harmonic_spectrum(10000)
    assert spec.reliable == 10000
    ladder = checkpoint_ladder(spec)
    assert ladder[0] == 10000 // 8
    assert ladder[-1] == 10000
    assert ladder == sorted(ladder)
    assert len(ladder) == 6
    assert checkpoint_ladder(spec, points=6, minimum=len(spec)) == ladder
    assert checkpoint_ladder(spec, minimum=32)[0] == 32
    capped = Spectrum(spec.values, "capped", reliable=50)
    assert checkpoint_ladder(capped) == [6, 9, 14, 21, 32, 50]
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
            hurwitz_zeta(1.0 + 2.0 * x, 1.0), rel=1e-10, abs=0.0)
    with pytest.raises(DomainError):
        tauberian_zeta(spec, 0.0)


def test_tauberian_zeta_sums_the_moduli_of_eigenvalues():
    values = [0.9, -0.7, 0.4, -0.25, 0.0, -0.0, 0.1]
    spec = Spectrum(np.array(values), "signed", kind="eigen")
    for x in (0.5, 0.1, 0.01):
        assert tauberian_zeta(spec, x) == pytest.approx(
            math.fsum(abs(v) ** (1.0 + x) for v in values), rel=1e-15, abs=0.0)


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
