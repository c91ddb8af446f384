"""Laguerre recurrence against the defining sum, and basis function checks.

The recurrence-based polynomials are validated against an independent
evaluation of the alternating defining sum (exact small-degree algebra) and
against scipy's implementation.  Basis function values are pinned at points
where the closed form collapses to elementary numbers.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from magtrace import (
    DomainError,
    ResourceError,
    laguerre_poly,
    make_config,
    orthonormality_check,
    psi,
)


def laguerre_sum(n, alpha, x):
    """Defining alternating sum in exact rational arithmetic.

    Floats are exact rationals, so for integer alpha the sum is computed
    without rounding; the defining sum in float arithmetic would lose nine
    digits to cancellation near x = 30.
    """
    fx = Fraction(x)
    total = Fraction(0)
    for i in range(n + 1):
        binom = Fraction(1)
        for r in range(1, n - i + 1):
            binom *= Fraction(alpha + i + r, r)
        total += (-1) ** i * binom * fx**i / math.factorial(i)
    return float(total)


@pytest.mark.parametrize("alpha", [0, 1, 2, 5])
def test_laguerre_matches_defining_sum(alpha):
    xs = np.linspace(0.0, 30.0, 13)
    for n in range(13):
        for x in xs:
            expected = laguerre_sum(n, alpha, float(x))
            got = laguerre_poly(n, alpha, float(x))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_laguerre_matches_scipy(rng):
    for _ in range(60):
        n = int(rng.integers(0, 20))
        alpha = int(rng.integers(0, 9))
        x = float(rng.uniform(0.0, 40.0))
        expected = scipy.special.eval_genlaguerre(n, alpha, x)
        assert laguerre_poly(n, alpha, x) == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_laguerre_pinned_value():
    # L_3^{(2)}(3/2) = 10 - 10 x + 5 x^2 / 2 - x^3 / 6 at x = 3/2
    assert laguerre_poly(3, 2, 1.5) == pytest.approx(0.0625, abs=1e-12)


def test_laguerre_accepts_arrays():
    xs = np.array([0.0, 1.0, 2.0])
    values = laguerre_poly(2, 0, xs)
    expected = [laguerre_sum(2, 0, x) for x in xs]
    assert np.allclose(values, expected, atol=1e-12)


def test_psi_ground_state_at_origin(cfg):
    value = psi(0, 0, 0.0, 0.0, cfg)
    assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)
    assert value.imag == 0.0


def test_psi_ground_state_profile(cfg):
    # psi_{0,0}(x) = exp(-|x|^2 / (4 ell^2)) / (sqrt(2 pi) ell)
    for x1, x2 in [(0.5, 0.0), (1.0, -2.0), (3.0, 4.0)]:
        r2 = x1 * x1 + x2 * x2
        expected = math.exp(-r2 / 4.0) / math.sqrt(2.0 * math.pi)
        assert psi(0, 0, x1, x2, cfg) == pytest.approx(expected, rel=1e-13)


def test_psi_diagonal_at_origin(cfg):
    for n in range(5):
        value = psi(n, n, 0.0, 0.0, cfg)
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-13)


def test_psi_offdiagonal_vanishes_at_origin(cfg):
    for n, m in [(0, 1), (1, 0), (2, 5), (4, 1)]:
        assert abs(psi(n, m, 0.0, 0.0, cfg)) == 0.0


def test_psi_first_excited_value(cfg):
    # psi_{1,0}(x) = psi_{0,0}(x) (x1 + i x2) / (ell sqrt(2)): raising the
    # first index multiplies by the holomorphic coordinate
    x1, x2 = 0.7, -0.3
    ground = psi(0, 0, x1, x2, cfg)
    expected = ground * complex(x1, x2) / math.sqrt(2.0)
    assert psi(1, 0, x1, x2, cfg) == pytest.approx(expected, rel=1e-13)
    assert psi(0, 1, x1, x2, cfg) == pytest.approx(-np.conj(expected), rel=1e-13)


def test_psi_conjugation_symmetry(rng, cfg):
    # psi_{n,m} = (-1)^(n-m) conj(psi_{m,n}); the sign flips for odd n - m
    for _ in range(40):
        n = int(rng.integers(0, 7))
        m = int(rng.integers(0, 7))
        x1 = float(rng.uniform(-6.0, 6.0))
        x2 = float(rng.uniform(-6.0, 6.0))
        lhs = psi(n, m, x1, x2, cfg)
        rhs = (-1.0) ** (n - m) * np.conj(psi(m, n, x1, x2, cfg))
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_psi_scaling_in_ell():
    # psi at length ell equals psi at length 1 evaluated at x / ell, over ell
    fine = make_config(2.5)
    unit = make_config(1.0)
    for n, m in [(0, 0), (1, 2), (3, 1)]:
        a = psi(n, m, 1.3, -0.4, fine)
        b = psi(n, m, 1.3 / 2.5, -0.4 / 2.5, unit) / 2.5
        assert a == pytest.approx(b, rel=1e-12)


def test_psi_decay_at_twelve_lengths(cfg):
    # largest magnitude on the circle |x| = 12 ell over shells n + m <= 6
    worst = 0.0
    for n in range(7):
        for m in range(7 - n):
            for theta in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
                value = psi(n, m, 12.0 * math.cos(theta), 12.0 * math.sin(theta), cfg)
                worst = max(worst, abs(value))
    assert worst < 1e-11
    # and the bound tightens below 1e-12 half a length further out
    worst = max(
        abs(psi(n, m, 12.5 * math.cos(t), 12.5 * math.sin(t), cfg))
        for n in range(7)
        for m in range(7 - n)
        for t in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    )
    assert worst < 1e-12


def test_orthonormality_default_grid(cfg):
    errors = orthonormality_check(4, cfg)
    assert errors.shape == (25, 25)
    assert errors.max() <= 1e-13
    # the default 160 nodes support max_index 8, where evaluating psi, not
    # the quadrature, sets the error
    assert orthonormality_check(8, cfg).max() <= 1e-11


def test_orthonormality_coarse_grid_rejected(cfg):
    # 64 nodes resolve indices up to 3, not 4
    with pytest.raises(ResourceError):
        orthonormality_check(4, cfg, nodes=64)


def test_orthonormality_on_the_coarsest_admitted_grid(cfg):
    # max_index 1 admits 32 nodes; the trapezoid rule is spectrally
    # accurate on these Gaussian-decaying functions
    assert orthonormality_check(1, cfg, nodes=32).max() <= 1e-9


def test_quadrature_default_tracks_ell(cfg):
    # the default extent is 12 ell, so the Gram matrix does not depend on ell
    wide = orthonormality_check(2, make_config(3.0))
    assert np.abs(wide - orthonormality_check(2, cfg)).max() <= 1e-14


def test_quadrature_needs_finite_positive_extent(cfg):
    for extent in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            orthonormality_check(0, cfg, extent=extent, nodes=16)
    for nodes in (0, 1):
        with pytest.raises(DomainError):
            orthonormality_check(0, cfg, extent=1.0, nodes=nodes)
