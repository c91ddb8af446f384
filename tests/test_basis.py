"""Laguerre recurrence against the defining sum, and basis function checks.

The scaled recurrence that psi evaluates is validated against an
independent evaluation of the alternating defining sum (exact small-degree
algebra) and against scipy's implementation.  Basis function values are pinned at points
where the closed form collapses to elementary numbers, and against mpmath
where the Laguerre factor and the Gaussian overflow and underflow apart.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from magtrace import (
    DomainError,
    ResourceError,
    basis,
    make_config,
    orthonormality_check,
    psi,
)


def laguerre(n, alpha, x):
    """L_n^(alpha)(x) from the scaled recurrence, a float at a float and an array at an array."""
    if isinstance(x, float):
        return math.ldexp(*basis._scaled_laguerre(n, alpha, x))
    return np.ldexp(*basis._scaled_laguerre(n, alpha, np.asarray(x, dtype=float)))


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
            got = laguerre(n, alpha, float(x))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_laguerre_matches_scipy(rng):
    for _ in range(60):
        n = int(rng.integers(0, 20))
        alpha = int(rng.integers(0, 9))
        x = float(rng.uniform(0.0, 40.0))
        expected = scipy.special.eval_genlaguerre(n, alpha, x)
        assert laguerre(n, alpha, x) == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_laguerre_pinned_value():
    # L_3^{(2)}(3/2) = 10 - 10 x + 5 x^2 / 2 - x^3 / 6 at x = 3/2
    assert laguerre(3, 2, 1.5) == pytest.approx(0.0625, abs=1e-12)


def test_laguerre_accepts_arrays():
    xs = np.array([0.0, 1.0, 2.0])
    values = laguerre(2, 0, xs)
    expected = [laguerre_sum(2, 0, x) for x in xs]
    assert np.allclose(values, expected, atol=1e-12)


def test_psi_refuses_indices_that_are_not_non_negative_integers(cfg):
    # a fractional index once gave a value and a float one a bare TypeError
    for n, m in [(2.5, 1), (1, 0.5), (1.0, 0), (-1, 0), (0, -2), (True, 0), (0, False),
                 ("1", 0), (None, 0)]:
        for x1, x2 in [(0.3, 0.2), (np.zeros(2), np.ones(2))]:
            with pytest.raises(DomainError, match="basis indices must be non-negative integers"):
                psi(n, m, x1, x2, cfg)
    # numpy integers are integers
    assert psi(np.int64(2), np.uint8(1), 0.3, 0.2, cfg) == psi(2, 1, 0.3, 0.2, cfg)


def test_psi_ground_state_at_origin(cfg):
    value = psi(0, 0, 0.0, 0.0, cfg)
    assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)
    assert value.imag == 0.0


def test_psi_ground_state_profile(cfg):
    # psi_{0,0}(x) = exp(-|x|^2 / (4 ell^2)) / (sqrt(2 pi) ell)
    for x1, x2 in [(0.5, 0.0), (1.0, -2.0), (3.0, 4.0)]:
        r2 = x1 * x1 + x2 * x2
        expected = math.exp(-r2 / 4.0) / math.sqrt(2.0 * math.pi)
        assert psi(0, 0, x1, x2, cfg) == pytest.approx(expected, rel=1e-13, abs=0.0)


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
    assert psi(1, 0, x1, x2, cfg) == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert psi(0, 1, x1, x2, cfg) == pytest.approx(-np.conj(expected), rel=1e-13, abs=0.0)


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
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


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


def test_psi_is_zero_where_the_gaussian_dominates(cfg):
    # at |x| = 1e100 the log of everything but the Laguerre mantissa is far
    # below the underflow; beyond |x| = 1.3e154 |x|^2 overflows and psi is
    # an exact 0; the near point keeps its value, at an array as at a number
    x1 = np.array([1e100, 1e155, np.inf, 0.5])
    for n, m in [(2, 2), (1, 3), (3, 0), (40, 7)]:
        values = psi(n, m, x1, np.zeros(4), cfg)
        assert values[:3].tolist() == [0j, 0j, 0j]
        assert [psi(n, m, x, 0.0, cfg) for x in x1[:3]] == [0j, 0j, 0j]
        assert values[3] == psi(n, m, np.array([0.5]), np.zeros(1), cfg)[0]
    assert math.isnan(psi(1, 3, math.nan, 0.0, cfg).real)


@pytest.mark.parametrize("n, m, x1, x2", [(300, 300, 63.245553, 0.0), (300, 290, 50.0, 40.0),
                                         (290, 300, 50.0, 40.0), (500, 400, 70.0, -10.0),
                                         (1000, 1000, 60.0, 20.0), (250, 250, 54.772256, 0.0),
                                         (150, 150, 54.772256, 0.0), (200, 200, 54.772256, 0.0),
                                         (260, 250, 43.817805, 32.863353), (400, 250, 48.0, 36.0)])
def test_psi_where_the_laguerre_factor_overflows(n, m, x1, x2, cfg):
    # L_m^(n-m)(zeta) alone overflows, or the Gaussian e^{-zeta/2} alone
    # underflows, or both, while psi is a normal number: the scaled
    # recurrence and the one log match mpmath's 50-digit value, at a
    # number as at an array, with no warning
    with mpmath.workdps(50):
        zeta = (mpmath.mpf(x1) ** 2 + mpmath.mpf(x2) ** 2) / 2
        lo, p = min(n, m), abs(n - m)
        b = mpmath.mpc(x1, x2) / mpmath.sqrt(2)
        exact = (mpmath.exp(-zeta / 2) / mpmath.sqrt(2 * mpmath.pi) * b ** p
                 * mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(lo + p))
                 * mpmath.laguerre(lo, p, zeta))
        expected = complex((-1) ** p * mpmath.conj(exact) if m > n else exact)
    value = psi(n, m, x1, x2, cfg)
    assert abs(value - expected) <= 1e-11 * abs(expected)
    values = psi(n, m, np.array([x1, 0.5]), np.array([x2, 0.0]), cfg)
    assert abs(values[0] - expected) <= 1e-11 * abs(expected)
    # the finite value beside it keeps its bits
    assert values[1] == psi(n, m, np.array([0.5]), np.zeros(1), cfg)[0]


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


def test_laguerre_recurrence_over_the_work_limit_is_refused(cfg):
    # the recurrence runs min(n, m) steps and allocates nothing sized by
    # them, so the work limit refuses a degree past it before the first step:
    # at 10**15 steps it would not end
    from magtrace.errors import WORK_LIMIT_STEPS

    over = WORK_LIMIT_STEPS + 1
    for call in (lambda: psi(10 ** 15, 10 ** 15, 0.5, 0.25, cfg),
                 lambda: psi(over, over + 2, np.zeros(3), np.ones(3), cfg)):
        with pytest.raises(ResourceError, match="over the limit of %d" % WORK_LIMIT_STEPS):
            call()
    # the limit itself is admitted, and a power alone is no recurrence
    assert math.isfinite(abs(psi(WORK_LIMIT_STEPS, WORK_LIMIT_STEPS, 0.5, 0.25, cfg)))
    assert psi(10 ** 15, 0, 0.0, 0.0, cfg) == 0j
