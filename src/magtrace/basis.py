"""Orthonormal Laguerre basis of L2(R^2) and stable Laguerre evaluation.

The basis functions are indexed by a pair (n, m) of non-negative integers.
Products of a Gaussian, a power of (x1 + i*x2) and a generalized Laguerre
polynomial make them orthonormal; the index n labels the energy shell
direction that magnetic operators act on, while m is a degeneracy index.
kernels.orthonormality_check verifies the orthonormality on a grid.
Each function takes Python numbers, computed without numpy, as well as
arrays, for which it imports numpy where it uses it.
"""

from __future__ import annotations

import math
import numbers

from .config import MagneticConfig
from .errors import DomainError

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
UNDERFLOW_LOG = 746.0  # a positive double below e**-745.14 = 2**-1075 rounds to 0


def _exp(x):
    """e**x: a float at a float, and at an array the array x, overwritten."""
    if isinstance(x, float):
        return math.exp(x)
    import numpy as np

    return np.exp(x, out=x)


def _reflect(term, odd: bool):
    """(-1)**odd * conj(term): a number at a number, and at an array the array term, overwritten."""
    if isinstance(term, complex):
        term = term.conjugate()
        return -term if odd else term
    import numpy as np

    np.conjugate(term, out=term)
    return np.negative(term, out=term) if odd else term


def laguerre_poly(n: int, alpha: float, zeta):
    """Generalized Laguerre polynomial L_n^(alpha) evaluated at zeta.

    Evaluation runs the three-term recurrence

        k * L_k = (2k - 1 + alpha - zeta) * L_{k-1} - (k - 1 + alpha) * L_{k-2}

    upward from L_0 = 1 and L_1 = 1 + alpha - zeta.  The recurrence is
    numerically benign for the index ranges used here, unlike the
    alternating defining sum whose terms grow factorially.  `zeta` may be
    a real number, which gives a float without numpy, or any
    numpy-broadcastable array.
    """
    if n < 0 or n != int(n):
        raise DomainError("polynomial degree must be a non-negative integer")
    if isinstance(zeta, numbers.Real):
        z, prev = float(zeta), 1.0
    else:
        import numpy as np

        z = np.asarray(zeta, dtype=float)
        if z.ndim == 0:
            return laguerre_poly(n, alpha, float(z))
        prev = np.ones_like(z)
    if n == 0:
        return prev
    cur = 1.0 + alpha - z
    for k in range(2, n + 1):
        # the formula's operations, in place in the older array: same bits, fewer arrays
        step = (2.0 * k - 1.0 + alpha) - z
        step *= cur
        prev *= -(k - 1.0 + alpha)
        prev += step
        prev /= k
        prev, cur = cur, prev
    return cur


def radial_factors(x1, x2, ell: float):
    """The factors that every basis function shares at the points (x1, x2).

    Returns zeta = |x|^2/(2 ell^2), the normalized Gaussian
    e^{-zeta/2}/(sqrt(2 pi) ell), b = (x1 + i x2)/(ell sqrt(2)) and the
    normalization's log, -log(sqrt(2 pi) ell), each computed once, in
    place, for whatever psi_term is evaluated there.  At two floats they
    are Python numbers, made without numpy.
    """
    zeta = x1 * x1 + x2 * x2
    zeta /= 2.0 * ell * ell
    gauss = _exp(-0.5 * zeta)
    gauss /= SQRT_TWO_PI * ell
    base = x1 + 1j * x2
    base /= ell * math.sqrt(2.0)
    return zeta, gauss, base, -math.log(SQRT_TWO_PI * ell)


def _vanishing_zeta(hi: int, lo: int, log_norm: float) -> float:
    """A zeta beyond which |psi_{hi,lo}| rounds to 0, for hi >= lo.

    For zeta >= 1, |L_lo^(hi-lo)(zeta)| <= 2**hi * zeta**lo, so with
    k = (hi + lo)/2

        log|psi| <= log_norm - zeta/2 + k log(zeta) + hi log(2),

    and the tangent bound k log(zeta) <= zeta/4 + k (log(4k) - 1) takes
    the right side below -UNDERFLOW_LOG beyond the zeta returned.
    """
    k = 0.5 * (hi + lo)
    slack = k * (math.log(4.0 * k) - 1.0) if k else 0.0
    return max(1.0, 4.0 * (UNDERFLOW_LOG + log_norm + slack + hi * math.log(2.0)))


def _overflow_zeta(hi: int, lo: int) -> float:
    """A zeta up to which L_lo^(hi-lo)(zeta) and its recurrence stay finite, for hi >= lo.

    For alpha >= 0 and zeta >= 0, |L_k^(alpha)(zeta)| <= binom(k + alpha, k)
    e^(zeta/2), which grows with k, and a step of the recurrence multiplies
    by at most 3 hi + zeta before it divides by k; below the zeta returned,
    at most 1418, the log of their product stays under 709.
    """
    log_binom = math.lgamma(hi + 1) - math.lgamma(lo + 1) - math.lgamma(hi - lo + 1)
    return 2.0 * (709.0 - log_binom - math.log(3.0 * hi + 1420.0))


def _scaled_laguerre(n: int, alpha: float, zeta: float) -> tuple[float, int]:
    """L_n^(alpha)(zeta) as (f, e) with value f * 2**e, by the recurrence in scaled steps.

    After each step both terms are scaled by the same power of two, which
    is exact, so the recurrence neither overflows nor underflows.
    """
    prev, cur, exponent = 1.0, 1.0 + alpha - zeta, 0
    if n == 0:
        return prev, exponent
    for k in range(2, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + alpha - zeta) * cur - (k - 1.0 + alpha) * prev) / k
        shift = math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur, exponent = math.ldexp(prev, -shift), math.ldexp(cur, -shift), exponent + shift
    return cur, exponent


def _psi_in_logs(n: int, m: int, zeta: float, base: complex, log_norm: float) -> complex:
    """psi_{n,m} at one point, its modulus summed in logs, for 0 < zeta < inf.

    The Gaussian, the power |b|**p = zeta**(p/2), sqrt(m!/n!) and the
    scaled Laguerre factor meet as one exponential, so no factor overflows
    or underflows apart from the others.
    """
    lo, p = min(n, m), abs(n - m)
    laguerre, exponent = _scaled_laguerre(lo, p, zeta)
    log_size = (exponent * math.log(2.0) + log_norm - 0.5 * zeta
                + 0.5 * (math.lgamma(lo + 1) - math.lgamma(lo + p + 1)))
    if not p:
        return laguerre * math.exp(log_size)
    phase = (base / abs(base)) ** p
    if m > n:
        phase = _reflect(phase, p % 2)
    return phase * (laguerre * math.exp(log_size + 0.5 * p * math.log(zeta)))


def _mend_overflow(term, n: int, m: int, zeta, base, log_norm: float):
    """term, each of its non-finite values recomputed, or an exact 0 where psi vanishes.

    The Laguerre factor may overflow to inf where the rest has underflowed
    to 0, and their product is nan.  Beyond _vanishing_zeta the Gaussian
    dominates and the value rounds to 0; up to it, _psi_in_logs recomputes
    it.  Finite values, and values at a zeta that is nan, are left as they
    are.  At an array the check is one reduction, unless some zeta is
    beyond where the Laguerre recurrence can overflow.
    """
    hi, lo = max(n, m), min(n, m)
    limit = _vanishing_zeta(hi, lo, log_norm)
    if isinstance(zeta, float):
        if math.isfinite(term.real) and math.isfinite(term.imag):
            return term
        if zeta <= limit:
            return _psi_in_logs(n, m, zeta, base, log_norm)
        return 0j if zeta > limit else term
    import numpy as np

    if np.fmax.reduce(zeta, axis=None) > min(limit, _overflow_zeta(hi, lo)):
        bad = ~np.isfinite(term)
        term[bad & (zeta > limit)] = 0
        for i in np.flatnonzero(bad & (zeta <= limit)):
            term.flat[i] = _psi_in_logs(n, m, float(zeta.flat[i]), complex(base.flat[i]),
                                        log_norm)
    return term


def psi_term(n: int, m: int, zeta, gauss, base, log_norm: float):
    """psi_{n,m} from the radial_factors of its points, as a new array or number.

    For m <= n, with p = n - m, the value is

        (b * e^{(log(m!/n!)/2 + log_norm - zeta/2) / p})**p * L_m^(p)(zeta):

    b**p, sqrt(m!/n!) and the Gaussian would overflow and underflow apart
    at large n or |x|, so their logs are folded into the base before the
    power, which then stays within the normalization.  psi_{n,n} is gauss
    * L_n^(0)(zeta).  For m > n the value is the reflection (-1)**(n-m) *
    conj(psi_{m,n}).  Where the Laguerre factor still overflows, a value
    that this arithmetic cannot reach (inf * 0) is recomputed in logs, or
    is an exact 0 where the Gaussian dominates.  The factors are all
    arrays or all Python numbers.
    """
    lo, p = min(n, m), abs(n - m)
    # the recurrence's arrays are gone before the power is built
    laguerre = laguerre_poly(lo, p, zeta) if lo else None
    if p:
        exponent = zeta * (-0.5 / p)
        exponent += (0.5 * (math.lgamma(lo + 1) - math.lgamma(lo + p + 1)) + log_norm) / p
        term = base * _exp(exponent)
        del exponent
        term **= p
        if m > n:
            term = _reflect(term, p % 2)
    else:
        term = +gauss  # a new array at an array
    if laguerre is not None:
        term *= laguerre
    return _mend_overflow(term, n, m, zeta, base, log_norm)


def psi(n: int, m: int, x1, x2, cfg: MagneticConfig):
    """Basis function with indices (n, m) at the point(s) (x1, x2).

    For m <= n the value is

        psi_0(x) * sqrt(m!/n!) * ((x1 + i x2)/(ell*sqrt(2)))**(n-m)
                 * L_m^(n-m)(|x|^2 / (2 ell^2))

    with psi_0 the normalized Gaussian: the holomorphic power is carried
    by the first index, which is the one transition operators raise and
    lower; the second index is pure degeneracy, mixed only by magnetic
    translations.  The case m > n is reduced to the safe branch through
    the reflection identity

        psi_{n,m}(x) = (-1)**(n-m) * conj(psi_{m,n}(x)),

    which avoids the negative power of (x1 + i x2) at the origin.  The
    factorial ratio and the Gaussian are taken in log space and folded
    into the base before the power.  Inputs broadcast; two real numbers
    give a complex number, computed without numpy.  The formula itself is
    psi_term, on the factors of radial_factors.
    """
    if n < 0 or m < 0:
        raise DomainError("basis indices must be non-negative")
    if isinstance(x1, numbers.Real) and isinstance(x2, numbers.Real):
        return complex(psi_term(n, m, *radial_factors(float(x1), float(x2), cfg.ell)))
    import numpy as np

    a1 = np.asarray(x1, dtype=float)
    a2 = np.asarray(x2, dtype=float)
    if a1.ndim == 0 and a2.ndim == 0:
        return psi(n, m, float(a1), float(a2), cfg)
    return np.asarray(psi_term(n, m, *radial_factors(a1, a2, cfg.ell)), dtype=complex)
