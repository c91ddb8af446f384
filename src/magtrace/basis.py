"""Orthonormal Laguerre basis of L2(R^2) and stable Laguerre evaluation.

The basis functions are indexed by a pair (n, m) of non-negative integers.
Products of a Gaussian, a power of (x1 + i*x2) and a generalized Laguerre
polynomial make them orthonormal; the index n labels the energy shell
direction that magnetic operators act on, while m is a degeneracy index.
kernels.orthonormality_check verifies the orthonormality on a grid.
"""

from __future__ import annotations

import math

import numpy as np

from .config import MagneticConfig
from .errors import DomainError

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def laguerre_poly(n: int, alpha: float, zeta):
    """Generalized Laguerre polynomial L_n^(alpha) evaluated at zeta.

    Evaluation runs the three-term recurrence

        k * L_k = (2k - 1 + alpha - zeta) * L_{k-1} - (k - 1 + alpha) * L_{k-2}

    upward from L_0 = 1 and L_1 = 1 + alpha - zeta.  The recurrence is
    numerically benign for the index ranges used here, unlike the
    alternating defining sum whose terms grow factorially.  `zeta` may be
    a scalar or any numpy-broadcastable array.
    """
    if n < 0 or n != int(n):
        raise DomainError("polynomial degree must be a non-negative integer")
    z = np.asarray(zeta, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    prev = np.ones_like(z)
    if n == 0:
        return float(prev[0]) if scalar else prev
    cur = 1.0 + alpha - z
    for k in range(2, n + 1):
        # the formula's operations, in place in the older array: same bits, fewer arrays
        step = (2.0 * k - 1.0 + alpha) - z
        step *= cur
        prev *= -(k - 1.0 + alpha)
        prev += step
        prev /= k
        prev, cur = cur, prev
    return float(cur[0]) if scalar else cur


def radial_factors(x1, x2, ell: float):
    """The factors that every basis function shares at the points (x1, x2).

    Returns zeta = |x|^2/(2 ell^2), the normalized Gaussian
    e^{-zeta/2}/(sqrt(2 pi) ell) and b = (x1 + i x2)/(ell sqrt(2)), each
    computed once, in place, for whatever psi_term is evaluated there.
    """
    zeta = x1 * x1 + x2 * x2
    zeta /= 2.0 * ell * ell
    gauss = np.exp(-0.5 * zeta)
    gauss /= SQRT_TWO_PI * ell
    base = x1 + 1j * x2
    base /= ell * math.sqrt(2.0)
    return zeta, gauss, base


def psi_term(n: int, m: int, zeta, gauss, base):
    """psi_{n,m} from the radial_factors of its points, as a new array.

    For m <= n the value is (b * (m!/n!)^(1/(2(n-m))))**(n-m) * gauss *
    L_m^(n-m)(zeta), multiplied in that order: b**(n-m) and sqrt(m!/n!)
    would overflow and underflow apart at large n.  For m > n it is the
    reflection (-1)**(n-m) * conj(psi_{m,n}).  The factors must be arrays.
    """
    lo, p = min(n, m), abs(n - m)
    # the recurrence's arrays are gone before the power is built
    laguerre = laguerre_poly(lo, p, zeta) if lo else None
    if p:
        term = base * math.exp(0.5 * (math.lgamma(lo + 1) - math.lgamma(lo + p + 1)) / p)
        term **= p
        if m > n:
            np.conjugate(term, out=term)
            if p % 2:
                np.negative(term, out=term)
        term *= gauss
    else:
        term = gauss.copy()
    if laguerre is not None:
        term *= laguerre
    return term


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
    factorial ratio is taken in log space and folded into the base before
    the power.  Inputs broadcast; scalars in give a complex scalar out.
    The formula itself is psi_term, on the factors of radial_factors.
    """
    if n < 0 or m < 0:
        raise DomainError("basis indices must be non-negative")
    a1 = np.asarray(x1, dtype=float)
    a2 = np.asarray(x2, dtype=float)
    scalar = a1.ndim == 0 and a2.ndim == 0
    if scalar:
        a1 = a1.reshape(1)
    val = psi_term(n, m, *radial_factors(a1, a2, cfg.ell))
    return complex(val[0]) if scalar else np.asarray(val, dtype=complex)
