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
        prev, cur = cur, ((2.0 * k - 1.0 + alpha - z) * cur - (k - 1.0 + alpha) * prev) / k
    return float(cur[0]) if scalar else cur


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
    factorial ratio is taken in log space so indices up to a few hundred
    stay finite.  Inputs broadcast; scalars in give a complex scalar out.
    """
    if n < 0 or m < 0:
        raise DomainError("basis indices must be non-negative")
    if m > n:
        branch = psi(m, n, x1, x2, cfg)
        sign = -1.0 if (n - m) % 2 else 1.0
        return sign * np.conjugate(branch)
    ell = cfg.ell
    a1 = np.asarray(x1, dtype=float)
    a2 = np.asarray(x2, dtype=float)
    scalar = a1.ndim == 0 and a2.ndim == 0
    zeta = (a1 * a1 + a2 * a2) / (2.0 * ell * ell)
    gauss = np.exp(-0.5 * zeta) / (SQRT_TWO_PI * ell)
    ratio = math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)))
    base = (a1 + 1j * a2) / (ell * math.sqrt(2.0))
    val = gauss * ratio * base ** (n - m) * laguerre_poly(m, n - m, zeta)
    return complex(val) if scalar else np.asarray(val, dtype=complex)
