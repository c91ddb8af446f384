"""Orthonormal Laguerre basis of L2(R^2) and stable Laguerre evaluation.

The basis functions are indexed by a pair (n, m) of non-negative integers.
Products of a Gaussian, a power of (x1 + i*x2) and a generalized Laguerre
polynomial make them orthonormal; the index n labels the energy shell
direction that magnetic operators act on, while m is a degeneracy index.
kernels.orthonormality_check verifies the orthonormality on a grid.
Every point is evaluated one way, in which no factor overflows or
underflows apart from the others (psi_term).  Each function takes Python
numbers, computed without numpy, as well as arrays, for which it imports
numpy where it uses it.
"""

from __future__ import annotations

import math
import numbers
import sys

from .config import MagneticConfig
from .errors import DomainError, check_work

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


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


def _scaled_laguerre(n: int, alpha: float, zeta):
    """L_n^(alpha)(zeta) as (f, e), with value f * 2**e, at a float or a float array.

    Before each step both terms are divided by 2**s, s the larger of their
    frexp exponents, per point.  That is exact, so f * 2**e has the bits
    of the unscaled recurrence wherever it stays finite, and no step
    overflows.  e is an int, or an int32 array once a step has run.  A
    degree over the work limit is refused (errors.check_work) first.
    """
    check_work(n, "the Laguerre recurrence")
    if n == 0:
        return 1.0, 0
    prev, cur, exponent = 1.0, (1.0 + alpha) - zeta, 0
    if not isinstance(zeta, float):
        import numpy as np

        prev, step = np.ones_like(zeta), np.empty_like(zeta)
        shift, other = np.empty(zeta.shape, np.intc), np.empty(zeta.shape, np.intc)
    for k in range(2, n + 1):
        if isinstance(zeta, float):
            shift = max(math.frexp(prev)[1], math.frexp(cur)[1])
            prev, cur, exponent = math.ldexp(prev, -shift), math.ldexp(cur, -shift), exponent + shift
            step = (2.0 * k - 1.0 + alpha) - zeta
        else:
            np.frexp(prev, out=(step, shift))
            np.frexp(cur, out=(step, other))
            np.maximum(shift, other, out=shift)
            exponent += shift  # a new array at the first step
            np.negative(shift, out=shift)
            np.ldexp(prev, shift, out=prev)
            np.ldexp(cur, shift, out=cur)
            np.subtract(2.0 * k - 1.0 + alpha, zeta, out=step)
        # k L_k = (2k - 1 + alpha - zeta) L_{k-1} - (k - 1 + alpha) L_{k-2}, in place in the older term
        step *= cur
        prev *= -(k - 1.0 + alpha)
        prev += step
        prev /= k
        prev, cur = cur, prev
    return cur, exponent


def radial_factors(x1, x2, ell: float):
    """The factors that every basis function shares at the points (x1, x2).

    Returns zeta = |x|^2/(2 ell^2), b = (x1 + i x2)/(ell sqrt(2)) and the
    normalization's log, -log(sqrt(2 pi) ell), each computed once, in
    place, for whatever psi_term is evaluated there.  At two floats they
    are Python numbers, made without numpy.  Where |x|^2 passes the
    largest double, psi is 0 at any index: the point gets zeta = the
    largest double and b = 0, where psi_term's log is about -9e307 and
    every value it gives is an exact 0.
    """
    log_norm = -math.log(SQRT_TWO_PI * ell)
    if isinstance(x1, float):
        zeta = (x1 * x1 + x2 * x2) / (2.0 * ell * ell)
        if zeta == math.inf:
            return sys.float_info.max, 0j, log_norm
        return zeta, (x1 + 1j * x2) / (ell * math.sqrt(2.0)), log_norm
    import numpy as np

    # every overflow and invalid operation here is at a point where zeta = inf
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = x1 * x1 + x2 * x2
        zeta /= 2.0 * ell * ell
        base = x1 + 1j * x2
        base /= ell * math.sqrt(2.0)
    far = zeta == math.inf
    zeta[far], base[far] = sys.float_info.max, 0
    return zeta, base, log_norm


def psi_term(n: int, m: int, zeta, base, log_norm: float):
    """psi_{n,m} from the radial_factors of its points, as a new array or number.

    For m <= n, with p = n - m and L_m^(p)(zeta) = f * 2**e, the value is

        (b * e^{g/p})**p * f,   g = e log 2 + log(m!/n!)/2 + log_norm - zeta/2:

    the power of two, sqrt(m!/n!), the Gaussian and the normalization
    would overflow and underflow apart at large n or |x|, so they meet as
    one log, folded into the base before the power, which then stays
    within |psi/f|.  psi_{n,n} is e^g * f, and for m > n the value is
    the reflection (-1)**(n-m) * conj(psi_{m,n}).  At the point that
    radial_factors puts where |x|^2 overflows the value is an exact 0; a
    nan stays nan.  The factors are all arrays or all Python numbers.
    """
    lo, p = min(n, m), abs(n - m)
    laguerre, exponent = _scaled_laguerre(lo, p, zeta)
    q = p or 1
    log_size = zeta * (-0.5 / q)
    log_size += (0.5 * (math.lgamma(lo + 1) - math.lgamma(lo + p + 1)) + log_norm) / q
    log_size += exponent * (math.log(2.0) / q)
    term = _exp(log_size)
    if p:
        term = base * term
        term **= p
        if m > n:
            term = _reflect(term, p % 2)
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
    arithmetic, one rule at every point, is psi_term's, on the factors of
    radial_factors.  Two real numbers give a complex number, computed
    without numpy, and arrays, which broadcast, give an array.  Two 0-d
    arrays, and an index that is not a non-negative integer (a bool
    included), are refused.
    """
    if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 0
               for k in (n, m)):
        raise DomainError("basis indices must be non-negative integers")
    if isinstance(x1, numbers.Real) and isinstance(x2, numbers.Real):
        return complex(psi_term(n, m, *radial_factors(float(x1), float(x2), cfg.ell)))
    import numpy as np

    a1 = np.asarray(x1, dtype=float)
    a2 = np.asarray(x2, dtype=float)
    if a1.ndim == 0 and a2.ndim == 0:
        raise DomainError("psi takes two real numbers, or arrays of at least one dimension")
    return np.asarray(psi_term(n, m, *radial_factors(a1, a2, cfg.ell)), dtype=complex)
