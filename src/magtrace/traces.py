"""Four independent estimators for the canonical trace of the algebra.

For a trace-class coefficient family S the canonical trace equals the sum
of diagonal coefficients.  Three further routes recover the same number
from limits: the residue at 1 of a spectral zeta series, a logarithmic
average of energy-shell means, and a logarithmic average over the basis
ordered by decreasing inverse-oscillator eigenvalue (this last route
halves the value).  Keeping all four honest and independent is the point
of this module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import replace

from .errors import DomainError
from .extrapolate import ConvergenceTable, log_inverse_table, richardson_table
from .operators import CoefficientOperator, check_shift

_BERNOULLI_EVEN = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0, 854513.0 / 138.0, -236364091.0 / 2730.0,
)
_EXPANSION_POINT = 24.0  # the Euler-Maclaurin sums start at q + K >= this point


def _euler_maclaurin(t: float, q: float) -> tuple[float, float]:
    """Z(t, q) of hurwitz_zeta for any real t less its integral term, and base = q + K.

    The K direct terms take base to at least 24; the half correction and up
    to twelve Bernoulli corrections follow.  Callers add the integral term.
    """
    shift = int(max(0, math.ceil(_EXPANSION_POINT - q)))
    base = q + shift
    total = math.fsum((q + k) ** (-t) for k in range(shift)) + 0.5 * base ** (-t)
    poch = t
    scale = base ** (-t - 1.0)
    inv_base_sq = 1.0 / (base * base)
    for i, bern in enumerate(_BERNOULLI_EVEN, start=1):
        term = bern / math.factorial(2 * i) * poch * scale
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        poch *= (t + 2.0 * i - 1.0) * (t + 2.0 * i)
        scale *= inv_base_sq
    return total, base


def hurwitz_zeta(t: float, q: float) -> float:
    """Hurwitz zeta sum_{m>=0} (m + q)^(-t) for t > 1, q > 0.

    Euler-Maclaurin evaluation, far below 1e-12 absolute for t in (1, 4] and moderate q.
    """
    if not (t > 1.0):
        raise DomainError("Hurwitz zeta converges only for t > 1")
    if not (q > 0.0):
        raise DomainError("Hurwitz zeta requires a positive offset q")
    rest, base = _euler_maclaurin(t, q)
    return rest + base ** (1.0 - t) / (t - 1.0)


def hurwitz_sum(t: float, q: float, count: int) -> float:
    """Finite sum sum_{m<count} (m + q)^(-t) for real t, q > 0 and count >= 0.

    Terms that all lie below 24 are summed directly, others, at a cost independent
    of count, as a difference of two Euler-Maclaurin sums at a < b = q + count.
    Their integral terms a^u/u and b^u/u (u = 1 - t) cancel near t = 1, so for
    |u| < 1/2 their difference is a^u expm1(u log(b/a))/u, log(b/a) at t = 1.
    Relative error against math.fsum (t in [-1, 4]): below 5e-15 (1 + q / count).
    """
    if not (q > 0.0):
        raise DomainError("the finite Hurwitz sum requires a positive offset q")
    if count < 0:
        raise DomainError("the finite Hurwitz sum needs count >= 0")
    if q + count <= _EXPANSION_POINT:
        return math.fsum((q + k) ** (-t) for k in range(count))
    (rest, low), high, u = _euler_maclaurin(t, q), q + count, 1.0 - t
    if abs(u) >= 0.5:  # no cancellation, and exact at t = 0 and t = -1
        integral = (high ** u - low ** u) / u
    else:
        log_ratio = math.log1p((high - low) / low)
        integral = log_ratio if u == 0.0 else low ** u * math.expm1(u * log_ratio) / u
    return rest - _euler_maclaurin(t, high)[0] + integral


def tau_diagonal(s: CoefficientOperator) -> complex:
    """Sum of diagonal coefficients, in increasing index order."""
    return complex(sum(v for (j, k), v in sorted(s.entries.items()) if j == k))


def theta(s: CoefficientOperator, x: float, lam: float = 0.0) -> complex:
    """Spectral zeta series theta_S(x) = sum_n s_nn * zeta(1 + x, n + 1 + lam)."""
    if not x > 0.0:
        raise DomainError("theta is defined for x > 0")
    check_shift(lam)
    total = 0.0 + 0.0j
    for (j, k), v in sorted(s.entries.items()):
        if j == k:
            total += v * hurwitz_zeta(1.0 + x, j + 1.0 + lam)
    return total


def tau_residue(s: CoefficientOperator, lam: float, x_grid) -> ConvergenceTable:
    """Residue estimator: x * theta_S(x) extrapolated to x = 0.

    The product x * theta_S(x) has a removable singularity with limit equal
    to the diagonal sum; it is polynomial in x to high accuracy, so Neville
    elimination over the sample grid recovers the limit.
    """
    return richardson_table(x_grid, lambda x: theta(s, x, lam))


def shell_average(s: CoefficientOperator, j: int) -> complex:
    """Mean diagonal coefficient over the j-th energy shell, j >= 1.

    The shell with index j holds the basis states (n, m) with n + m + 1 = j,
    one for each n < j, so the average is (1/j) * sum_{n<j} s_nn.
    """
    if j < 1:
        raise DomainError("energy shells are indexed by j >= 1")
    total = sum(v for (a, b), v in sorted(s.entries.items()) if a == b and a < j)
    return complex(total) / j


def shell_sums(s: CoefficientOperator, ns) -> tuple[list[complex], list[complex]]:
    """Lists of p_N = sum_{n<N} s_nn and W_N = sum_{j<=N} p_j / j for N in the sorted ns.

    W_N = H_N p_N - sum_{n<N} s_nn H_n with H_n = hurwitz_sum(1, 1, n): one pass over
    the diagonal in index order from 0j gives both, whatever the size of N.
    """
    diagonal = sorted(((j, v) for (j, k), v in s.entries.items() if j == k), reverse=True)
    prefix, weighted, prefixes, sums = 0j, 0j, [], []
    for n in ns:
        while diagonal and diagonal[-1][0] < n:
            j, v = diagonal.pop()
            prefix += v
            weighted += v * hurwitz_sum(1.0, 1.0, j)
        prefixes.append(prefix)
        sums.append(hurwitz_sum(1.0, 1.0, n) * prefix - weighted)
    return prefixes, sums


def checked_n_grid(n_grid) -> list[int]:
    """Sorted truncation points: distinct integral values, each at least 2.

    Integers and integral floats such as 1e12 are accepted; non-integral,
    non-finite and repeated values are refused rather than rounded or merged.
    """
    ns = sorted({int(n) for n in n_grid if isinstance(n, numbers.Integral)
                 or (math.isfinite(n) and n == math.floor(n))})
    if len(ns) != len(n_grid):
        raise DomainError("truncation points must be distinct integers: %r" % (n_grid,))
    if len(ns) < 1:
        raise DomainError("at least one truncation point is required")
    if ns[0] < 2:
        raise DomainError("truncation points must be at least 2")
    return ns


def tau_shell(s: CoefficientOperator, n_grid) -> ConvergenceTable:
    """Energy-shell estimator with its sharp accelerated column.

    Raw column: (1/log N) * sum_{j<=N} w_j(S).  The harmonic-number
    rearrangement sum_{j<=N} w_j = sum_{n<N} (h_N - h_n) s_nn shows that
    adding sum_{n<N} h_n s_nn and dividing by h_N telescopes to the plain
    partial diagonal sum; the accelerated column reports that sharp
    estimator directly.  The extrapolated limit comes from the raw column
    under the log_inverse model.
    """
    ns = checked_n_grid(n_grid)
    prefixes, sums = shell_sums(s, ns)
    return log_inverse_table(ns, [w / math.log(n) for w, n in zip(sums, ns)], prefixes)


def completed_shells(state_limit: int) -> int:
    """Largest shell count E with E(E+1)/2 states not exceeding state_limit."""
    e = int((math.isqrt(8 * state_limit + 1) - 1) // 2)
    return max(e, 0)


def tau_ordered_basis(s: CoefficientOperator, n_grid) -> ConvergenceTable:
    """Ordered-eigenbasis estimator; its limit is half the diagonal sum.

    The basis is enumerated by decreasing eigenvalue of the inverse
    oscillator (shell by shell, ties resolved by increasing Landau index)
    and the diagonal entries of Q^{-1} S are averaged logarithmically:
    value(N) = (1/log(N+1)) * sum_{r<=N} entry_r.  Each requested N is
    rounded down to a completed shell so partial sums are well defined
    regardless of tie ordering; the rounded N values appear in the table.
    The fit runs in the state count N + 1, the argument of the logarithm.
    """
    ns = checked_n_grid(n_grid)
    shells = sorted({completed_shells(n + 1) for n in ns})
    _, sums = shell_sums(s, shells)
    states = [e * (e + 1) // 2 for e in shells]
    table = log_inverse_table(states, [w / math.log(n) for w, n in zip(sums, states)])
    return replace(table, params=tuple(n - 1.0 for n in table.params))

