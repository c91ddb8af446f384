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
from dataclasses import replace

import numpy as np

from .errors import DomainError, check_memory
from .extrapolate import ConvergenceTable, log_inverse_table, richardson_table
from .operators import CoefficientOperator, check_shift

_BERNOULLI_EVEN = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0, 854513.0 / 138.0, -236364091.0 / 2730.0,
)


def hurwitz_zeta(t: float, q: float) -> float:
    """Hurwitz zeta sum_{m>=0} (m + q)^(-t) for t > 1, q > 0.

    Euler-Maclaurin evaluation: the first K terms are summed directly with
    K chosen so the expansion point q + K is at least 24, then the integral
    term (q+K)^(1-t)/(t-1), the half correction and twelve Bernoulli
    corrections are added.  Absolute accuracy is far below 1e-12 for
    t in (1, 4] and moderate q.
    """
    if not (t > 1.0):
        raise DomainError("Hurwitz zeta converges only for t > 1")
    if not (q > 0.0):
        raise DomainError("Hurwitz zeta requires a positive offset q")
    shift = int(max(0, math.ceil(24.0 - q)))
    base = q + shift
    head = math.fsum((q + k) ** (-t) for k in range(shift))
    total = head + base ** (1.0 - t) / (t - 1.0) + 0.5 * base ** (-t)
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
    return total


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


def diagonal_prefix(s: CoefficientOperator, count: int) -> np.ndarray:
    """Prefix sums p[j] = sum_{n<j} s_nn for j = 0 .. count.

    The memory budget covers five complex arrays of count + 1 entries:
    the peak of these sums and of the shell sums built from them.
    """
    check_memory(80 * (count + 1), "the diagonal prefix up to %d" % count)
    return np.concatenate([[0.0 + 0.0j], np.cumsum(s.diagonal_array(count))])


def shell_sums(prefix: np.ndarray) -> np.ndarray:
    """Cumulative shell averages W[N] = sum_{j<=N} w_j(S) for N = 0 .. n_max.

    prefix holds the diagonal prefix sums p[0 .. n_max] of S, since the
    j-th shell average is w_j(S) = p[j] / j.
    """
    js = np.arange(1, prefix.size, dtype=float)
    return np.concatenate([[0.0 + 0.0j], np.cumsum(prefix[1:] / js)])


def checked_n_grid(n_grid) -> list[int]:
    """Sorted distinct truncation points, each at least 2."""
    ns = sorted({int(n) for n in n_grid})
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
    prefix = diagonal_prefix(s, ns[-1])
    sums = shell_sums(prefix)
    return log_inverse_table(ns, [complex(sums[n]) / math.log(n) for n in ns],
                             [prefix[n] for n in ns])


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
    if shells[0] < 2:
        raise DomainError("ordered-basis truncations must cover at least two shells")
    sums = shell_sums(diagonal_prefix(s, shells[-1]))
    states = [e * (e + 1) // 2 for e in shells]
    table = log_inverse_table(states, [complex(sums[e]) / math.log(n)
                                       for e, n in zip(shells, states)])
    return replace(table, params=tuple(n - 1.0 for n in table.params))

