"""Expected values for the benchmark's checks, computed apart from magtrace.

Nothing here imports magtrace.  Spectra of weighted products come from
closed forms (diagonal and hopping sources) or from one batched numpy
factorization of the whole block stack (dense sources); trace norms from
eigvalsh; basis functions from scipy's generalized Laguerre polynomials
with the normalisation written out; canonical JSON from a separate
emitter.  Estimators are re-derived from those spectra with the rules
the library documents (checkpoint ladder in the top eighth of the
reliable prefix, least-squares fit of L + c/log N, Lagrange extrapolation
to x = 0), so a check compares every reported number, not only the final
limit.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckFailure(AssertionError):
    """An output of the program disagrees with its expected value."""


def close(actual, expected, rtol, atol=0.0, what="value"):
    """Raise CheckFailure unless |actual - expected| <= atol + rtol*|expected|."""
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    if a.shape != e.shape:
        raise CheckFailure("%s: shape %s, expected %s" % (what, a.shape, e.shape))
    gap = np.abs(a - e)
    limit = atol + rtol * np.abs(e)
    if not np.all(np.isfinite(a)) or np.any(gap > limit):
        worst = int(np.argmax(gap - limit)) if gap.size else 0
        raise CheckFailure("%s: got %r, expected %r (gap %.3g > %.3g)"
                           % (what, a.ravel()[worst], e.ravel()[worst],
                              gap.ravel()[worst], limit.ravel()[worst]))


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


# -- sums and norms --------------------------------------------------------


def diagonal_sum(entries: dict) -> complex:
    """Sum of a_nn over an {(j, k): a_jk} dictionary, in index order."""
    return complex(sum(v for (j, k), v in sorted(entries.items()) if j == k))


def l1_of_diagonal(entries: dict) -> float:
    return float(sum(abs(v) for (j, k), v in entries.items() if j == k))


def trace_norm(matrix: np.ndarray) -> float:
    """Sum |eig H| of a Hermitian matrix: the Dixmier limit of |Q^-1 H|."""
    return float(np.abs(np.linalg.eigvalsh(matrix)).sum())


# -- spectra of weighted products --------------------------------------------


def _weights(n, m, shift):
    return 1.0 / (n + m + 1.0 + shift)


def form_weights(form: str, lam: float, lam2: float, m, n):
    """Row and column factors of block m: left w, right w, split sqrt(w) sqrt(w2)."""
    w = _weights(n, m, lam)
    if form == "left":
        return w, np.ones_like(w)
    if form == "right":
        return np.ones_like(w), w
    return np.sqrt(w), np.sqrt(_weights(n, m, lam2))


def diagonal_spectrum(entries: dict, form: str, lam: float, lam2: float,
                      m_max: int, n_max: int) -> np.ndarray:
    """Closed form: block m of a diagonal source holds d_n * row_n * col_n."""
    d = np.array([entries.get((n, n), 0.0) for n in range(n_max)], dtype=complex)
    n = np.arange(n_max, dtype=float)[:, None]
    m = np.arange(m_max + 1, dtype=float)[None, :]
    row, col = form_weights(form, lam, lam2, m, n)
    return (d[:, None] * row * col).ravel()


def weighted_stack(matrix: np.ndarray, form: str, lam: float, lam2: float,
                   blocks) -> np.ndarray:
    """Blocks W_row B W_col for every m in `blocks`, with B[k, j] = a_jk."""
    size = matrix.shape[0]
    n = np.arange(size, dtype=float)[None, :]
    m = np.asarray(blocks, dtype=float)[:, None]
    row, col = form_weights(form, lam, lam2, m, n)
    return row[:, :, None] * matrix.T[None, :, :] * col[:, None, :]


def dense_spectrum(matrix: np.ndarray, form: str, lam: float, lam2: float,
                   m_max: int, kind: str) -> np.ndarray:
    """Merged block spectrum of a dense source from one batched factorization.

    Eigenvalues of D1 B D2 equal those of the Hermitian (D1 D2)^(1/2) B
    (D1 D2)^(1/2) when B is Hermitian, so eigvalsh applies.
    """
    blocks = np.arange(m_max + 1)
    if kind == "singular":
        stack = weighted_stack(matrix, form, lam, lam2, blocks)
        return np.linalg.svd(stack, compute_uv=False).ravel()
    size = matrix.shape[0]
    n = np.arange(size, dtype=float)[None, :]
    row, col = form_weights(form, lam, lam2, blocks[:, None].astype(float), n)
    root = np.sqrt(row * col)
    sym = root[:, :, None] * matrix.T[None, :, :] * root[:, None, :]
    return np.linalg.eigvalsh(sym).ravel().astype(complex)


def dense_frontier(matrix: np.ndarray, form: str, lam: float, lam2: float,
                   m_max: int) -> float:
    """Spectral norm of the first omitted block m_max + 1."""
    stack = weighted_stack(matrix, form, lam, lam2, [m_max + 1])
    return float(np.linalg.svd(stack[0], compute_uv=False).max())


def diagonal_frontier(entries: dict, form: str, lam: float, lam2: float,
                      m_max: int, n_max: int) -> float:
    """Largest |value| of the first omitted block (diagonal sources)."""
    d = np.array([abs(entries.get((n, n), 0.0)) for n in range(n_max)])
    row, col = form_weights(form, lam, lam2, float(m_max + 1),
                            np.arange(n_max, dtype=float))
    return float(np.max(d * row * col))


def hopping_spectra(c: complex, lam: float, m_max: int):
    """Left form of {(0,1): c, (1,0): conj c}: block [[0, w0 c*], [w1 c, 0]].

    Eigenvalues are +-|c| sqrt(w0 w1), singular values |c| w0 and |c| w1,
    with w_n = 1/(n + m + 1 + lam).
    """
    m = np.arange(m_max + 1, dtype=float)
    w0 = 1.0 / (m + 1.0 + lam)
    w1 = 1.0 / (m + 2.0 + lam)
    pair = abs(c) * np.sqrt(w0 * w1)
    eigen = np.concatenate([pair, -pair])
    singular = np.concatenate([abs(c) * w0, abs(c) * w1])
    return eigen, singular


def sorted_desc(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float))[::-1]


def same_spectrum(actual, expected, rtol, what):
    """Compare two spectra as multisets: sorted real parts and imaginary parts."""
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    require(a.size == e.size, "%s: %d values, expected %d" % (what, a.size, e.size))
    scale = float(np.max(np.abs(e))) if e.size else 1.0
    close(np.sort(a.real), np.sort(e.real), 0.0, rtol * scale, what + " (real parts)")
    close(np.sort(a.imag), np.sort(e.imag), 0.0, rtol * scale, what + " (imaginary parts)")


def reliable_bounds(values, threshold: float) -> tuple[int, int]:
    """Range of the count of |values| > threshold under 1e-12 relative rounding.

    Values that equal the threshold up to rounding (the hopping source's
    1/(m+2) equals the next block's 1/(m+1), for example) may fall on
    either side of it.
    """
    mags = np.abs(np.asarray(values))
    return (int((mags > threshold * (1.0 + 1e-12)).sum()),
            int((mags > threshold * (1.0 - 1e-12)).sum()))


def reliable_count(values, threshold: float) -> int:
    """Count of |values| > threshold: the reliable prefix where no value ties it."""
    return int((np.abs(np.asarray(values)) > threshold).sum())


def check_reliable(reliable, values, threshold: float, what: str):
    low, high = reliable_bounds(values, threshold)
    require(reliable is not None and low <= reliable <= high,
            "%s: reliable prefix %s, expected %d..%d" % (what, reliable, low, high))


# -- estimators re-derived from spectra --------------------------------------


def deep_ladder(reliable: int, length: int) -> list[int]:
    """Six geometric checkpoints in the top eighth of the reliable prefix."""
    top = min(reliable, length)
    low = max(2, top // 8)
    return sorted({int(n) for n in np.geomspace(low, top, 6).astype(int) if n >= 2})


def gammas(values, checkpoints, kind: str) -> np.ndarray:
    """sigma_N / log N at each checkpoint N, summing in non-increasing order."""
    v = np.asarray(values, dtype=complex)
    order = np.argsort(-np.abs(v), kind="stable")
    sums = np.cumsum(v[order])
    picked = sums[np.asarray(checkpoints) - 1]
    if kind == "singular":
        picked = picked.real
    return picked.real / np.log(np.asarray(checkpoints, dtype=float))


def log_inverse_fit(params, values):
    """Closed-form least squares of value = L + c/log(param): (L, c, rms)."""
    u = 1.0 / np.log(np.asarray(params, dtype=float))
    v = np.asarray(values, dtype=complex)
    ub, vb = u.mean(), v.mean()
    slope = ((u - ub) * (v - vb)).sum() / ((u - ub) ** 2).sum()
    limit = vb - slope * ub
    rms = float(np.sqrt(np.mean(np.abs(limit + slope * u - v) ** 2)))
    return complex(limit), complex(slope), rms


def lagrange_zero(xs, ys) -> complex:
    """Value at x = 0 of the interpolating polynomial through (x_i, y_i)."""
    total = 0.0 + 0.0j
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        weight = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                weight *= xj / (xj - xi)
        total += weight * complex(yi)
    return total


def converged_flag(residual, extrapolated) -> bool:
    """The library's documented rule: residual <= 0.05 * (1 + |limit|)."""
    return residual is not None and residual <= 0.05 * (1.0 + abs(extrapolated))


# -- density of states ---------------------------------------------------------


def piecewise_linear(nodes, eps: float) -> float:
    """Continuous piecewise-linear function through `nodes`, zero outside."""
    for (e0, v0), (e1, v1) in zip(nodes, nodes[1:]):
        if e0 < eps < e1:
            return v0 + (v1 - v0) * (eps - e0) / (e1 - e0)
        if eps == e1:
            return v1
    return 0.0


def dos_pairing(nodes, levels: int) -> float:
    """sum_j f(j + 1/2): both the scaled DOS pairing and the Dixmier limit."""
    return math.fsum(piecewise_linear(nodes, j + 0.5) for j in range(levels))


def landau_level_count(eps: float) -> int:
    """Number of Landau levels j + 1/2 <= eps."""
    return max(0, math.floor(eps - 0.5) + 1)


def idos(eps: float, ell: float = 1.0) -> float:
    """Landau IDOS: count / (2 pi ell^2), so 1/pi at eps = 2 and ell = 1."""
    return landau_level_count(eps) / (2.0 * math.pi * ell * ell)


def shell_idos_raw(eps: float, n_grid, ell: float = 1.0) -> list[float]:
    """(2/omega_ell) * sum_{j<=N} (1/j) * #{levels n < j} / log N."""
    count = landau_level_count(eps)
    omega = math.pi * (2.0 * ell) ** 2
    out = []
    for top in n_grid:
        total = math.fsum(min(j, count) / j for j in range(1, top + 1))
        out.append(2.0 / omega * total / math.log(top))
    return out


# -- basis functions and kernels ----------------------------------------------


def psi(n: int, m: int, x1, x2, ell: float = 1.0):
    """psi_{n,m} from scipy's Laguerre polynomials and explicit factorials."""
    from scipy.special import eval_genlaguerre

    if m > n:
        return (-1.0) ** (n - m) * np.conjugate(psi(m, n, x1, x2, ell))
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    zeta = (x1 * x1 + x2 * x2) / (2.0 * ell * ell)
    norm = math.sqrt(math.factorial(m) / math.factorial(n)) / (math.sqrt(2.0 * math.pi) * ell)
    power = ((x1 + 1j * x2) / (ell * math.sqrt(2.0))) ** (n - m)
    return norm * np.exp(-zeta / 2.0) * power * eval_genlaguerre(m, n - m, zeta)


def kernel_value(entries: dict, x1, x2, ell: float = 1.0):
    """f_A(x) = sqrt(2 pi) ell sum (-1)^(j-k) a_jk psi_{k,j}(x)."""
    total = 0.0
    for (j, k), v in entries.items():
        total = total + (-1.0) ** (j - k) * v * psi(k, j, x1, x2, ell)
    return math.sqrt(2.0 * math.pi) * ell * total


# -- canonical JSON -----------------------------------------------------------


def canonical_json(obj) -> str:
    """Sorted keys, ', ' and ': ' separators, floats at 17 significant digits."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        require(math.isfinite(obj), "non-finite number in a report")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join("%s: %s" % (json.dumps(k), canonical_json(obj[k]))
                               for k in sorted(obj)) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    raise CheckFailure("unexpected JSON value %r" % (obj,))


def parse_canonical(text: str) -> dict:
    """Parse a report and require that re-emitting it gives the same bytes."""
    require(text.endswith("\n"), "report does not end with a newline")
    body = text[:-1]
    try:
        report = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CheckFailure("report is not JSON: %s" % exc)
    require(canonical_json(report) == body, "report is not canonical JSON: "
            "re-emitting it changes the bytes")
    return report


def as_complex(value) -> complex:
    """A report's {"re", "im"} object (or plain number) as a complex."""
    if isinstance(value, dict):
        return complex(value["re"], value["im"])
    return complex(value)
