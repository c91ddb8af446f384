"""Partial-sum estimation of Dixmier traces.

For a compact non-negative operator with singular values mu_0 >= mu_1 >= ...
the Dixmier trace of interest here is the limit of gamma_N = sigma_N / log N
with sigma_N the N-th partial sum.  Operators are truncated block by block
in the degeneracy index, singular values (or eigenvalues) of the blocks are
merged into one sorted sequence, and gamma_N is extrapolated over a ladder
of checkpoints under the log_inverse model.  The whole-shell spectrum of
the shifted oscillator is held as runs, one value per shell with its
multiplicity, and its partial sums and zeta values are read off the runs.
A zeta-function route x * Tr(T^(1+x)) -> x = 0 provides the independent
Tauberian cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, check_memory
from .extrapolate import ConvergenceTable, log_inverse_table, richardson_table
from .operators import DiagonalWeight, WeightedProduct, matrix_block
from .traces import checked_n_grid, hurwitz_zeta


@dataclass(frozen=True)
class SpectralTail:
    """Analytic model for the spectrum beyond a truncation.

    It describes values (e + shift)^(-s) carried with multiplicity e by
    every shell e >= start.  power_sum(p) is the exact tail of sum mu^p,
    evaluated through the Hurwitz zeta.
    """

    s: float
    shift: float
    start: int

    def power_sum(self, p: float) -> float:
        if self.s * p <= 2.0:
            raise DomainError("shell tail power sum diverges for s*p <= 2")
        q = self.start + self.shift
        return hurwitz_zeta(self.s * p - 1.0, q) - self.shift * hurwitz_zeta(self.s * p, q)


SPECTRUM_KINDS = ("singular", "eigen")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted spectrum of a compact operator with provenance metadata.

    kind "singular" holds non-negative singular values in non-increasing
    order; kind "eigen" holds the real eigenvalues of a self-adjoint
    operator ordered by non-increasing modulus, ties broken toward the
    value whose sign bit is clear, so +0.0 comes before -0.0.
    Eigenvalues with a non-zero imaginary part are refused, and so are
    values that are not finite real numbers (booleans and strings
    included), before sorting.
    `reliable` bounds the prefix of the sorted sequence that is faithful to
    the untruncated operator (None when the whole list is); `tail` is an
    optional analytic model for everything beyond the truncation.

    With `counts` the spectrum is held as runs: the i-th stored value
    occurs counts[i] times, and both arrays are sorted by one permutation.
    Counts are integers of at least 1, one per value.  len() and
    `reliable` count elements, not runs.
    """

    values: np.ndarray
    provenance: str
    kind: str = "singular"
    reliable: int | None = None
    tail: SpectralTail | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SPECTRUM_KINDS:
            raise DomainError("spectrum kind must be one of %s" % (SPECTRUM_KINDS,))
        values = _finite_values(self.values, self.kind)
        if self.counts is not None:
            if self.kind == "singular":
                order = np.argsort(values)[::-1]
            else:
                order = np.argsort(~_eigen_keys(values), kind="stable")
            object.__setattr__(self, "counts", _run_counts(self.counts, values)[order])
            values = values[order]
        elif self.kind == "singular":
            # a reversed view: a contiguous copy raised peak memory
            values = np.sort(values)[::-1]
        else:
            key = _eigen_keys(values)
            key.sort()
            values = _decode_keys(key)[::-1]
        if self.kind == "singular" and values.size and values[-1] < 0.0:
            raise DomainError("singular values must be non-negative")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        if self.counts is None:
            return int(self.values.size)
        return int(self.counts.sum())


def _finite_values(values, kind: str) -> np.ndarray:
    """Spectrum values as a 1-D float array, refusing what is not finite and real.

    Booleans, strings and other non-numeric input are refused rather than
    cast; so are complex values, except that kind "eigen" holds complex
    input whose imaginary parts all vanish as real.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise DomainError("spectrum values must be a 1-D array")
    if kind == "eigen" and values.dtype.kind == "c":
        if np.any(values.imag):
            raise DomainError("eigen spectra hold real eigenvalues only")
        values = values.real
    elif values.dtype.kind not in "iuf":
        raise DomainError("spectrum values must be real numbers, not %s" % values.dtype)
    values = values.astype(float, copy=False)
    if not np.all(np.isfinite(values)):
        raise DomainError("spectrum values must be finite")
    return values


def _eigen_keys(values: np.ndarray) -> np.ndarray:
    """uint64 keys whose ascending order is the reverse of the eigen order.

    The bit pattern of a finite |v| orders like |v| as an unsigned integer,
    and its top bit is clear, so shifting it left by one leaves the low
    bit for the sign: set when the sign bit of v is clear.  Equal keys
    are equal values, sign bit included.
    """
    key = np.abs(values).view(np.uint64)
    key <<= 1
    key |= ~np.signbit(values)
    return key


def _decode_keys(key: np.ndarray) -> np.ndarray:
    """The float64 values of _eigen_keys, decoded in place."""
    key ^= 1
    sign = key << 63
    key >>= 1
    key |= sign
    return key.view(float)


def _run_counts(counts, values: np.ndarray) -> np.ndarray:
    """Run lengths as int64, refusing what is not one integer >= 1 per value."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.shape != values.shape:
        raise DomainError("run counts must be a 1-D array with one count per value")
    if counts.dtype.kind not in "iuf" or not np.all(np.isfinite(counts)):
        raise DomainError("run counts must be finite integers")
    if np.any(counts != np.floor(counts)) or np.any(counts < 1):
        raise DomainError("run counts must be integers of at least 1")
    # the element count and the cumsum of the counts are int64
    if counts.sum(dtype=float) > 2.0 ** 62:
        raise DomainError("run counts must total at most 2**62 elements")
    return counts.astype(np.int64)


def _weighted_blocks(block, row, col, m):
    """Blocks A S B of the source block at weight index or slice m."""
    # in place, into the array just made: the source block stays as it is
    block = row[m, :, None] * block
    block *= col[m, None, :]
    return block


def _weighted_values(op: WeightedProduct, m_max: int, n_max: int, kind: str):
    """Block spectra of m = 0 .. m_max, in block order, and the frontier block.

    A source block without off-diagonal entries is weighted on its
    diagonal alone, as real numbers: d.real for kind "eigen" and |d| for
    kind "singular"; otherwise the blocks m = 0 .. m_max are built as one
    stack and factored by one batched SVD or eigvalsh.  For a Hermitian
    source S, A S B is similar to the Hermitian (AB)^(1/2) S (AB)^(1/2),
    so kind "eigen" refuses any other source and factors that stack.
    The frontier block m_max + 1 is the form's own A S B.  The memory
    budget is checked before the block weights are built.
    """
    source = op.source
    truncated = {key: v for key, v in source.entries.items() if max(key) < n_max}
    if kind == "eigen" and any(truncated.get((k, j), 0.0) != v.conjugate()
                               for (j, k), v in truncated.items()):
        raise DomainError("kind \"eigen\" needs a Hermitian source: a_kj = conj(a_jk) "
                          "for all j, k < %d" % n_max)
    diagonal = all(j == k for j, k in truncated)
    # 16 bytes per (m, n): the two real weight arrays, or one complex array
    unit = 16 * (m_max + 2) * n_max
    if diagonal:
        # the weights, two weighted diagonals and the dense frontier block
        check_memory(3 * unit + 16 * n_max * n_max, "the diagonal block spectrum")
    else:
        # the weights and the stack of n_max x n_max blocks
        check_memory(unit * (1 + n_max), "the weighted block stack")
    row, col = op.block_weights(np.arange(m_max + 2), n_max)
    if diagonal:
        # real weights: the Hermitian check makes d.real exact for kind "eigen"
        d = source.diagonal_array(n_max)
        data = row * (d.real if kind == "eigen" else np.abs(d))
        data *= col
        return data[:-1].ravel(), np.diag(data[-1])
    block = matrix_block(source, n_max)
    frontier = _weighted_blocks(block, row, col, -1)
    if kind == "singular":
        stack = _weighted_blocks(block, row, col, slice(-1))
        return np.linalg.svd(stack, compute_uv=False).ravel(), frontier
    root = np.sqrt(row[:-1] * col[:-1])
    stack = root[:, :, None] * block
    stack *= root[:, None, :]
    return np.linalg.eigvalsh(stack).ravel(), frontier


def collect_spectrum(op: WeightedProduct, m_max: int, n_max: int,
                     kind: str = "singular") -> Spectrum:
    """Merged, sorted spectrum of the blocks m = 0 .. m_max at size n_max.

    The blocks of the weighted product go through one batched SVD (kind
    "singular") or one batched eigvalsh (kind "eigen"), and purely
    diagonal blocks are read off without factorization.  Kind "eigen"
    needs a source whose truncation is exactly Hermitian, a_kj = conj(a_jk)
    for max(j, k) < n_max, and returns real eigenvalues; any other source
    is refused with DomainError before anything is allocated.  The reliable
    prefix length is the number of retained values strictly above the
    norm of the first omitted block, beyond which sorting against the
    truncation boundary would mix retained and missing contributions.
    shell_spectrum is the route for a bare DiagonalWeight.
    """
    if not isinstance(op, WeightedProduct):
        raise DomainError("collect_spectrum expects a WeightedProduct")
    if kind not in SPECTRUM_KINDS:
        raise DomainError("spectrum kind must be one of %s" % (SPECTRUM_KINDS,))
    if m_max < 0 or n_max < 1:
        raise DomainError("spectrum truncation needs m_max >= 0 and n_max >= 1")
    values, frontier = _weighted_values(op, m_max, n_max, kind)
    threshold = float(np.linalg.norm(frontier, ord=2))
    label = "%s-weighted product (lam=%g, lam2=%g, s=%g) over n<%d, m<=%d" % (
        op.form, op.lam, op.lam2, op.s, n_max, m_max)
    reliable = int((np.abs(values) > threshold).sum())
    return Spectrum(values, label, kind, reliable=reliable)


def shell_spectrum(weight: DiagonalWeight, shells: int) -> Spectrum:
    """Whole-shell spectrum of a q_power weight with its analytic tail.

    Shell e carries the value (e + lam)^(-s) with multiplicity e; keeping
    complete shells makes every checkpoint N = e(e+1)/2 comparable and the
    remainder exactly summable, which feeds the Tauberian route.  The
    spectrum is held as runs, one value per shell with counts 1 .. shells,
    so its storage grows with the shells, not with the e(e+1)/2 elements.
    """
    if shells < 1:
        raise DomainError("at least one shell is required")
    # the values, counts and sort permutation, and the run cumsums read off them
    check_memory(48 * shells, "the shell spectrum")
    counts = np.arange(1, shells + 1)
    values = (counts + weight.lam) ** (-weight.s)
    tail = SpectralTail(s=weight.s, shift=weight.lam, start=shells + 1)
    label = "q_power(s=%g, lam=%g) over %d complete shells" % (weight.s, weight.lam, shells)
    return Spectrum(values, label, reliable=shells * (shells + 1) // 2, tail=tail,
                    counts=counts)


def _check_count(spectrum, count: int, minimum: int = 1) -> None:
    if count < minimum:
        raise DomainError("partial sums need at least %d terms" % minimum)
    if count > len(spectrum):
        raise RangeError("requested %d values but only %d are retained"
                         % (count, len(spectrum)))


def _partial_sums(spectrum, ns) -> np.ndarray:
    """Real partial sums sigma_N at each N in ns, read off one cumsum.

    The cumsum runs over the whole spectrum: a sliced or zero-padded one
    raised peak memory.  A run spectrum takes cumsums over its runs, of
    the counts and of values * counts, finds the run that holds each N
    and subtracts the part of that run beyond N.
    """
    ns = np.asarray(ns, dtype=int)
    if spectrum.counts is None:
        return np.cumsum(spectrum.values)[ns - 1]
    ends = np.cumsum(spectrum.counts)
    run = np.searchsorted(ends, ns)
    sums = np.cumsum(spectrum.values * spectrum.counts)[run]
    return sums - (ends[run] - ns) * spectrum.values[run]


def sigma_p(spectrum: Spectrum, count: int) -> float:
    """Partial sum sigma_N of the first N = `count` >= 1 values, as a real number."""
    _check_count(spectrum, count)
    return float(_partial_sums(spectrum, [count])[0])


def gamma(spectrum: Spectrum, count: int) -> float:
    """Dixmier quotient sigma_N / log N at N = count >= 2."""
    _check_count(spectrum, count, minimum=2)
    return sigma_p(spectrum, count) / math.log(count)


def calderon_norm(spectrum: Spectrum) -> float:
    """sup over N >= 2 of sigma_N / log N on the retained singular values."""
    if spectrum.kind != "singular":
        raise DomainError("the Calderon norm is defined on singular values")
    if len(spectrum) < 2:
        raise DomainError("the Calderon quotient needs at least two values")
    # the counts N, the partial sums and their quotients: at most 40 bytes
    # per element, and a run spectrum holds many more elements than values
    check_memory(40 * len(spectrum), "the Calderon quotients")
    ns = np.arange(2, len(spectrum) + 1)
    return float(np.max(_partial_sums(spectrum, ns) / np.log(ns)))


def _geometric_ladder(low: int, top: int, points: int) -> list[int]:
    """Distinct integer parts of `points` geometric steps from low to top."""
    return sorted({int(n) for n in np.geomspace(low, top, points)})


def checkpoint_ladder(spectrum, points: int = 6, minimum: int = 32) -> list[int]:
    """Geometric ladder of checkpoint counts within the reliable prefix."""
    top = spectrum.reliable if spectrum.reliable is not None else len(spectrum)
    top = min(top, len(spectrum))
    if top < 4:
        raise DomainError("spectrum too short for a checkpoint ladder")
    return _geometric_ladder(max(2, min(minimum, top // 8)), top, points)


def deep_ladder(spectrum) -> list[int]:
    """Six checkpoints from the top eighth of the reliable prefix upward.

    Partial sums at low counts carry a 1/log^2 curvature that the linear-
    in-1/log model cannot absorb, which biases the extrapolated trace, so
    the ladder starts at max(2, top // 8) for a reliable prefix of top.
    """
    return checkpoint_ladder(spectrum, points=6, minimum=len(spectrum))


def shell_checkpoints(shells: int, points: int = 6, min_shell: int = 8) -> list[int]:
    """Checkpoints N = e(e+1)/2 at a geometric ladder of complete shells."""
    if shells < min_shell:
        raise DomainError("need at least %d shells for checkpoints" % min_shell)
    return [e * (e + 1) // 2 for e in _geometric_ladder(min_shell, shells, points)]


def dixmier_estimate(spectrum, checkpoints) -> ConvergenceTable:
    """Extrapolated Dixmier trace from partial sums at the checkpoints.

    Rows hold (N, sigma_N / log N); the limit is fitted under the
    log_inverse model.  The checkpoints obey traces.checked_n_grid
    (distinct integers, each at least 2), and there must be at least
    three of them.  Eigenvalue sequences are summed with their signs.
    Slow or absent convergence shows up in the residual; no exception is
    raised for it.
    """
    ns = checked_n_grid(checkpoints)
    if len(ns) < 3:
        raise DomainError("the Dixmier estimator needs at least three checkpoints")
    _check_count(spectrum, ns[-1])
    sums = _partial_sums(spectrum, ns)
    return log_inverse_table(ns, [float(s) / math.log(n) for s, n in zip(sums, ns)])


def tauberian_zeta(spectrum, x: float) -> float:
    """zeta_T(x) = sum mu^(1+x), using the analytic tail when one is known."""
    if x <= 0.0:
        raise DomainError("the Tauberian zeta needs x > 0")
    values = spectrum.values
    if spectrum.kind == "eigen":
        values = np.abs(values)
    positive = values > 0.0
    terms = values[positive] ** (1.0 + x)
    if spectrum.counts is not None:
        terms *= spectrum.counts[positive]
    total = float(terms.sum())
    if spectrum.tail is not None:
        total += spectrum.tail.power_sum(1.0 + x)
    return total


def tauberian_residue(spectrum, x_grid) -> ConvergenceTable:
    """Residue of the spectral zeta: x * zeta_T(x) extrapolated to x = 0.

    Matching this limit against the Dixmier estimate is the measurability
    evidence: for Tauberian operators the two routes agree.
    """
    return richardson_table(x_grid, lambda x: tauberian_zeta(spectrum, x))
