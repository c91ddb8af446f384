"""Partial-sum estimation of Dixmier traces.

For a compact non-negative operator with singular values mu_0 >= mu_1 >= ...
the Dixmier trace of interest here is the limit of gamma_N = sigma_N / log N
with sigma_N the N-th partial sum.  Operators are truncated block by block
in the degeneracy index, singular values (or eigenvalues) of the blocks are
merged into one sorted sequence, and gamma_N is extrapolated over a ladder
of checkpoints under the log_inverse model.  A zeta-function route
x * Tr(T^(1+x)) -> x = 0 provides the independent Tauberian cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, DomainError, RangeError, check_memory
from .extrapolate import ConvergenceTable, log_inverse_table, richardson_table
from .operators import DiagonalWeight, WeightedProduct, matrix_block
from .traces import hurwitz_zeta

_EIGEN_IMAG_TOL = 1e-10


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


def _sorted_descending(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((-values.imag if np.iscomplexobj(values) else np.zeros_like(values),
                        -values.real,
                        -np.abs(values)))
    return values[order]


SPECTRUM_KINDS = ("singular", "eigen")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted spectrum of a compact operator with provenance metadata.

    kind "singular" holds non-negative singular values in non-increasing
    order; kind "eigen" holds complex eigenvalues ordered by non-increasing
    modulus, ties broken toward the larger real, then imaginary, part.
    `reliable` bounds the prefix of the sorted sequence that is faithful to
    the untruncated operator (None when the whole list is); `tail` is an
    optional analytic model for everything beyond the truncation.
    """

    values: np.ndarray
    provenance: str
    kind: str = "singular"
    reliable: int | None = None
    tail: SpectralTail | None = None

    def __post_init__(self):
        if self.kind == "singular":
            values = np.sort(np.asarray(self.values, dtype=float))[::-1].copy()
            if values.size and values[-1] < 0.0:
                raise DomainError("singular values must be non-negative")
        elif self.kind == "eigen":
            values = _sorted_descending(np.asarray(self.values, dtype=complex))
        else:
            raise DomainError("spectrum kind must be one of %s" % (SPECTRUM_KINDS,))
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def _weighted_values(op: WeightedProduct, m_max: int, n_max: int, kind: str):
    """Block spectra of m = 0 .. m_max, in block order, and the frontier block.

    A source block without off-diagonal entries is weighted on its
    diagonal alone; otherwise the blocks m = 0 .. m_max + 1 are built as
    one stack and factored by one batched SVD or eigendecomposition.
    The memory budget is checked before the block weights are built.
    """
    source = op.source
    diagonal = all(j == k or max(j, k) >= n_max for j, k in source.entries)
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
        data = source.diagonal_array(n_max)
        if row is not None:
            data = row * data
        if col is not None:
            data = data * col
        return data[:-1].ravel(), np.diag(data[-1])
    stack = matrix_block(source, 0, n_max)
    if row is not None:
        stack = row[:, :, None] * stack
    if col is not None:
        stack = stack * col[:, None, :]
    blocks = stack[:-1]
    if kind == "singular":
        return np.linalg.svd(blocks, compute_uv=False).ravel(), stack[-1]
    values, vectors = np.linalg.eig(blocks)
    bad = np.flatnonzero(np.linalg.cond(vectors) > 1e12)
    if bad.size:
        raise ComputationError("block m=%d is numerically non-diagonalizable" % bad[0])
    return values.ravel(), stack[-1]


def collect_spectrum(op: WeightedProduct, m_max: int, n_max: int,
                     kind: str = "singular") -> Spectrum:
    """Merged, sorted spectrum of the blocks m = 0 .. m_max at size n_max.

    The blocks of the weighted product go through SVD (kind "singular")
    or an eigendecomposition (kind "eigen") all at once, and purely
    diagonal blocks are read off without factorization.  The reliable
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
    if kind == "singular":
        values = np.abs(values)
    return Spectrum(values, label, kind, reliable=reliable)


def shell_spectrum(weight: DiagonalWeight, shells: int) -> Spectrum:
    """Whole-shell spectrum of a q_power weight with its analytic tail.

    Shell e carries the value (e + lam)^(-s) with multiplicity e; keeping
    complete shells makes every checkpoint N = e(e+1)/2 comparable and the
    remainder exactly summable, which feeds the Tauberian route.
    """
    if shells < 1:
        raise DomainError("at least one shell is required")
    e = np.arange(1, shells + 1, dtype=float)
    values = np.repeat((e + weight.lam) ** (-weight.s), np.arange(1, shells + 1))
    tail = SpectralTail(s=weight.s, shift=weight.lam, start=shells + 1)
    label = "q_power(s=%g, lam=%g) over %d complete shells" % (weight.s, weight.lam, shells)
    return Spectrum(values, label, reliable=values.size, tail=tail)


def _check_count(spectrum, count: int, minimum: int = 0) -> None:
    if count < minimum:
        raise DomainError("partial sums need at least %d terms" % minimum)
    if count > len(spectrum):
        raise RangeError("requested %d values but only %d are retained"
                         % (count, len(spectrum)))


def _real_sums(spectrum, sums: np.ndarray) -> np.ndarray:
    """Partial sums as reals; eigenvalue sums must have negligible imaginary drift."""
    if spectrum.kind == "eigen":
        drift = float(np.max(np.abs(sums.imag), initial=0.0))
        if drift > _EIGEN_IMAG_TOL:
            raise ComputationError(
                "eigenvalue partial sums have imaginary drift %.2e; "
                "the operator is not numerically self-adjoint" % drift)
        sums = sums.real
    return sums.astype(float)


def sigma_p(spectrum: Spectrum, count: int) -> float:
    """Partial sum sigma_N of the first N = `count` values, as a real number.

    An eigen spectrum's sum must have negligible imaginary drift, as in
    dixmier_estimate; a singular spectrum's sum is taken as it is.
    """
    _check_count(spectrum, count)
    return float(_real_sums(spectrum, np.asarray(spectrum.values[:count].sum())))


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
    sums = np.cumsum(spectrum.values)
    counts = np.arange(2, len(spectrum) + 1)
    return float(np.max(sums[1:] / np.log(counts)))


def _partial_sums(spectrum, checkpoints) -> np.ndarray:
    sums = np.cumsum(spectrum.values)
    return _real_sums(spectrum, sums[np.asarray(checkpoints, dtype=int) - 1])


def checkpoint_ladder(spectrum, points: int = 6, minimum: int = 32) -> list[int]:
    """Geometric ladder of checkpoint counts within the reliable prefix."""
    top = spectrum.reliable if spectrum.reliable is not None else len(spectrum)
    top = min(top, len(spectrum))
    if top < 4:
        raise DomainError("spectrum too short for a checkpoint ladder")
    low = max(2, min(minimum, top // 8))
    ladder = np.unique(np.geomspace(low, top, points).astype(int))
    return [int(n) for n in ladder if n >= 2]


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
    ladder = np.unique(np.geomspace(min_shell, shells, points).astype(int))
    return [int(e) * (int(e) + 1) // 2 for e in ladder]


def dixmier_estimate(spectrum, checkpoints) -> ConvergenceTable:
    """Extrapolated Dixmier trace from partial sums at the checkpoints.

    Rows hold (N, sigma_N / log N); the limit is fitted under the
    log_inverse model.  Eigenvalue sequences are summed through their real
    parts, with the imaginary drift asserted to be negligible rather than
    silently discarded.  Slow or absent convergence shows up in the
    residual; no exception is raised for it.
    """
    ns = sorted({int(n) for n in checkpoints})
    if len(ns) < 3:
        raise DomainError("the Dixmier estimator needs at least three checkpoints")
    if ns[0] < 2:
        raise DomainError("checkpoints must be at least 2")
    _check_count(spectrum, ns[-1], minimum=2)
    sums = _partial_sums(spectrum, ns)
    return log_inverse_table(ns, [float(s) / math.log(n) for s, n in zip(sums, ns)])


def tauberian_zeta(spectrum, x: float) -> float:
    """zeta_T(x) = sum mu^(1+x), using the analytic tail when one is known."""
    if x <= 0.0:
        raise DomainError("the Tauberian zeta needs x > 0")
    values = spectrum.values
    if spectrum.kind == "eigen":
        values = np.abs(values)
    positive = values[values > 0.0]
    total = float((positive ** (1.0 + x)).sum())
    if spectrum.tail is not None:
        total += spectrum.tail.power_sum(1.0 + x)
    return total


def tauberian_residue(spectrum, x_grid) -> ConvergenceTable:
    """Residue of the spectral zeta: x * zeta_T(x) extrapolated to x = 0.

    Matching this limit against the Dixmier estimate is the measurability
    evidence: for Tauberian operators the two routes agree.
    """
    return richardson_table(x_grid, lambda x: tauberian_zeta(spectrum, x))
