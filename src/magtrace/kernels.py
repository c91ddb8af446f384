"""Integral-kernel realization on a square grid.

A coefficient family A acts on L2(R^2) through the reduced kernel

    f_A(x) = sqrt(2 pi) * ell * sum_jk (-1)^(j-k) a_jk psi_{k,j}(x)

via the twisted convolution

    (A phi)(x) = (1/(2 pi ell^2)) * Int f_A(y - x) e^{i (x ^ y)/(2 ell^2)} phi(y) dy

where x ^ y = x1*y2 - x2*y1.  The phase is not translation invariant, but
it is bilinear, so it splits into two chirps, one in (x1, y2) and one in
(x2, y1), as in Bluestein's chirp-z transform: the quadrature becomes
batched 1-D FFT correlations followed by one contraction.
Magnetic translations V(a), which generate the commutant, act as
(V(a) phi)(x) = e^{i (x ^ a)/(2 ell^2)} phi(x - a).
Every integral on a grid uses one rule, the trapezoid weights of
GridSpec: grid inner products, the convolution, and the Gram matrix
of the sampled basis functions that checks their orthonormality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MagneticConfig
from .errors import DomainError, ResourceError, check_memory
from .operators import CoefficientOperator
from .basis import SQRT_TWO_PI, psi

# Output rows are convolved in slabs whose FFT array stays within this;
# at 64-128 nodes 2 MiB slabs ran as fast as 16 MiB ones, in less memory.
SLAB_BYTES = 2 * 2 ** 20


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-extent, extent]^2 with `nodes` points per axis."""

    extent: float
    nodes: int

    def __post_init__(self):
        if not (self.extent > 0.0 and math.isfinite(self.extent)) or self.nodes < 2:
            raise DomainError("grids need a positive, finite extent and at least two nodes")
        if not math.isfinite(self.spacing):
            raise DomainError("the grid spacing 2 * extent / (nodes - 1) must be finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.nodes - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.nodes)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.nodes, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a GridSpec; values[i, j] = f(x1_i, x2_j)."""

    spec: GridSpec
    values: np.ndarray
    warnings: tuple[str, ...] = ()

    def with_warning(self, message: str) -> "GridFunction":
        return GridFunction(self.spec, self.values, self.warnings + (message,))


def grid_from_function(fn, spec: GridSpec) -> GridFunction:
    g = spec.axis()
    return GridFunction(spec, np.asarray(fn(g[:, None], g[None, :]), dtype=complex))


def sample_basis(n: int, m: int, spec: GridSpec, cfg: MagneticConfig) -> GridFunction:
    return grid_from_function(lambda u, v: psi(n, m, u, v, cfg), spec)


def grid_inner(f: GridFunction, g: GridFunction) -> complex:
    if f.spec != g.spec:
        raise DomainError("grid functions live on different grids")
    w = f.spec.trapezoid_weights()
    return complex(((w[:, None] * w[None, :]) * np.conjugate(f.values) * g.values).sum())


def grid_norm(f: GridFunction) -> float:
    return math.sqrt(max(grid_inner(f, f).real, 0.0))


def orthonormality_check(max_index: int, cfg: MagneticConfig, extent: float | None = None,
                         nodes: int | None = None) -> np.ndarray:
    """Matrix of |<psi_a, psi_b> - delta_ab| over all index pairs.

    Rows and columns run over all (n, m) with both indices <= max_index,
    in lexicographic order.  The inner products are the trapezoid sums of
    grid_inner over the basis functions sampled on GridSpec(extent,
    nodes), by default 12 ell and 160 nodes per axis.  A grid needs
    16 * (max_index + 1) nodes per axis, so 160 nodes support max_index
    <= 8; ResourceError is raised for a smaller grid, or when the sampled
    basis functions would pass the memory limit.
    """
    if max_index < 0:
        raise DomainError("max_index must be non-negative")
    spec = GridSpec(extent=12.0 * cfg.ell if extent is None else extent,
                    nodes=160 if nodes is None else nodes)
    if spec.nodes < 16 * (max_index + 1):
        raise ResourceError(
            "quadrature budget exceeded: %d nodes per axis cannot resolve indices up to %d"
            % (spec.nodes, max_index))
    indices = [(n, m) for n in range(max_index + 1) for m in range(max_index + 1)]
    # the sampled functions, their conjugates and the weighted conjugates,
    # plus eight temporaries, all nodes x nodes complex arrays
    check_memory(16 * spec.nodes ** 2 * (3 * len(indices) + 8),
                 "the Gram matrix on %d nodes" % spec.nodes)
    w = spec.trapezoid_weights()
    weights = (w[:, None] * w[None, :]).ravel()
    stack = np.stack([sample_basis(n, m, spec, cfg).values.ravel() for n, m in indices])
    gram = (stack.conj() * weights) @ stack.T
    return np.abs(gram - np.eye(len(indices)))


@dataclass(frozen=True)
class KernelFunction:
    """Callable reduced kernel f_A of a coefficient family."""

    source: CoefficientOperator
    cfg: MagneticConfig

    def __call__(self, x1, x2):
        a1 = np.asarray(x1, dtype=float)
        a2 = np.asarray(x2, dtype=float)
        scalar = a1.ndim == 0 and a2.ndim == 0
        total = np.zeros(np.broadcast(a1, a2).shape, dtype=complex)
        for (j, k), v in sorted(self.source.entries.items()):
            sign = -1.0 if (j - k) % 2 else 1.0
            total = total + sign * v * psi(k, j, a1, a2, self.cfg)
        total = SQRT_TWO_PI * self.cfg.ell * total
        return complex(total.reshape(())) if scalar else total


def kernel_of(a: CoefficientOperator, cfg: MagneticConfig) -> KernelFunction:
    return KernelFunction(source=a, cfg=cfg)


def kernel_at_zero(s: CoefficientOperator, cfg: MagneticConfig) -> complex:
    """f_S(0), which equals the diagonal coefficient sum.

    Off-diagonal basis functions vanish at the origin, so the kernel series
    collapses onto the diagonal there.  The value does not depend on ell.
    """
    return kernel_of(s, cfg)(0.0, 0.0)


def _edge_band_fraction(values: np.ndarray, cells1: int, cells2: int) -> float:
    total = float(np.abs(values).sum())
    if total == 0.0:
        return 0.0
    mask = np.zeros(values.shape, dtype=bool)
    if cells1 > 0:
        mask[:cells1, :] = True
        mask[-cells1:, :] = True
    if cells2 > 0:
        mask[:, :cells2] = True
        mask[:, -cells2:] = True
    return float(np.abs(values[mask]).sum()) / total


def _fft_length(minimum: int) -> int:
    """Smallest 2**a * 3**b * 5**c that is at least `minimum`."""
    best = 1 << (minimum - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-minimum // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _slab_rows(nodes: int, length: int) -> int:
    """Output rows per slab, so that one slab stays within SLAB_BYTES."""
    return max(1, min(nodes, SLAB_BYTES // (nodes * length * 16)))


def check_convolution_budget(spec: GridSpec) -> None:
    """Raise ResourceError when apply_kernel on `spec` would pass the memory limit.

    Counts the (2n-1)^2 kernel table, the FFTs of its rows and three
    slab-sized arrays (a bound on what one slab keeps alive), before any
    of them is allocated.
    """
    n = spec.nodes
    length = _fft_length(2 * n - 1)
    size = 16 * ((2 * n - 1) * (2 * n - 1 + length) + 3 * _slab_rows(n, length) * n * length)
    check_memory(size, "the twisted convolution on %d nodes" % n)


@dataclass(frozen=True, eq=False)
class _KernelTable:
    """FFTs of the reversed kernel rows on the lattice of grid differences.

    spectra[d + n - 1] is the length-L FFT of the reversed row
    f_S(d h, (m - n + 1) h), m = 0..2n-2; edge is the share of the table's
    mass on its boundary.
    """

    spectra: np.ndarray
    edge: float


def _tabulate(s: CoefficientOperator, spec: GridSpec, cfg: MagneticConfig) -> _KernelTable:
    check_convolution_budget(spec)
    n = spec.nodes
    diffs = np.arange(-(n - 1), n) * spec.spacing
    table = kernel_of(s, cfg)(diffs[:, None], diffs[None, :])
    spectra = np.fft.fft(table[:, ::-1], n=_fft_length(2 * n - 1), axis=1)
    return _KernelTable(spectra, _edge_band_fraction(table, 1, 1))


def _convolve(table: _KernelTable, phi: GridFunction, cfg: MagneticConfig) -> GridFunction:
    spec = phi.spec
    n = spec.nodes
    g = spec.axis()
    w = spec.trapezoid_weights()
    weighted = (w[:, None] * w[None, :]) * phi.values
    phase = np.exp(1j * np.outer(g, g) / (2.0 * cfg.ell ** 2))
    phase_back = np.conjugate(phase)
    length = table.spectra.shape[1]
    # rows[s, j1] is the spectrum of kernel row j1 - i1 for s = n - 1 - i1
    rows = np.lib.stride_tricks.sliding_window_view(table.spectra, n, axis=0)
    rows = rows.transpose(0, 2, 1)
    out = np.empty((n, n), dtype=complex)
    step = _slab_rows(n, length)
    for start in range(0, n, step):
        stop = min(start + step, n)
        # slab[i1, j1] is the FFT of W[j1, j2] e^{i g_i1 g_j2 / 2 ell^2} over j2
        slab = np.fft.fft(weighted * phase[start:stop, None, :], n=length, axis=-1)
        slab *= rows[n - stop: n - start][::-1]
        # reassigning frees the forward slab; lag i2 sits at index n - 1 + i2
        slab = np.fft.ifft(slab, axis=-1)
        out[start:stop] = np.einsum("ajk,kj->ak", slab[:, :, n - 1: 2 * n - 1], phase_back)
    out /= 2.0 * math.pi * cfg.ell ** 2
    result = GridFunction(spec, out, phi.warnings)
    tail = _edge_band_fraction(phi.values, 1, 1)
    if tail > 1e-9 or table.edge > 1e-9:
        result = result.with_warning(
            "grid may be too small: boundary carries %.1e of the data mass"
            % max(tail, table.edge))
    return result


def apply_kernel(s: CoefficientOperator, phi: GridFunction,
                 cfg: MagneticConfig) -> GridFunction:
    """Twisted convolution of the kernel of S with the grid function phi.

    The kernel is tabulated once on the lattice of grid differences.  The
    phase x ^ y splits into the chirps e^{i x1 y2 / 2 ell^2} and
    e^{-i x2 y1 / 2 ell^2}: for fixed (x1, y1) the y2-sum is a 1-D
    correlation with one kernel row, and all of them run as batched FFTs
    of a 5-smooth length L >= 2n - 1 (so nothing aliases into the kept
    lags); the y1-sum is then one contraction.  Cost grows like
    nodes**3 log(nodes).  Output rows go in slabs of at most SLAB_BYTES,
    and ResourceError is raised before allocating when the table and a
    slab would pass the memory limit.  Grids around 128 nodes per axis
    keep sup errors near 1e-7 for low-index data.
    """
    return _convolve(_tabulate(s, phi.spec, cfg), phi, cfg)


def magnetic_translate(a, phi: GridFunction, cfg: MagneticConfig) -> GridFunction:
    """Magnetic translation V(a) acting on a grid function.

    The shift phi(x - a) is carried out by trigonometric interpolation
    (frequency-domain phase ramp), which is exact for grid-resolved data
    and handles off-lattice displacements; the magnetic phase factor is
    applied pointwise afterwards.  Mass moved across the boundary wraps
    around, which is flagged instead of silently accepted.
    """
    a1, a2 = (float(a[0]), float(a[1]))
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise DomainError("magnetic translations need a finite displacement")
    spec = phi.spec
    n = spec.nodes
    h = spec.spacing
    g = spec.axis()
    freq = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    spectrum = np.fft.fft2(phi.values)
    spectrum *= np.exp(-1j * (freq[:, None] * a1 + freq[None, :] * a2))
    shifted = np.fft.ifft2(spectrum)
    phase = np.exp(1j * (g[:, None] * a2 - g[None, :] * a1) / (2.0 * cfg.ell ** 2))
    result = GridFunction(spec, phase * shifted, phi.warnings)
    cells1 = min(int(math.ceil(abs(a1) / h)), n // 2)
    cells2 = min(int(math.ceil(abs(a2) / h)), n // 2)
    if _edge_band_fraction(phi.values, cells1, cells2) > 1e-9:
        result = result.with_warning(
            "translated support clipped: data mass within |a| of the boundary")
    return result


def commutant_residual(s: CoefficientOperator, a, phi: GridFunction,
                       cfg: MagneticConfig) -> float:
    """Relative defect || (S V(a) - V(a) S) phi || / || phi ||.

    Coefficient families commute with every magnetic translation, so this
    should vanish up to quadrature error; operators outside the commutant
    (multiplication by a coordinate, say) show an order-one residual.
    """
    norm = grid_norm(phi)
    if norm == 0.0:
        raise DomainError("commutant residual needs a nonzero test function")
    shifted = magnetic_translate(a, phi, cfg)
    table = _tabulate(s, phi.spec, cfg)
    lhs = _convolve(table, shifted, cfg)
    rhs = magnetic_translate(a, _convolve(table, phi, cfg), cfg)
    defect = GridFunction(phi.spec, lhs.values - rhs.values)
    return grid_norm(defect) / norm


def folner_trace(s: CoefficientOperator, box_radius: float,
                 cfg: MagneticConfig) -> complex:
    """Trace per unit volume over the box [-R, R]^2, scaled by omega_ell/2.

    The diagonal of the kernel realization is the constant f_S(0)/(2 pi
    ell^2), so the box average equals that constant for every radius and
    the scaled value reproduces the canonical trace.
    """
    if not (box_radius > 0.0 and math.isfinite(box_radius)):
        raise DomainError("the averaging box must have a positive, finite radius")
    diagonal = kernel_at_zero(s, cfg) / (2.0 * math.pi * cfg.ell ** 2)
    return complex(0.5 * cfg.omega_ell * diagonal)
