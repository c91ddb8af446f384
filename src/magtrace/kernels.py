"""Integral-kernel realization on a square grid.

A coefficient family A acts on L2(R^2) through the reduced kernel

    f_A(x) = sqrt(2 pi) * ell * sum_jk (-1)^(j-k) a_jk psi_{k,j}(x)

via the twisted convolution

    (A phi)(x) = (1/(2 pi ell^2)) * Int f_A(y - x) e^{i (x ^ y)/(2 ell^2)} phi(y) dy

where x ^ y = x1*y2 - x2*y1.  The phase is not translation invariant, so
the quadrature is evaluated directly point by point instead of by FFT.
Magnetic translations V(a), which generate the commutant, act as
(V(a) phi)(x) = e^{i (x ^ a)/(2 ell^2)} phi(x - a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MagneticConfig
from .errors import DomainError
from .operators import CoefficientOperator
from .basis import SQRT_TWO_PI, psi


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-extent, extent]^2 with `nodes` points per axis."""

    extent: float
    nodes: int

    def __post_init__(self):
        if self.extent <= 0.0 or self.nodes < 2:
            raise DomainError("grids need positive extent and at least two nodes")

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


def kernel_at_zero(s: CoefficientOperator, cfg: MagneticConfig | None = None) -> complex:
    """f_S(0), which equals the diagonal coefficient sum.

    Off-diagonal basis functions vanish at the origin, so the kernel series
    collapses onto the diagonal there.  The value does not depend on ell;
    a unit-length configuration is used when none is supplied.
    """
    if cfg is None:
        from .config import make_config

        cfg = make_config(1.0)
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


def apply_kernel(s: CoefficientOperator, phi: GridFunction,
                 cfg: MagneticConfig) -> GridFunction:
    """Twisted convolution of the kernel of S with the grid function phi.

    The kernel is tabulated once on the lattice of grid differences, then
    for every output row the oscillatory quadrature is contracted with an
    einsum over a sliding window.  Cost grows like nodes**4; grids around
    128 nodes per axis keep sup errors near 1e-7 for low-index data.
    """
    spec = phi.spec
    n = spec.nodes
    g = spec.axis()
    h = spec.spacing
    ker = kernel_of(s, cfg)
    diffs = np.arange(-(n - 1), n) * h
    kernel_table = ker(diffs[:, None], diffs[None, :])
    w = spec.trapezoid_weights()
    weighted = (w[:, None] * w[None, :]) * phi.values
    phase = np.exp(1j * np.outer(g, g) / (2.0 * cfg.ell ** 2))
    phase_rev = np.conjugate(phase)[::-1]
    out = np.empty((n, n), dtype=complex)
    window = np.lib.stride_tricks.sliding_window_view
    for i1 in range(n):
        rows = kernel_table[n - 1 - i1: 2 * n - 1 - i1, :]
        # win[j1, s, j2] = rows[j1, s + j2] with s = n - 1 - i2
        win = window(rows, n, axis=1)
        contracted = np.einsum("jsk,jk,sj,k->s", win, weighted, phase_rev, phase[i1],
                               optimize=True)
        out[i1] = contracted[::-1]
    out /= 2.0 * math.pi * cfg.ell ** 2
    result = GridFunction(spec, out, phi.warnings)
    tail = _edge_band_fraction(phi.values, 1, 1)
    ker_tail = _edge_band_fraction(kernel_table, 1, 1)
    if tail > 1e-9 or ker_tail > 1e-9:
        result = result.with_warning(
            "grid may be too small: boundary carries %.1e of the data mass"
            % max(tail, ker_tail))
    return result


def magnetic_translate(a, phi: GridFunction, cfg: MagneticConfig) -> GridFunction:
    """Magnetic translation V(a) acting on a grid function.

    The shift phi(x - a) is carried out by trigonometric interpolation
    (frequency-domain phase ramp), which is exact for grid-resolved data
    and handles off-lattice displacements; the magnetic phase factor is
    applied pointwise afterwards.  Mass moved across the boundary wraps
    around, which is flagged instead of silently accepted.
    """
    a1, a2 = (float(a[0]), float(a[1]))
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
    lhs = apply_kernel(s, magnetic_translate(a, phi, cfg), cfg)
    rhs = magnetic_translate(a, apply_kernel(s, phi, cfg), cfg)
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
