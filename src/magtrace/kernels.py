"""Integral-kernel realization on a square grid.

A coefficient family A acts on L2(R^2) through the reduced kernel

    f_A(x) = sqrt(2 pi) * ell * sum_jk (-1)^(j-k) a_jk psi_{k,j}(x)

via the twisted convolution

    (A phi)(x) = (1/(2 pi ell^2)) * Int f_A(y - x) e^{i (x ^ y)/(2 ell^2)} phi(y) dy

where x ^ y = x1*y2 - x2*y1.  The phase is not translation invariant, but
it is bilinear, so it splits into chirps, as in Bluestein's chirp-z
transform: x ^ y = x1 x2 - 2 x2 y1 + y1 y2 - (y1 - x1)(y2 - x2), and the
last chirp, e^{-i d1 d2 / 2 ell^2} of the difference d = y - x, rides on
the tabulated kernel.  The quadrature becomes 1-D FFT correlations, with
one forward FFT per input row and one inverse FFT per pair of rows,
followed by one contraction.
Magnetic translations V(a), which generate the commutant, act as
(V(a) phi)(x) = e^{i (x ^ a)/(2 ell^2)} phi(x - a).
Every integral on a grid uses one rule, the nodes x nodes trapezoid
weights of GridSpec: grid inner products, the convolution, and the Gram
matrix of the sampled basis functions that checks their orthonormality.
numpy is imported by the functions that work on grids, so the kernel
at a point (KernelFunction at two numbers, kernel_at_zero) never loads
it.
"""

from __future__ import annotations

import math
import numbers

from .config import MagneticConfig
from .errors import DomainError, RangeError, Record, ResourceError, check_memory
from .operators import CoefficientOperator
from .basis import SQRT_TWO_PI, psi, psi_term, radial_factors

# The kernel table is evaluated, and output rows are convolved, in slabs
# whose arrays stay within this; at 64-128 nodes 512 KiB slabs ran as fast
# as 2 MiB ones, in less memory.
SLAB_BYTES = 2 ** 19


class GridSpec(Record):
    """Uniform grid on [-extent, extent]^2 with `nodes` points per axis."""

    extent: float
    nodes: int

    def __post_init__(self):
        if not (self.extent > 0.0 and math.isfinite(self.extent)) or self.nodes < 2:
            raise DomainError("grids need a positive, finite extent and at least two nodes")
        if not 0.0 < self.spacing < math.inf:
            raise DomainError("the grid spacing 2 * extent / (nodes - 1) must be positive "
                              "and finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.nodes - 1)

    def axis(self) -> np.ndarray:
        import numpy as np

        return np.linspace(-self.extent, self.extent, self.nodes)

    def trapezoid_weights(self) -> np.ndarray:
        """The nodes x nodes trapezoid weights, the outer product of the axis weights."""
        import numpy as np

        w = np.full(self.nodes, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return np.outer(w, w)


class GridFunction(Record, eq=False):
    """Complex samples on a GridSpec; values[i, j] = f(x1_i, x2_j)."""

    spec: GridSpec
    values: np.ndarray
    warnings: tuple[str, ...] = ()


def grid_from_function(fn, spec: GridSpec) -> GridFunction:
    """fn sampled on the grid, refused first past the memory limit: the samples, a
    complex temporary and the point temporaries of KernelFunction or psi."""
    import numpy as np

    check_memory((32 + _POINT_BYTES) * spec.nodes ** 2,
                 "a grid function on %d nodes" % spec.nodes)
    g = spec.axis()
    return GridFunction(spec, np.asarray(fn(g[:, None], g[None, :]), dtype=complex))


def sample_basis(n: int, m: int, spec: GridSpec, cfg: MagneticConfig) -> GridFunction:
    return grid_from_function(lambda u, v: psi(n, m, u, v, cfg), spec)


def grid_inner(f: GridFunction, g: GridFunction) -> complex:
    if f.spec != g.spec:
        raise DomainError("grid functions live on different grids")
    import numpy as np

    return complex((f.spec.trapezoid_weights() * np.conjugate(f.values) * g.values).sum())


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
    import numpy as np

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
    weights = spec.trapezoid_weights().ravel()
    stack = np.stack([sample_basis(n, m, spec, cfg).values.ravel() for n, m in indices])
    gram = (stack.conj() * weights) @ stack.T
    return np.abs(gram - np.eye(len(indices)))


class KernelFunction(Record):
    """Callable reduced kernel f_A of a coefficient family.

    The radial factors of the basis functions (basis.radial_factors:
    zeta, the complex base and the normalization's log) are computed once
    per call; each term (-1)^(j-k) a_jk psi_{k,j} is then built by
    basis.psi_term, the coefficient on the left, and added into one sum,
    so at most one term and one scaled Laguerre recurrence live beside
    the factors (_POINT_BYTES per point).  At two real numbers the sum
    is a complex number, made without numpy from the same terms in the
    same order.
    """

    source: CoefficientOperator
    cfg: MagneticConfig

    def __call__(self, x1, x2):
        if isinstance(x1, numbers.Real) and isinstance(x2, numbers.Real):
            total = 0j
            for _, term in self._terms(radial_factors(float(x1), float(x2), self.cfg.ell)):
                total += term
            return SQRT_TWO_PI * self.cfg.ell * total
        import numpy as np

        a1 = np.asarray(x1, dtype=float)
        a2 = np.asarray(x2, dtype=float)
        if a1.ndim == 0 and a2.ndim == 0:
            return self(float(a1), float(a2))
        total = np.zeros(np.broadcast_shapes(a1.shape, a2.shape), dtype=complex)
        self._add_into(a1, a2, total)
        return total

    def _terms(self, factors):
        """(odd, (-1)^(j-k) a_jk psi_{k,j}) at the radial factors, in sorted (j, k) order.

        The coefficient is on the left, as in a_jk * psi: numpy's complex
        product need not commute in the last bit.
        """
        for (j, k), v in sorted(self.source.entries.items()):
            odd = (j - k) % 2
            yield odd, (-v if odd else v) * psi_term(k, j, *factors)

    def _add_into(self, a1, a2, total, mirror=None):
        """Add f_A at the points (a1, a2) into `total`, and f_A at (-a1, -a2)
        on their last len(mirror) rows into `mirror`.

        psi_{k,j}(-x) = (-1)^(j-k) psi_{k,j}(x), so each term goes into
        mirror with the sign of its parity: f_A(-x) = E(x) - O(x) for the
        even and odd parts E and O, summed in the same order as f_A(x).
        """
        import numpy as np

        if not self.source.entries:
            return
        for odd, term in self._terms(radial_factors(a1, a2, self.cfg.ell)):
            total += term
            if mirror is not None:
                signed = np.subtract if odd else np.add
                signed(mirror, term[len(term) - len(mirror):], out=mirror)
            del term
        scale = SQRT_TWO_PI * self.cfg.ell
        np.multiply(scale, total, out=total)
        if mirror is not None:
            np.multiply(scale, mirror, out=mirror)


def kernel_at_zero(s: CoefficientOperator, cfg: MagneticConfig) -> complex:
    """f_S(0): the diagonal coefficient sum, and the trace per unit volume.

    Off-diagonal basis functions vanish at the origin, so the kernel series
    collapses onto the diagonal there.  The value does not depend on ell.
    S commutes with the magnetic translations, so its kernel diagonal is the
    constant f_S(0)/(2 pi ell^2), and every Folner box average of it, scaled
    by omega_ell/2 = 2 pi ell^2, is f_S(0).
    """
    return KernelFunction(s, cfg)(0.0, 0.0)


def _edge_band_fraction(values: np.ndarray, cells1: int, cells2: int) -> float:
    """Share of the moduli within cells1 rows and cells2 columns of the boundary."""
    import numpy as np

    moduli = np.abs(values)
    total = float(moduli.sum())
    if total == 0.0:
        return 0.0
    rows, cols = moduli.shape
    return (total - float(moduli[cells1:rows - cells1, cells2:cols - cells2].sum())) / total


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


def _slab_shape(nodes: int, length: int) -> tuple[int, int]:
    """Output rows and input rows per slab, so that one slab stays within SLAB_BYTES.

    A slab holds whole output rows, nodes input rows each, where one fits;
    otherwise it holds part of one output row, split along the input rows.
    """
    rows = max(1, min(nodes, SLAB_BYTES // (nodes * length * 16)))
    return rows, max(1, min(nodes, SLAB_BYTES // (length * 16)))


# Temporaries of KernelFunction._add_into, in bytes per point: zeta (8),
# the complex base (16) and one term at a time (36: the scaled Laguerre
# recurrence's three float arrays and three int32 arrays, its exponent
# and two shifts, which also bound the term's power with the Laguerre
# factor and the folded log, or with its product by the coefficient).
_POINT_BYTES = 60


def check_convolution_budget(spec: GridSpec) -> None:
    """Raise ResourceError when apply_kernel on `spec` would pass the memory limit.

    One count is checked, before anything is allocated, for n nodes and
    the FFT length L:

    - the (2n-1) x L kernel table, which holds the kernel rows and then
      their FFTs;
    - the n x L FFT of the chirped input;
    - five n x n complex arrays: the input, the chirp that the output
      overwrites, its conjugate square, and the translated input and left
      side of commutant_residual;
    - one slab, SLAB_BYTES, and the sums over the input rows of its
      output rows, two n-vectors per output row;
    - numpy's buffers, twice its ufunc buffer of complex numbers.

    Tabulating the kernel holds less at every n >= 2, so it needs no
    count of its own: beside the table, one slab of point temporaries
    (within SLAB_BYTES), the buffers, and at most three n x n complex
    arrays (the translated input, then the moduli of the boundary share
    or the chirp's n x n quadrant and its conjugate).  So does the last
    magnetic translation of commutant_residual: beside the table and four
    n x n arrays, two complex and one real, which the input FFT's count
    covers.
    """
    import numpy as np

    n = spec.nodes
    length = _fft_length(2 * n - 1)
    grid = 16 * ((2 * n - 1) * length + n * length + 5 * n * n)
    slab = SLAB_BYTES + 32 * n * _slab_shape(n, length)[0]
    check_memory(grid + slab + 32 * np.getbufsize(), "the twisted convolution on %d nodes" % n)


def _kernel_rows(s: CoefficientOperator, spec: GridSpec, cfg: MagneticConfig) -> np.ndarray:
    """The (2n-1) x L kernel table, rows reversed and zero-padded.

    Row d + n - 1 holds f_S(d h, (n - 1 - m) h) at column m = 0..2n-2.
    Only the rows d >= 0 are evaluated: row -d, read backwards, is
    f_S(-x) on row d, which KernelFunction adds up from the same terms
    with the signs of their parities.  Both are summed straight into the
    table; row 0 is written once, from the direct sum.  The rows d >= 0
    go in slabs, each with its mirrored rows, so that the temporaries of
    one slab (_POINT_BYTES per point) stay within SLAB_BYTES.
    """
    import numpy as np

    n = spec.nodes
    size = 2 * n - 1
    diffs = np.arange(-(n - 1), n) * spec.spacing
    rows = np.zeros((size, _fft_length(size)), dtype=complex)
    # upper[d] is row d >= 0, read backwards, and lower[d - 1] row -d
    upper, lower = rows[n - 1:, size - 1::-1], rows[n - 2::-1, :size]
    kernel = KernelFunction(s, cfg)
    step = max(1, SLAB_BYTES // (_POINT_BYTES * size))
    for start in range(0, n, step):
        stop = min(start + step, n)
        kernel._add_into(diffs[n - 1 + start:n - 1 + stop, None], diffs[None, :],
                         upper[start:stop], lower[max(start, 1) - 1:stop - 1])
    return rows


def _tabulate(s: CoefficientOperator, spec: GridSpec,
              cfg: MagneticConfig) -> tuple[np.ndarray, float]:
    """The kernel table's row FFTs, and the share of its mass on its boundary.

    Row d + n - 1 is the length-L FFT of the chirped, reversed row
    f_S(d h, e h) e^{-i d e h^2 / 2 ell^2}, e = n - 1 - m for m = 0..2n-2.
    """
    import numpy as np

    check_convolution_budget(spec)
    n = spec.nodes
    spectra = _kernel_rows(s, spec, cfg)
    edge = _edge_band_fraction(spectra[:, :2 * n - 1], 1, 1)
    # the chirp e^{-i d e h^2 / 2 ell^2} on the quadrant d, e >= 0 of lattice
    # steps: it is even under (d, e) -> (-d, -e) and conjugate under e -> -e
    steps = np.arange(n, dtype=float)
    quadrant = np.outer(steps, steps) * (-1j * spec.spacing ** 2 / (2.0 * cfg.ell ** 2))
    np.exp(quadrant, out=quadrant)
    conjugate = quadrant.conj()
    # upper[d] is row d >= 0 and lower[d - 1] row -d; columns n-1..0 hold
    # e = 0..n-1 and columns n..2n-2 hold e = -1..-(n-1)
    upper, lower = spectra[n - 1:], spectra[n - 2::-1]
    upper[:, n - 1::-1] *= quadrant
    upper[:, n:2 * n - 1] *= conjugate[:, 1:]
    lower[:, n - 1::-1] *= conjugate[1:]
    lower[:, n:2 * n - 1] *= quadrant[1:, 1:]
    np.fft.fft(spectra, axis=1, out=spectra)
    return spectra, edge


def _convolve(table: np.ndarray, edge: float, phi: GridFunction,
              cfg: MagneticConfig) -> GridFunction:
    import numpy as np

    spec = phi.spec
    n = spec.nodes
    g = spec.axis()
    tail = _edge_band_fraction(phi.values, 1, 1)
    length = table.shape[1]
    # phase[i1, i2] = e^{i g_i1 g_i2 / 2 ell^2} chirps the input, and then
    # the output: each slab's sums are multiplied into its rows in place
    phase = np.exp(1j * np.outer(g, g) / (2.0 * cfg.ell ** 2))
    # spectrum[j1] is the FFT of W[j1, j2] e^{i g_j1 g_j2 / 2 ell^2} over j2,
    # zero-padded to the length L, transformed once and in place
    spectrum = np.zeros((n, length), dtype=complex)
    np.multiply(spec.trapezoid_weights(), phi.values, out=spectrum[:, :n])
    spectrum[:, :n] *= phase
    np.fft.fft(spectrum, axis=-1, out=spectrum)
    back = np.conjugate(phase)
    back *= back
    # rows[s, j1] is the spectrum of kernel row j1 - i1 for s = n - 1 - i1
    rows = np.lib.stride_tricks.sliding_window_view(table, n, axis=0)
    rows = rows.transpose(0, 2, 1)
    step, width = _slab_shape(n, length)
    buffer = np.empty((step, width, length), dtype=complex)
    for start in range(0, n, step):
        stop = min(start + step, n)
        # a row wider than a slab goes in pieces of `width` input rows j1
        for first in range(0, n, width):
            last = min(first + width, n)
            slab = buffer[:stop - start, :last - first]
            np.multiply(rows[n - stop: n - start][::-1, first:last], spectrum[first:last],
                        out=slab)
            np.fft.ifft(slab, axis=-1, out=slab)
            # lag i2 sits at index n - 1 + i2
            part = np.einsum("ajk,kj->ak", slab[:, :, n - 1: 2 * n - 1], back[:, first:last])
            if first:
                sums += part
            else:
                sums = part
        out = phase[start:stop]
        np.multiply(sums, out, out=out)
    phase /= 2.0 * math.pi * cfg.ell ** 2
    warnings = phi.warnings
    if tail > 1e-9 or edge > 1e-9:
        warnings += ("grid may be too small: boundary carries %.1e of the data mass"
                     % max(tail, edge),)
    return GridFunction(spec, phase, warnings)


def apply_kernel(s: CoefficientOperator, phi: GridFunction,
                 cfg: MagneticConfig) -> GridFunction:
    """Twisted convolution of the kernel of S with the grid function phi.

    The kernel is tabulated once on the lattice of grid differences, on
    its rows d1 >= 0 only, in slabs: the parity of each term gives the
    rows d1 < 0 (see _kernel_rows), summed straight into the array that
    the row FFTs then overwrite.  The phase x ^ y is rewritten exactly as
    x1 x2 - 2 x2 y1 + y1 y2 - (y1 - x1)(y2 - x2): the last chirp,
    e^{-i d1 d2 / 2 ell^2} of the difference d = y - x, rides on the
    table, and the chirp e^{i y1 y2 / 2 ell^2} on the input.  For fixed
    (x1, y1) the y2-sum is then a 1-D correlation of one chirped input
    row with one table row, run as FFTs of a 5-smooth length L >= 2n - 1
    (so nothing aliases into the kept lags): one forward FFT per input
    row, and n**2 inverse FFTs, one per pair (x1, y1).  The y1-sum
    against e^{-2i x2 y1 / 2 ell^2} is one contraction, and
    e^{i x1 x2 / 2 ell^2} multiplies the result.  Cost grows like
    nodes**3 log(nodes).  Output rows go in slabs of at most SLAB_BYTES
    through one buffer, allocated once per call, where the product of the
    table and input spectra and its inverse FFT run in place; a row wider
    than a slab goes in pieces of input rows y1, whose sums add up.  So
    beside the table, the input spectrum and a few grid-sized arrays, no
    buffer passes SLAB_BYTES at any grid size.  ResourceError is raised
    before allocating when this would pass the memory limit
    (check_convolution_budget says what it counts; grids of more than
    1226 nodes per axis).  Grids around 128 nodes per axis keep sup
    errors near 1e-7 for low-index data.
    """
    return _convolve(*_tabulate(s, phi.spec, cfg), phi, cfg)


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
    # the phase ramp below reaches pi (|a1| + |a2|) / h, and the magnetic
    # phase extent (|a1| + |a2|) / (2 ell^2): both are checked before any FFT
    reach = abs(a1) + abs(a2)
    if not math.isfinite(math.pi * reach / h + spec.extent * reach / (2.0 * cfg.ell ** 2)):
        raise DomainError("magnetic translations need a finite displacement whose phases "
                          "pi (|a1| + |a2|) / h and extent (|a1| + |a2|) / (2 ell^2) are finite")
    import numpy as np

    g = spec.axis()
    freq = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    # fft2 and ifft2 one axis at a time, in the same order, and everything
    # else in place, so that at most two complex and one real grid-sized
    # array live beside the input
    spectrum = np.fft.fft(phi.values, axis=1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    ramp = -1j * (freq[:, None] * a1 + freq[None, :] * a2)
    spectrum *= np.exp(ramp, out=ramp)
    del ramp
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    phase = 1j * (g[:, None] * a2 - g[None, :] * a1)
    phase /= 2.0 * cfg.ell ** 2
    np.exp(phase, out=phase)
    phase *= spectrum
    del spectrum
    cells1 = min(int(math.ceil(abs(a1) / h)), n // 2)
    cells2 = min(int(math.ceil(abs(a2) / h)), n // 2)
    warnings = phi.warnings
    if _edge_band_fraction(phi.values, cells1, cells2) > 1e-9:
        warnings += ("translated support clipped: data mass within |a| of the boundary",)
    return GridFunction(spec, phase, warnings)


def commutant_residual(s: CoefficientOperator, a, phi: GridFunction,
                       cfg: MagneticConfig) -> float:
    """Relative defect || (S V(a) - V(a) S) phi || / || phi ||.

    Coefficient families commute with every magnetic translation, so this
    should vanish up to quadrature error; operators outside the commutant
    (multiplication by a coordinate, say) show an order-one residual.
    The source is first scaled by 2^-e, with 2^e the power of two just
    above its largest entry part, so a source near the largest double
    gives a finite kernel; the defect is linear in S, so the residual is
    scaled back by 2^e, and scaling by a power of two changes no bit
    unless a value leaves the normal range.  A residual past the largest
    double is refused with RangeError.
    """
    norm = grid_norm(phi)
    if norm == 0.0:
        raise DomainError("commutant residual needs a nonzero test function")
    top = max((max(abs(v.real), abs(v.imag)) for v in s.entries.values()), default=0.0)
    scale = math.frexp(top)[1]
    s = CoefficientOperator({key: complex(math.ldexp(v.real, -scale), math.ldexp(v.imag, -scale))
                             for key, v in s.entries.items()}, s.declared_class)
    shifted = magnetic_translate(a, phi, cfg)
    table, edge = _tabulate(s, phi.spec, cfg)
    lhs = _convolve(table, edge, shifted, cfg)
    rhs = magnetic_translate(a, _convolve(table, edge, phi, cfg), cfg)
    defect = GridFunction(phi.spec, lhs.values - rhs.values)
    try:
        return math.ldexp(grid_norm(defect) / norm, scale)
    except OverflowError:
        raise RangeError("the commutant residual passes the largest double") from None

