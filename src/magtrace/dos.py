"""Integrated density of states and DOS measures of the Landau Hamiltonian.

The Landau Hamiltonian is diagonal in the Landau index with levels
j + 1/2 that do not depend on the degeneracy index, so spectral
projections are finite sums of level projections and the IDOS is the
level count weighted by idos_scale = 1/(2 pi ell^2).  The DOS is the
purely atomic measure whose distribution function is the IDOS; its
pairing with compactly supported test functions is cross-checked against
the canonical trace and against the Dixmier estimator.
"""

from __future__ import annotations

import bisect
import math

from . import errors
from .config import MagneticConfig
from .errors import DomainError, RangeError, Record, ResourceError, check_positive_int
from .extrapolate import ConvergenceTable, log_inverse_table
from .operators import CoefficientOperator, weighted_product
from .traces import tau_diagonal, tau_shell

# Peak bytes per level of the routes below: one DOS atom or one coefficient
# entry of a projection or f(H), as Python objects (at most about 320
# measured, for f(H); 512 leaves room).
LEVEL_BYTES = 512


class LandauOperator(Record):
    """Landau Hamiltonian truncated to its levels j + 1/2 for j < truncation.

    tail_inf, the lowest level beyond the truncation, bounds every level
    not held, so spectral projections below it are exactly representable.
    Build one with landau_hamiltonian.
    """

    truncation: int

    @property
    def tail_inf(self) -> float:
        return self.truncation + 0.5


def landau_hamiltonian(truncation: int) -> LandauOperator:
    """Landau Hamiltonian with levels j + 1/2 for j < truncation.

    The truncation must be an integer of at least 1, and the memory budget
    is checked for LEVEL_BYTES per level before any route builds one.  The
    refusal gives the level count by %g, so a huge one is not spelled out.
    """
    check_positive_int(truncation, "the Landau truncation")
    limit = errors.MEMORY_LIMIT_BYTES // LEVEL_BYTES
    if truncation > limit:
        levels = "%g" % truncation if truncation < 1e308 else "over 1e+308"
        raise ResourceError("a Landau operator with %s levels is over the limit of %d levels, "
                            "%d bytes" % (levels, limit, errors.MEMORY_LIMIT_BYTES))
    return LandauOperator(int(truncation))


def spectral_projection(op: LandauOperator, eps: float) -> CoefficientOperator:
    """Projection onto levels j + 1/2 <= eps as a diagonal coefficient family.

    The threshold convention is half-open from above: a level equal to eps
    is included.  eps must be finite and stay below tail_inf (levels beyond
    the truncation could not be accounted for).
    """
    if not math.isfinite(eps):
        raise DomainError("the threshold must be finite")
    if eps >= op.tail_inf:
        raise RangeError("threshold %g reaches levels beyond the truncation "
                         "(tail bound %g)" % (eps, op.tail_inf))
    entries = {(j, j): 1.0 for j in range(op.truncation) if j + 0.5 <= eps}
    return CoefficientOperator(entries, "L1")


def idos(op: LandauOperator, eps: float, cfg: MagneticConfig) -> float:
    """Integrated density of states: idos_scale times the level count."""
    projection = spectral_projection(op, eps)
    return cfg.idos_scale * tau_diagonal(projection).real


class DOSMeasure(Record):
    """Purely atomic DOS: sorted atoms (energy, weight)."""

    atoms: tuple[tuple[float, float], ...]

    def integrate(self, fn) -> float:
        return math.fsum(w * fn(e) for e, w in self.atoms)


def dos_measure(op: LandauOperator, cfg: MagneticConfig) -> DOSMeasure:
    """Atomic DOS with one atom per level, of weight idos_scale."""
    return DOSMeasure(atoms=tuple((j + 0.5, cfg.idos_scale) for j in range(op.truncation)))


class CompactTestFunction(Record):
    """Continuous piecewise-linear function vanishing outside its nodes.

    Nodes are finite (energy, value) pairs with strictly increasing
    energies; the first and last values must vanish so the function is
    continuous on the whole line with compact support [nodes[0], nodes[-1]].
    """

    nodes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise DomainError("a test function needs at least two nodes")
        if not all(math.isfinite(x) for node in self.nodes for x in node):
            raise DomainError("test function nodes must be finite")
        energies = [e for e, _ in self.nodes]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise DomainError("test function nodes must be strictly increasing")
        if self.nodes[0][1] != 0.0 or self.nodes[-1][1] != 0.0:
            raise DomainError("test functions must vanish at the support endpoints")

    @property
    def support(self) -> tuple[float, float]:
        return self.nodes[0][0], self.nodes[-1][0]

    def __call__(self, eps: float) -> float:
        """f(eps), by numpy.interp's arithmetic, bit for bit, without numpy."""
        x = float(eps)
        if math.isnan(x):
            return x
        lo, hi = self.support
        if x <= lo or x >= hi:
            return 0.0
        xs = [float(e) for e, _ in self.nodes]
        ys = [float(v) for _, v in self.nodes]
        j = bisect.bisect_right(xs, x) - 1
        if xs[j] == x:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        value = slope * (x - xs[j]) + ys[j]
        if math.isnan(value):
            # a difference overflowed: numpy tries the other end, NaN only for a NaN slope
            value = slope * (x - xs[j + 1]) + ys[j + 1]
        return value


def functional_calculus(op: LandauOperator, fn: CompactTestFunction) -> CoefficientOperator:
    """Diagonal family f(H) with entries f(j + 1/2); requires representability.

    The support must stay below the tail bound, so that no level outside
    the truncation can carry a nonzero value of f.
    """
    hi = fn.support[1]
    if hi >= op.tail_inf:
        raise RangeError("test function support %g reaches levels beyond the "
                         "truncation (tail bound %g)" % (hi, op.tail_inf))
    entries = {(j, j): v for j in range(op.truncation) if (v := fn(j + 0.5)) != 0.0}
    return CoefficientOperator(entries, "L1")


class SpectralCheck(Record):
    trace_value: float
    measure_value: float

    @property
    def gap(self) -> float:
        return abs(self.trace_value - self.measure_value)


def spectral_formula_check(op: LandauOperator, fn: CompactTestFunction,
                           cfg: MagneticConfig) -> SpectralCheck:
    """tau(f(H)) against (omega_ell / 2) * integral of f against the DOS."""
    lhs = tau_diagonal(functional_calculus(op, fn)).real
    rhs = 0.5 * cfg.omega_ell * dos_measure(op, cfg).integrate(fn)
    return SpectralCheck(trace_value=lhs, measure_value=rhs)


def idos_shell_approx(op: LandauOperator, eps: float, n_grid,
                      cfg: MagneticConfig) -> ConvergenceTable:
    """Energy-shell route to the IDOS: idos_scale times tau_shell of P.

    P is the spectral projection at threshold eps.  The raw column
    idos_scale * (1/log N) * sum_{j<=N} w_j(P) approaches the IDOS from
    above like 1/log N.  The accelerated column applies the harmonic
    rearrangement, collapsing to idos_scale times the partial diagonal
    sum, which is exact once N covers the projection.
    """
    shell = tau_shell(spectral_projection(op, eps), n_grid)
    return log_inverse_table(shell.params, [cfg.idos_scale * v.real for v in shell.raw],
                             [cfg.idos_scale * v.real for v in shell.accelerated])


class DixmierDOSCheck(Record):
    dixmier_value: float
    measure_value: float
    table: ConvergenceTable

    @property
    def gap(self) -> float:
        return abs(self.dixmier_value - self.measure_value)


def dixmier_dos_check(op: LandauOperator, fn: CompactTestFunction,
                      cfg: MagneticConfig, form: str = "left", lam: float = 0.0,
                      lam2: float | None = None, m_max: int = 2000) -> DixmierDOSCheck:
    """Dixmier estimate of the weighted f(H) against the DOS pairing.

    Both the Dixmier trace of Q_lam^{-1} f(H) and the scaled DOS pairing
    (omega_ell / 2) * integral f dDOS reduce to sum_j f(j + 1/2); the check
    reports the extrapolated estimate, the measure value and their gap.
    Test functions may take negative values, so the estimate sums signed
    eigenvalues rather than singular values.
    """
    # here, not at the top: the other dos routes do not load dixmier
    from .dixmier import checkpoint_ladder, collect_spectrum, dixmier_estimate

    family = functional_calculus(op, fn)
    weighted = weighted_product(family, form, lam, lam2)
    n_max = max(family.max_index + 1, 1)
    spectrum = collect_spectrum(weighted, m_max=m_max, n_max=n_max, kind="eigen")
    table = dixmier_estimate(spectrum, checkpoint_ladder(spectrum))
    measure_value = 0.5 * cfg.omega_ell * dos_measure(op, cfg).integrate(fn)
    return DixmierDOSCheck(dixmier_value=float(complex(table.extrapolated).real),
                           measure_value=measure_value, table=table)
