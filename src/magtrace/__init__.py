"""Trace calculus for magnetic transition operators.

Operators on the magnetic plane are stored through their coefficients in
the transition-operator basis.  The package computes the canonical trace
by four independent routes (diagonal series, zeta-function residue,
energy-shell averages, ordered-eigenbasis averages), estimates Dixmier
traces from partial sums of singular values, and derives the integrated
density of states of Landau Hamiltonians, cross-checking every quantity
against at least one alternative formula.
"""

from .basis import laguerre_poly, psi
from .config import MagneticConfig, make_config
from .dixmier import (
    SpectralTail,
    Spectrum,
    calderon_norm,
    checkpoint_ladder,
    collect_spectrum,
    deep_ladder,
    dixmier_estimate,
    gamma,
    shell_checkpoints,
    shell_spectrum,
    sigma_p,
    tauberian_residue,
    tauberian_zeta,
)
from .dos import (
    CompactTestFunction,
    DOSMeasure,
    LandauDiagonalOperator,
    dixmier_dos_check,
    dos_measure,
    functional_calculus,
    idos,
    idos_shell_approx,
    landau_hamiltonian,
    spectral_formula_check,
    spectral_projection,
)
from .errors import (
    CalculusError,
    DomainError,
    RangeError,
    ResourceError,
)
from .extrapolate import ConvergenceTable, log_inverse_fit, richardson_zero
from .kernels import (
    GridFunction,
    GridSpec,
    apply_kernel,
    commutant_residual,
    folner_trace,
    grid_from_function,
    grid_inner,
    grid_norm,
    kernel_at_zero,
    magnetic_translate,
    orthonormality_check,
    sample_basis,
)
from .operators import (
    CoefficientOperator,
    DiagonalWeight,
    WeightedProduct,
    absorb_product,
    adjoint,
    coefficient_bound_check,
    compose,
    lp_norm,
    matrix_block,
    weighted_product,
)
from .traces import (
    completed_shells,
    hurwitz_zeta,
    shell_average,
    tau_diagonal,
    tau_ordered_basis,
    tau_residue,
    tau_shell,
    theta,
)

__version__ = "0.1.0"

__all__ = [
    "CalculusError",
    "CoefficientOperator",
    "CompactTestFunction",
    "ConvergenceTable",
    "DOSMeasure",
    "DiagonalWeight",
    "DomainError",
    "GridFunction",
    "GridSpec",
    "LandauDiagonalOperator",
    "MagneticConfig",
    "RangeError",
    "ResourceError",
    "SpectralTail",
    "Spectrum",
    "WeightedProduct",
    "absorb_product",
    "adjoint",
    "apply_kernel",
    "calderon_norm",
    "checkpoint_ladder",
    "coefficient_bound_check",
    "collect_spectrum",
    "commutant_residual",
    "completed_shells",
    "compose",
    "deep_ladder",
    "dixmier_dos_check",
    "dixmier_estimate",
    "dos_measure",
    "folner_trace",
    "functional_calculus",
    "gamma",
    "grid_from_function",
    "grid_inner",
    "grid_norm",
    "hurwitz_zeta",
    "idos",
    "idos_shell_approx",
    "kernel_at_zero",
    "laguerre_poly",
    "landau_hamiltonian",
    "log_inverse_fit",
    "lp_norm",
    "magnetic_translate",
    "make_config",
    "matrix_block",
    "orthonormality_check",
    "psi",
    "richardson_zero",
    "sample_basis",
    "shell_average",
    "shell_checkpoints",
    "shell_spectrum",
    "sigma_p",
    "spectral_formula_check",
    "spectral_projection",
    "tau_diagonal",
    "tau_ordered_basis",
    "tau_residue",
    "tau_shell",
    "tauberian_residue",
    "tauberian_zeta",
    "theta",
    "weighted_product",
]
