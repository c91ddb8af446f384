"""Trace calculus for magnetic transition operators.

Operators on the magnetic plane are stored through their coefficients in
the transition-operator basis.  The package computes the canonical trace
by four independent routes (diagonal series, zeta-function residue,
energy-shell averages, ordered-eigenbasis averages), estimates Dixmier
traces from partial sums of singular values, and derives the integrated
density of states of Landau Hamiltonians, cross-checking every quantity
against at least one alternative formula.

`import magtrace` loads no submodule: each exported name is imported from
its module on first use (PEP 562), so a command pays only for the modules
it touches.
"""

import importlib

__version__ = "0.1.0"

# Each module once, with the public names that the package exports from it.
EXPORTS = {
    "basis": ("psi",),
    "config": ("MagneticConfig", "make_config"),
    "dixmier": ("Spectrum", "calderon_norm", "checkpoint_ladder", "collect_spectrum",
                "dixmier_estimate", "gamma", "shell_checkpoints", "shell_spectrum",
                "sigma_p", "tauberian_residue", "tauberian_zeta"),
    "dos": ("CompactTestFunction", "DOSMeasure", "dixmier_dos_check", "dos_measure",
            "functional_calculus", "idos", "idos_shell_approx", "landau_hamiltonian",
            "spectral_formula_check", "spectral_projection"),
    "errors": ("CalculusError", "DomainError", "RangeError", "ResourceError"),
    "extrapolate": ("ConvergenceTable", "log_inverse_fit", "richardson_zero"),
    "kernels": ("GridFunction", "GridSpec", "apply_kernel", "commutant_residual",
                "grid_from_function", "grid_inner", "grid_norm", "kernel_at_zero",
                "magnetic_translate", "orthonormality_check", "sample_basis"),
    "operators": ("CoefficientOperator", "DiagonalWeight", "WeightedProduct",
                  "absorb_product", "adjoint", "coefficient_bound_check", "compose",
                  "lp_norm", "matrix_block", "weighted_product"),
    "traces": ("completed_shells", "hurwitz_zeta", "shell_average", "tau_diagonal",
               "tau_ordered_basis", "tau_residue", "tau_shell", "theta"),
}

_HOME = {name: module for module, names in EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import an exported name's module on first use and keep the name here."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
