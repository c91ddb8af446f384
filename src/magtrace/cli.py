"""Command line front end.

Subcommands mirror the library modules: basis, op, kernel, trace, dixmier,
dos, and a cross-engine compare.  Exit codes: 0 on success, 2 when a
precondition is violated, 3 when a limit is computed but flagged as
non-convergent, 64 on usage errors.  Reports are deterministic for fixed
inputs and budgets; JSON output is canonical (sorted keys, floats at 17
significant digits) so emitted reports round-trip byte for byte.  CSV
output lists each leaf of the same report as a key,value row: its dotted
path, such as table.raw.0.re, and its JSON text (strings raw, null empty).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import dixmier as dx
from . import dos as dosmod
from . import kernels, serialize, traces
from .basis import psi
from .config import make_config
from .errors import CalculusError, DomainError
from .kernels import GridSpec
from .operators import (WEIGHT_FORMS, adjoint, compose, lp_norm, matrix_block,
                        weighted_product)

FORMAT_VERSION = "1"
X_GRID = (1e-1, 1e-2, 1e-3)  # residue-route samples, the same in every budget profile


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class Budget:
    shells: int
    n_grid: tuple[int, ...]
    ordered_shells: tuple[int, ...]
    kernel_nodes: int
    kernel_extent_ells: float

    @property
    def ordered_grid(self) -> tuple[int, ...]:
        """State counts N = e(e+1)/2 - 1 that close the ordered shells e."""
        return tuple(e * (e + 1) // 2 - 1 for e in self.ordered_shells)


BUDGETS = {
    "full": Budget(shells=512, n_grid=(100, 1000, 10000),
                   ordered_shells=(250, 500, 1000, 2000),
                   kernel_nodes=128, kernel_extent_ells=10.0),
    "quick": Budget(shells=128, n_grid=(100, 1000), ordered_shells=(60, 125, 250, 500),
                    kernel_nodes=96, kernel_extent_ells=9.0),
}


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError("expected a comma-separated list of numbers: %r" % text) from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    values = _parse_floats(text)
    if not all(v.is_integer() for v in values):
        raise UsageError("expected a comma-separated list of integers: %r" % text)
    # an all-digit entry is read exactly, not rounded through float
    return tuple(int(p) if p.isdigit() else int(v) for p, v in zip(text.split(","), values))


# Every flag once, with its add_argument keywords; GLOBAL_FLAGS precede the subcommand.
FLAGS = {
    "--ell": dict(type=float, default=1.0, help="magnetic length (default 1.0)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None, help="write the report to a file"),
    "--seed": dict(type=int, default=None,
                   help="reserved; no randomized algorithms are used"),
    "--budget-profile": dict(choices=tuple(BUDGETS), default="full"),
    "--n": dict(type=int, required=True),
    "--m": dict(type=int, required=True),
    "--x1": dict(type=float, required=True),
    "--x2": dict(type=float, required=True),
    "--max-index": dict(type=int, default=4),
    "--extent": dict(type=float, default=None),
    "--nodes": dict(type=int, default=None),
    "--in": dict(dest="infile", required=True),
    "--in2": dict(dest="infile2", required=True),
    "--op": dict(dest="infile", required=True),
    "--p": dict(type=float, required=True),
    "--N": dict(dest="count", type=int, required=True),
    "--save": dict(default=None, help="also write the resulting operator to this path"),
    "--R": dict(dest="radius", type=float, default=8.0),
    "--a1": dict(type=float, required=True),
    "--a2": dict(type=float, required=True),
    "--lambda": dict(dest="lam", type=float, default=0.0),
    "--lambda2": dict(dest="lam2", type=float, default=None),
    "--xgrid": dict(type=_parse_floats, default=X_GRID),
    "--Ngrid": dict(dest="ngrid", type=_parse_ints, default=None),
    "--form": dict(choices=WEIGHT_FORMS, default="left"),
    "--shells": dict(type=int, default=None),
    "--eps": dict(type=float, required=True),
    "--J": dict(dest="truncation", type=int, default=16),
    "--f": dict(dest="testfn", required=True),
}
GLOBAL_FLAGS = ("--ell", "--format", "--out", "--seed", "--budget-profile")


# -- helpers ------------------------------------------------------------


def _load(args):
    return serialize.load_operator(args.infile)


def _weighted_spectrum(op, form, lam, lam2, shells, budget, kind=None):
    shells = budget.shells if shells is None else shells
    product = weighted_product(op, form, lam, lam2, s=1.0)
    n_max = max(op.max_index + 1, 1)
    if kind is None:
        diag_real = op.is_diagonal and all(abs(v.imag) == 0.0 for v in op.entries.values())
        kind = "eigen" if diag_real else "singular"
    spectrum = dx.collect_spectrum(product, m_max=shells - 1, n_max=n_max, kind=kind)
    return spectrum, shells, kind


# -- basis / op / kernel handlers ----------------------------------------


def cmd_basis_eval(args, cfg, budget):
    value = psi(args.n, args.m, args.x1, args.x2, cfg)
    return {"value": complex(value)}, True


def cmd_basis_gram(args, cfg, budget):
    errors = kernels.orthonormality_check(args.max_index, cfg, args.extent, args.nodes)
    return {"max_index": args.max_index, "max_error": float(errors.max()),
            "errors": [[float(v) for v in row] for row in errors]}, True


def cmd_op_compose(args, cfg, budget):
    result = compose(_load(args), serialize.load_operator(args.infile2))
    if args.save:
        serialize.save_operator(result, args.save)
    return {"operator": serialize.operator_to_dict(result)}, True


def cmd_op_adjoint(args, cfg, budget):
    result = adjoint(_load(args))
    if args.save:
        serialize.save_operator(result, args.save)
    return {"operator": serialize.operator_to_dict(result)}, True


def cmd_op_norm(args, cfg, budget):
    return {"p": args.p, "norm": lp_norm(_load(args), args.p)}, True


def cmd_op_block(args, cfg, budget):
    block = matrix_block(_load(args), args.count)
    return {"entries": [[complex(v) for v in row] for row in block],
            "trace": complex(np.trace(block))}, True


def cmd_kernel_eval(args, cfg, budget):
    value = kernels.kernel_of(_load(args), cfg)(args.x1, args.x2)
    return {"value": complex(value)}, True


def cmd_kernel_folner(args, cfg, budget):
    value = kernels.folner_trace(_load(args), args.radius, cfg)
    return {"radius": args.radius, "value": complex(value)}, True


def cmd_kernel_commutant(args, cfg, budget):
    extent = budget.kernel_extent_ells * cfg.ell if args.extent is None else args.extent
    nodes = budget.kernel_nodes if args.nodes is None else args.nodes
    spec = GridSpec(extent=extent, nodes=nodes)
    kernels.check_convolution_budget(spec)
    phi = kernels.sample_basis(0, 0, spec, cfg)
    residual = kernels.commutant_residual(_load(args), (args.a1, args.a2), phi, cfg)
    return {"a": [args.a1, args.a2], "residual": residual,
            "grid": {"extent": extent, "nodes": nodes}}, True


# -- trace handlers -------------------------------------------------------


def cmd_trace_diag(args, cfg, budget):
    return {"value": complex(traces.tau_diagonal(_load(args)))}, True


def cmd_trace_residue(args, cfg, budget):
    table = traces.tau_residue(_load(args), args.lam, args.xgrid)
    return {"lambda": args.lam, "table": table}, table.converged


def cmd_trace_shell(args, cfg, budget):
    n_grid = budget.n_grid if args.ngrid is None else args.ngrid
    table = traces.tau_shell(_load(args), n_grid)
    return {"table": table}, table.converged


def cmd_trace_ordered(args, cfg, budget):
    n_grid = budget.ordered_grid if args.ngrid is None else args.ngrid
    table = traces.tau_ordered_basis(_load(args), n_grid)
    doubled = 2.0 * complex(table.extrapolated)
    return {"table": table, "doubled": doubled}, table.converged


# -- dixmier handlers ------------------------------------------------------


def cmd_dixmier_spectrum(args, cfg, budget):
    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget)
    head = [complex(v) for v in spectrum.values[:16]]
    return {"kind": kind, "shells": shells, "count": len(spectrum),
            "reliable": spectrum.reliable, "head": head,
            "provenance": spectrum.provenance}, True


def cmd_dixmier_gamma(args, cfg, budget):
    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget, kind="singular")
    return {"N": args.count, "gamma": dx.gamma(spectrum, args.count),
            "calderon": dx.calderon_norm(spectrum)}, True


def cmd_dixmier_estimate(args, cfg, budget):
    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget)
    table = dx.dixmier_estimate(spectrum, dx.deep_ladder(spectrum))
    return {"kind": kind, "shells": shells, "table": table}, table.converged


def cmd_dixmier_tauberian(args, cfg, budget):
    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget, kind="singular")
    table = dx.tauberian_residue(spectrum, args.xgrid)
    return {"shells": shells, "table": table}, table.converged


# -- dos handlers -----------------------------------------------------------


def _dos_operator(minimum: float) -> dosmod.LandauDiagonalOperator:
    """The Landau levels that cover a threshold or support end `minimum`."""
    if not math.isfinite(minimum):
        raise DomainError("the threshold must be finite")
    return dosmod.landau_hamiltonian(max(64, int(minimum + 2.0)))


def cmd_dos_idos(args, cfg, budget):
    op = _dos_operator(args.eps)
    return {"eps": args.eps, "idos": dosmod.idos(op, args.eps, cfg)}, True


def cmd_dos_measure(args, cfg, budget):
    op = dosmod.landau_hamiltonian(args.truncation)
    measure = dosmod.dos_measure(op, cfg)
    return {"atoms": [[e, w] for e, w in measure.atoms]}, True


def cmd_dos_spectral(args, cfg, budget):
    fn = serialize.load_test_function(args.testfn)
    op = _dos_operator(fn.support[1])
    check = dosmod.spectral_formula_check(op, fn, cfg)
    return {"trace_value": check.trace_value, "measure_value": check.measure_value,
            "gap": check.gap}, True


def cmd_dos_approx(args, cfg, budget):
    op = _dos_operator(args.eps)
    n_grid = budget.n_grid if args.ngrid is None else args.ngrid
    table = dosmod.idos_shell_approx(op, args.eps, n_grid, cfg)
    return {"eps": args.eps, "table": table}, table.converged


def cmd_dos_dixmier(args, cfg, budget):
    fn = serialize.load_test_function(args.testfn)
    op = _dos_operator(fn.support[1])
    check = dosmod.dixmier_dos_check(op, fn, cfg, form=args.form, lam=args.lam,
                                     lam2=args.lam2, m_max=budget.shells * 4 - 1)
    return {"dixmier_value": check.dixmier_value, "measure_value": check.measure_value,
            "gap": check.gap, "table": check.table}, check.table.converged


# -- compare ----------------------------------------------------------------


def cmd_compare(args, cfg, budget):
    op = _load(args)
    tau = traces.tau_diagonal(op)
    residue = traces.tau_residue(op, args.lam, X_GRID)
    shell = traces.tau_shell(op, budget.n_grid)
    ordered = traces.tau_ordered_basis(op, budget.ordered_grid)
    spectrum, shells, kind = _weighted_spectrum(op, "left", args.lam, None, None, budget)
    dixmier_table = dx.dixmier_estimate(spectrum, dx.deep_ladder(spectrum))
    shell_sharp = shell.accelerated[-1]
    doubled = 2.0 * complex(ordered.extrapolated)
    rows = {
        "diagonal": {"value": complex(tau), "gap": 0.0},
        "residue": {"extrapolated": complex(residue.extrapolated),
                    "residual": residue.residual,
                    "gap": abs(complex(residue.extrapolated) - tau)},
        "shell": {"extrapolated": complex(shell.extrapolated),
                  "accelerated": complex(shell_sharp),
                  "gap": abs(complex(shell_sharp) - tau)},
        "ordered": {"extrapolated": complex(ordered.extrapolated),
                    "doubled": complex(doubled),
                    "gap": abs(doubled - tau)},
        "dixmier": {"extrapolated": complex(dixmier_table.extrapolated),
                    "residual": dixmier_table.residual, "kind": kind,
                    "gap": abs(complex(dixmier_table.extrapolated) - tau)},
    }
    max_gap = max(row["gap"] for row in rows.values())
    ok = all(t.converged for t in (residue, shell, ordered, dixmier_table))
    return {"engines": rows, "max_gap": max_gap,
            "budget": {"name": args.budget_profile, "shells": shells,
                       "x_grid": list(X_GRID),
                       "N_grid": [int(n) for n in budget.n_grid]}}, ok


# -- command table ------------------------------------------------------------

WEIGHTED_SPECTRUM_FLAGS = ("--op", "--form", "--lambda", "--lambda2", "--shells")

# Each subcommand once, keyed by the name that its report carries.
COMMANDS = {
    "basis eval": (cmd_basis_eval, ("--n", "--m", "--x1", "--x2")),
    "basis gram": (cmd_basis_gram, ("--max-index", "--extent", "--nodes")),
    "op compose": (cmd_op_compose, ("--in", "--in2", "--save")),
    "op adjoint": (cmd_op_adjoint, ("--in", "--save")),
    "op norm": (cmd_op_norm, ("--in", "--p")),
    "op block": (cmd_op_block, ("--in", "--N")),
    "kernel eval": (cmd_kernel_eval, ("--op", "--x1", "--x2")),
    "kernel folner": (cmd_kernel_folner, ("--op", "--R")),
    "kernel commutant": (cmd_kernel_commutant,
                         ("--op", "--a1", "--a2", "--extent", "--nodes")),
    "trace diag": (cmd_trace_diag, ("--op",)),
    "trace residue": (cmd_trace_residue, ("--op", "--lambda", "--xgrid")),
    "trace shell": (cmd_trace_shell, ("--op", "--Ngrid")),
    "trace ordered": (cmd_trace_ordered, ("--op", "--Ngrid")),
    "dixmier spectrum": (cmd_dixmier_spectrum, WEIGHTED_SPECTRUM_FLAGS),
    "dixmier gamma": (cmd_dixmier_gamma, WEIGHTED_SPECTRUM_FLAGS + ("--N",)),
    "dixmier estimate": (cmd_dixmier_estimate, WEIGHTED_SPECTRUM_FLAGS),
    "dixmier tauberian": (cmd_dixmier_tauberian, WEIGHTED_SPECTRUM_FLAGS + ("--xgrid",)),
    "dos idos": (cmd_dos_idos, ("--eps",)),
    "dos measure": (cmd_dos_measure, ("--J",)),
    "dos spectral": (cmd_dos_spectral, ("--f",)),
    "dos approx": (cmd_dos_approx, ("--eps", "--Ngrid")),
    "dos dixmier": (cmd_dos_dixmier, ("--f", "--form", "--lambda", "--lambda2")),
    "compare": (cmd_compare, ("--op", "--lambda")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="magtrace", description=__doc__)
    for flag in GLOBAL_FLAGS:
        parser.add_argument(flag, **FLAGS[flag])
    groups = {"": parser.add_subparsers(dest="command")}
    for name, (handler, flags) in COMMANDS.items():
        group, _, action = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group).add_subparsers(dest="action")
        leaf = groups[group].add_parser(action)
        for flag in flags:
            leaf.add_argument(flag, **FLAGS[flag])
        # a subparser's defaults overwrite the group name stored under "command"
        leaf.set_defaults(func=handler, command=name)
    return parser


# -- driver -----------------------------------------------------------------


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 64
    if not hasattr(args, "func"):
        print("usage error: missing subcommand (try --help)", file=sys.stderr)
        return 64
    start = time.perf_counter()
    try:
        cfg = make_config(args.ell)
        payload, ok = args.func(args, cfg, BUDGETS[args.budget_profile])
        report = {"format_version": FORMAT_VERSION, "command": args.command,
                  "config": {"ell": cfg.ell, "budget_profile": args.budget_profile,
                             "seed": args.seed},
                  "wall_time_s": time.perf_counter() - start}
        report.update(payload)
        if args.format == "json":
            text = serialize.canonical_json(report) + "\n"
        else:
            import csv  # here, not at the top: JSON runs skip its import cost
            import io
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(("key", "value"))
            writer.writerows(serialize.report_rows(report))
            text = buffer.getvalue()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (CalculusError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    return 0 if ok else 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
