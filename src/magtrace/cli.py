"""Command line front end.

Subcommands mirror the library modules: basis, op, kernel, trace, dixmier,
dos, and a cross-engine compare.  Exit codes: 0 on success, 2 when a
precondition is violated, 3 when a limit is computed but flagged as
non-convergent, 64 on usage errors.  Reports are deterministic for fixed
inputs and budgets; JSON output is canonical (sorted keys, floats at 17
significant digits) so emitted reports round-trip byte for byte.
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
from .config import make_config
from .errors import CalculusError, DomainError
from .kernels import GridSpec
from .operators import adjoint, compose, lp_norm, matrix_block, weighted_product

FORMAT_VERSION = "1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class Budget:
    name: str
    shells: int
    x_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    ordered_shells: tuple[int, ...]
    kernel_nodes: int
    kernel_extent_ells: float


BUDGETS = {
    "full": Budget(name="full", shells=512, x_grid=(1e-1, 1e-2, 1e-3),
                   n_grid=(100, 1000, 10000), ordered_shells=(250, 500, 1000, 2000),
                   kernel_nodes=128, kernel_extent_ells=10.0),
    "quick": Budget(name="quick", shells=128, x_grid=(1e-1, 1e-2, 1e-3),
                    n_grid=(100, 1000), ordered_shells=(60, 125, 250, 500),
                    kernel_nodes=96, kernel_extent_ells=9.0),
}


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise UsageError("expected a comma-separated list of numbers: %r" % text) from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(round(v)) for v in _parse_floats(text))
    except (OverflowError, ValueError) as exc:
        raise UsageError("expected a comma-separated list of finite numbers: %r"
                         % text) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="magtrace", description=__doc__)
    parser.add_argument("--ell", type=float, default=1.0,
                        help="magnetic length (default 1.0)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--seed", type=int, default=None,
                        help="reserved; no randomized algorithms are used")
    parser.add_argument("--budget-profile", choices=tuple(BUDGETS), default="full")
    sub = parser.add_subparsers(dest="command")

    basis = sub.add_parser("basis").add_subparsers(dest="action")
    b_eval = basis.add_parser("eval")
    b_eval.add_argument("--n", type=int, required=True)
    b_eval.add_argument("--m", type=int, required=True)
    b_eval.add_argument("--x1", type=float, required=True)
    b_eval.add_argument("--x2", type=float, required=True)
    b_eval.set_defaults(func=cmd_basis_eval)
    b_gram = basis.add_parser("gram")
    b_gram.add_argument("--max-index", type=int, default=4)
    b_gram.add_argument("--extent", type=float, default=None)
    b_gram.add_argument("--nodes", type=int, default=None)
    b_gram.set_defaults(func=cmd_basis_gram)

    op = sub.add_parser("op").add_subparsers(dest="action")
    for name, handler, extra in (
            ("compose", cmd_op_compose, ("infile2",)),
            ("adjoint", cmd_op_adjoint, ()),
            ("norm", cmd_op_norm, ("p",)),
            ("block", cmd_op_block, ("m", "N"))):
        p = op.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        if "infile2" in extra:
            p.add_argument("--in2", dest="infile2", required=True)
        if "p" in extra:
            p.add_argument("--p", type=float, required=True)
        if "m" in extra:
            p.add_argument("--m", type=int, required=True)
        if "N" in extra:
            p.add_argument("--N", dest="count", type=int, required=True)
        p.add_argument("--save", default=None,
                       help="also write the resulting operator to this path")
        p.set_defaults(func=handler)

    kernel = sub.add_parser("kernel").add_subparsers(dest="action")
    k_eval = kernel.add_parser("eval")
    k_eval.add_argument("--op", dest="infile", required=True)
    k_eval.add_argument("--x1", type=float, required=True)
    k_eval.add_argument("--x2", type=float, required=True)
    k_eval.set_defaults(func=cmd_kernel_eval)
    k_folner = kernel.add_parser("folner")
    k_folner.add_argument("--op", dest="infile", required=True)
    k_folner.add_argument("--R", dest="radius", type=float, default=8.0)
    k_folner.set_defaults(func=cmd_kernel_folner)
    k_comm = kernel.add_parser("commutant")
    k_comm.add_argument("--op", dest="infile", required=True)
    k_comm.add_argument("--a1", type=float, required=True)
    k_comm.add_argument("--a2", type=float, required=True)
    k_comm.add_argument("--extent", type=float, default=None)
    k_comm.add_argument("--nodes", type=int, default=None)
    k_comm.set_defaults(func=cmd_kernel_commutant)

    trace = sub.add_parser("trace").add_subparsers(dest="action")
    for name, handler in (("diag", cmd_trace_diag), ("residue", cmd_trace_residue),
                          ("shell", cmd_trace_shell), ("ordered", cmd_trace_ordered)):
        p = trace.add_parser(name)
        p.add_argument("--op", dest="infile", required=True)
        if name == "residue":
            p.add_argument("--lambda", dest="lam", type=float, default=0.0)
            p.add_argument("--xgrid", type=_parse_floats, default=None)
        if name in ("shell", "ordered"):
            p.add_argument("--Ngrid", dest="ngrid", type=_parse_ints, default=None)
        p.set_defaults(func=handler)

    dix = sub.add_parser("dixmier").add_subparsers(dest="action")
    for name, handler in (("spectrum", cmd_dixmier_spectrum), ("gamma", cmd_dixmier_gamma),
                          ("estimate", cmd_dixmier_estimate),
                          ("tauberian", cmd_dixmier_tauberian)):
        p = dix.add_parser(name)
        p.add_argument("--op", dest="infile", required=True)
        p.add_argument("--form", choices=("left", "right", "split"), default="left")
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)
        p.add_argument("--lambda2", dest="lam2", type=float, default=None)
        p.add_argument("--shells", type=int, default=None)
        if name == "gamma":
            p.add_argument("--N", dest="count", type=int, required=True)
        if name == "tauberian":
            p.add_argument("--xgrid", type=_parse_floats, default=None)
        p.set_defaults(func=handler)

    dos = sub.add_parser("dos").add_subparsers(dest="action")
    d_idos = dos.add_parser("idos")
    d_idos.add_argument("--eps", type=float, required=True)
    d_idos.add_argument("--J", dest="truncation", type=int, default=None)
    d_idos.set_defaults(func=cmd_dos_idos)
    d_meas = dos.add_parser("measure")
    d_meas.add_argument("--J", dest="truncation", type=int, default=16)
    d_meas.set_defaults(func=cmd_dos_measure)
    d_spec = dos.add_parser("spectral")
    d_spec.add_argument("--f", dest="testfn", required=True)
    d_spec.add_argument("--J", dest="truncation", type=int, default=None)
    d_spec.set_defaults(func=cmd_dos_spectral)
    d_appr = dos.add_parser("approx")
    d_appr.add_argument("--eps", type=float, required=True)
    d_appr.add_argument("--J", dest="truncation", type=int, default=None)
    d_appr.add_argument("--Ngrid", dest="ngrid", type=_parse_ints, default=None)
    d_appr.set_defaults(func=cmd_dos_approx)
    d_dix = dos.add_parser("dixmier")
    d_dix.add_argument("--f", dest="testfn", required=True)
    d_dix.add_argument("--form", choices=("left", "right", "split"), default="left")
    d_dix.add_argument("--lambda", dest="lam", type=float, default=0.0)
    d_dix.add_argument("--lambda2", dest="lam2", type=float, default=None)
    d_dix.add_argument("--J", dest="truncation", type=int, default=None)
    d_dix.set_defaults(func=cmd_dos_dixmier)

    comp = sub.add_parser("compare")
    comp.add_argument("--op", dest="infile", required=True)
    comp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    comp.set_defaults(func=cmd_compare)
    return parser


# -- helpers ------------------------------------------------------------


def _budget(args) -> Budget:
    return BUDGETS[args.budget_profile]


def _config(args):
    return make_config(args.ell)


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
    from .basis import psi

    value = psi(args.n, args.m, args.x1, args.x2, cfg)
    return {"value": complex(value)}, True


def cmd_basis_gram(args, cfg, budget):
    from .basis import QuadratureSpec, orthonormality_check

    quad = QuadratureSpec.default(cfg)
    if args.extent is not None or args.nodes is not None:
        quad = QuadratureSpec(extent=quad.extent if args.extent is None else args.extent,
                              nodes=quad.nodes if args.nodes is None else args.nodes)
    errors = orthonormality_check(args.max_index, cfg, quad)
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
    block = matrix_block(_load(args), args.m, args.count)
    return {"m": args.m, "entries": [[complex(v) for v in row] for row in block],
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
    table = traces.tau_residue(_load(args), args.lam, args.xgrid or budget.x_grid)
    return {"lambda": args.lam, "table": table}, table.converged


def cmd_trace_shell(args, cfg, budget):
    table = traces.tau_shell(_load(args), args.ngrid or budget.n_grid)
    return {"table": table}, table.converged


def cmd_trace_ordered(args, cfg, budget):
    grid = args.ngrid or tuple(e * (e + 1) // 2 - 1 for e in budget.ordered_shells)
    table = traces.tau_ordered_basis(_load(args), grid)
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
    table = dx.tauberian_residue(spectrum, args.xgrid or budget.x_grid)
    return {"shells": shells, "table": table}, table.converged


# -- dos handlers -----------------------------------------------------------


def _dos_operator(args, minimum: float = 0.0) -> dosmod.LandauDiagonalOperator:
    truncation = args.truncation
    if truncation is None:
        if not math.isfinite(minimum):
            raise DomainError("the threshold must be finite")
        truncation = max(64, int(minimum + 2.0))
    return dosmod.landau_hamiltonian(truncation)


def cmd_dos_idos(args, cfg, budget):
    op = _dos_operator(args, args.eps)
    return {"eps": args.eps, "idos": dosmod.idos(op, args.eps, cfg)}, True


def cmd_dos_measure(args, cfg, budget):
    op = dosmod.landau_hamiltonian(args.truncation)
    measure = dosmod.dos_measure(op, cfg)
    return {"atoms": [[e, w] for e, w in measure.atoms]}, True


def cmd_dos_spectral(args, cfg, budget):
    fn = serialize.load_test_function(args.testfn)
    op = _dos_operator(args, fn.support[1])
    check = dosmod.spectral_formula_check(op, fn, cfg)
    return {"trace_value": check.trace_value, "measure_value": check.measure_value,
            "gap": check.gap}, True


def cmd_dos_approx(args, cfg, budget):
    op = _dos_operator(args, args.eps)
    table = dosmod.idos_shell_approx(op, args.eps, args.ngrid or budget.n_grid, cfg)
    return {"eps": args.eps, "table": table}, table.converged


def cmd_dos_dixmier(args, cfg, budget):
    fn = serialize.load_test_function(args.testfn)
    op = _dos_operator(args, fn.support[1])
    check = dosmod.dixmier_dos_check(op, fn, cfg, form=args.form, lam=args.lam,
                                     lam2=args.lam2, m_max=budget.shells * 4 - 1)
    return {"dixmier_value": check.dixmier_value, "measure_value": check.measure_value,
            "gap": check.gap, "table": check.table}, check.table.converged


# -- compare ----------------------------------------------------------------


def cmd_compare(args, cfg, budget):
    op = _load(args)
    tau = traces.tau_diagonal(op)
    residue = traces.tau_residue(op, args.lam, budget.x_grid)
    shell = traces.tau_shell(op, budget.n_grid)
    ordered_grid = tuple(e * (e + 1) // 2 - 1 for e in budget.ordered_shells)
    ordered = traces.tau_ordered_basis(op, ordered_grid)
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
            "budget": {"name": budget.name, "shells": shells,
                       "x_grid": list(budget.x_grid),
                       "N_grid": [int(n) for n in budget.n_grid]}}, ok


# -- driver -----------------------------------------------------------------


def _payload_to_csv(payload: dict) -> str:
    if "table" in payload:
        return serialize.table_to_csv(payload["table"])
    lines = ["key,value"]
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (int, float, complex, str, bool)) or value is None:
            lines.append("%s,%s" % (key, serialize.format_cell(value)
                                    if not isinstance(value, (str, bool)) else value))
    return "\n".join(lines) + "\n"


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
        cfg = _config(args)
        budget = _budget(args)
        payload, ok = args.func(args, cfg, budget)
        report = {"format_version": FORMAT_VERSION,
                  "command": args.command + (" " + args.action
                                             if getattr(args, "action", None) else ""),
                  "config": {"ell": cfg.ell, "budget_profile": budget.name,
                             "seed": args.seed},
                  "wall_time_s": time.perf_counter() - start}
        report.update(payload)
        if args.format == "json":
            text = serialize.canonical_json(report) + "\n"
        else:
            text = _payload_to_csv(payload)
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
