"""Command line front end.

Subcommands mirror the library modules: basis, op, kernel, trace, dixmier,
dos, and a cross-engine compare.  A command line is `[global flag value]...
command words [flag value]...`, read from the command table with exact flag
names, each flag at most once and its value the next word; -h or --help
anywhere prints help.  Exit codes: 0 on success, 2 when a precondition is
violated, 3 when a limit is computed but flagged as non-convergent, 64 on
usage errors.  Reports are deterministic for fixed inputs and budgets; JSON
output is canonical (sorted keys, floats at 17 significant digits) so
emitted reports round-trip byte for byte.  CSV output lists each leaf of the
same report as a key,value row: its dotted path, such as table.raw.0.re, and
its JSON text (strings raw, null empty).
"""

from __future__ import annotations

import itertools
import math
import sys
import time
import types

from . import serialize
from .config import make_config
from .errors import CalculusError, DomainError, Record
from .operators import (WEIGHT_FORMS, adjoint, compose, lp_norm, matrix_block,
                        weighted_product)

# The handlers import the other library modules that they call, so that a
# process loads only what its subcommand runs.

FORMAT_VERSION = "1"
X_GRID = (1e-1, 1e-2, 1e-3)  # residue-route samples, the same in every budget profile


class UsageError(Exception):
    pass


class Budget(Record):
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


# Every flag once, by the keys type, default, required, choices, dest and help, which
# _read_command_line and _help read; GLOBAL_FLAGS precede the command words.
FLAGS = {
    "--ell": dict(type=float, default=1.0, help="magnetic length"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None, help="write the report to a file"),
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
    "--R": dict(dest="radius", type=float, default=8.0,
                help="Folner box radius; the reported value does not depend on it, "
                     "since the kernel diagonal is constant"),
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
GLOBAL_FLAGS = ("--ell", "--format", "--out", "--budget-profile")


# -- helpers ------------------------------------------------------------


def _load(args):
    return serialize.load_operator(args.infile)


def _check_lambda2(form, lam2):
    """Refuse a --lambda2 that the form does not read; weighted_product checks the shifts."""
    if lam2 is not None and form != "split":
        raise DomainError("--lambda2 is read by --form split only, not --form %s" % form)


def _weighted_spectrum(op, form, lam, lam2, shells, budget, kind=None):
    from .dixmier import collect_spectrum

    product = weighted_product(op, form, lam, lam2)
    _check_lambda2(form, lam2)
    shells = budget.shells if shells is None else shells
    n_max = max(op.max_index + 1, 1)
    if kind is None:
        diag_real = op.is_diagonal and all(abs(v.imag) == 0.0 for v in op.entries.values())
        kind = "eigen" if diag_real else "singular"
    spectrum = collect_spectrum(product, m_max=shells - 1, n_max=n_max, kind=kind)
    return spectrum, shells, kind


# -- basis / op / kernel handlers ----------------------------------------


def cmd_basis_eval(args, cfg, budget):
    from .basis import psi

    return {"value": psi(args.n, args.m, args.x1, args.x2, cfg)}, True


def cmd_basis_gram(args, cfg, budget):
    from . import kernels

    errors = kernels.orthonormality_check(args.max_index, cfg, args.extent, args.nodes)
    return {"max_index": args.max_index, "max_error": errors.max(), "errors": errors}, True


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
    return {"entries": block, "trace": block.trace()}, True


def cmd_kernel_eval(args, cfg, budget):
    from . import kernels

    return {"value": kernels.KernelFunction(_load(args), cfg)(args.x1, args.x2)}, True


def cmd_kernel_folner(args, cfg, budget):
    from . import kernels

    op = _load(args)
    if not (args.radius > 0.0 and math.isfinite(args.radius)):
        raise DomainError("the averaging box must have a positive, finite radius")
    # every box average of the diagonal f_S(0)/(2 pi ell^2), times omega_ell/2, is f_S(0)
    return {"radius": args.radius, "value": kernels.kernel_at_zero(op, cfg)}, True


def cmd_kernel_commutant(args, cfg, budget):
    from . import kernels

    extent = budget.kernel_extent_ells * cfg.ell if args.extent is None else args.extent
    nodes = budget.kernel_nodes if args.nodes is None else args.nodes
    spec = kernels.GridSpec(extent=extent, nodes=nodes)
    kernels.check_convolution_budget(spec)
    phi = kernels.sample_basis(0, 0, spec, cfg)
    residual = kernels.commutant_residual(_load(args), (args.a1, args.a2), phi, cfg)
    return {"a": [args.a1, args.a2], "residual": residual,
            "grid": {"extent": extent, "nodes": nodes}}, True


# -- trace handlers -------------------------------------------------------


def cmd_trace_diag(args, cfg, budget):
    from . import traces

    return {"value": traces.tau_diagonal(_load(args))}, True


def cmd_trace_residue(args, cfg, budget):
    from . import traces

    table = traces.tau_residue(_load(args), args.lam, args.xgrid)
    return {"lambda": args.lam, "table": table}, table.converged


def cmd_trace_shell(args, cfg, budget):
    from . import traces

    n_grid = budget.n_grid if args.ngrid is None else args.ngrid
    table = traces.tau_shell(_load(args), n_grid)
    return {"table": table}, table.converged


def cmd_trace_ordered(args, cfg, budget):
    from . import traces

    n_grid = budget.ordered_grid if args.ngrid is None else args.ngrid
    table = traces.tau_ordered_basis(_load(args), n_grid)
    doubled = 2.0 * complex(table.extrapolated)
    return {"table": table, "doubled": doubled}, table.converged


# -- dixmier handlers ------------------------------------------------------


def cmd_dixmier_spectrum(args, cfg, budget):
    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget)
    return {"kind": kind, "shells": shells, "count": len(spectrum),
            "reliable": spectrum.reliable,
            "head": [complex(v) for v in itertools.islice(spectrum, 16)],
            "provenance": spectrum.provenance}, True


def cmd_dixmier_gamma(args, cfg, budget):
    from . import dixmier as dx

    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget, kind="singular")
    return {"N": args.count, "gamma": dx.gamma(spectrum, args.count),
            "calderon": dx.calderon_norm(spectrum)}, True


def cmd_dixmier_estimate(args, cfg, budget):
    from . import dixmier as dx

    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget)
    table = dx.dixmier_estimate(spectrum, dx.checkpoint_ladder(spectrum))
    return {"kind": kind, "shells": shells, "table": table}, table.converged


def cmd_dixmier_tauberian(args, cfg, budget):
    from . import dixmier as dx

    spectrum, shells, kind = _weighted_spectrum(_load(args), args.form, args.lam, args.lam2,
                                                args.shells, budget, kind="singular")
    table = dx.tauberian_residue(spectrum, args.xgrid)
    return {"shells": shells, "table": table}, table.converged


# -- dos handlers -----------------------------------------------------------


def _dos_operator(minimum: float):
    """The Landau levels that cover a threshold or support end `minimum`.

    landau_hamiltonian refuses a level count past the memory limit.
    """
    from .dos import landau_hamiltonian

    if not math.isfinite(minimum):
        raise DomainError("the threshold must be finite")
    return landau_hamiltonian(max(64, int(minimum + 2.0)))


def cmd_dos_idos(args, cfg, budget):
    from . import dos as dosmod

    op = _dos_operator(args.eps)
    return {"eps": args.eps, "idos": dosmod.idos(op, args.eps, cfg)}, True


def cmd_dos_measure(args, cfg, budget):
    from . import dos as dosmod

    op = dosmod.landau_hamiltonian(args.truncation)
    measure = dosmod.dos_measure(op, cfg)
    return {"atoms": measure.atoms}, True


def cmd_dos_spectral(args, cfg, budget):
    from . import dos as dosmod

    fn = serialize.load_test_function(args.testfn)
    op = _dos_operator(fn.support[1])
    check = dosmod.spectral_formula_check(op, fn, cfg)
    return {"trace_value": check.trace_value, "measure_value": check.measure_value,
            "gap": check.gap}, True


def cmd_dos_approx(args, cfg, budget):
    from . import dos as dosmod

    op = _dos_operator(args.eps)
    n_grid = budget.n_grid if args.ngrid is None else args.ngrid
    table = dosmod.idos_shell_approx(op, args.eps, n_grid, cfg)
    return {"eps": args.eps, "table": table}, table.converged


def cmd_dos_dixmier(args, cfg, budget):
    from . import dos as dosmod

    fn = serialize.load_test_function(args.testfn)
    op = _dos_operator(fn.support[1])
    _check_lambda2(args.form, args.lam2)
    check = dosmod.dixmier_dos_check(op, fn, cfg, form=args.form, lam=args.lam,
                                     lam2=args.lam2, m_max=budget.shells * 4 - 1)
    return {"dixmier_value": check.dixmier_value, "measure_value": check.measure_value,
            "gap": check.gap, "table": check.table}, check.table.converged


# -- compare ----------------------------------------------------------------


def _dixmier_trace(op, lam, budget):
    """D(H1) + i D(H2) for the Hermitian H1 = (S + S*)/2 and H2 = (S - S*)/(2i).

    Each part is estimated from its eigenvalues (singular values would give
    the trace norm of S).  D(0) = 0, so a part without entries is skipped;
    the zero operator gets no table and residual 0.  Returns the value, the
    residual hypot(r1, r2) and the tables.
    """
    from . import dixmier as dx

    star = adjoint(op)
    value, tables = 0j, []
    for unit, part in ((1.0, 0.5 * (op + star)), (1j, -0.5j * (op - star))):
        if part.entries:
            spectrum, _, _ = _weighted_spectrum(part, "left", lam, None, None, budget, "eigen")
            tables.append(dx.dixmier_estimate(spectrum, dx.checkpoint_ladder(spectrum)))
            value += unit * complex(tables[-1].extrapolated)
    return value, math.hypot(*(table.residual for table in tables)), tables


def cmd_compare(args, cfg, budget):
    from . import traces

    op = _load(args)
    tau = traces.tau_diagonal(op)
    residue = traces.tau_residue(op, args.lam, X_GRID)
    shell = traces.tau_shell(op, budget.n_grid)
    ordered = traces.tau_ordered_basis(op, budget.ordered_grid)
    dixmier, dixmier_residual, dixmier_tables = _dixmier_trace(op, args.lam, budget)
    shell_sharp = complex(shell.accelerated[-1])
    doubled = 2.0 * complex(ordered.extrapolated)
    rows = {
        "diagonal": {"value": tau, "gap": 0.0},
        "residue": {"extrapolated": complex(residue.extrapolated),
                    "residual": residue.residual,
                    "gap": abs(complex(residue.extrapolated) - tau)},
        "shell": {"extrapolated": complex(shell.extrapolated),
                  "accelerated": shell_sharp, "gap": abs(shell_sharp - tau)},
        "ordered": {"extrapolated": complex(ordered.extrapolated),
                    "doubled": doubled, "gap": abs(doubled - tau)},
        "dixmier": {"extrapolated": dixmier, "residual": dixmier_residual,
                    "kind": "eigen", "gap": abs(dixmier - tau)},
    }
    max_gap = max(row["gap"] for row in rows.values())
    ok = all(t.converged for t in (residue, shell, ordered, *dixmier_tables))
    return {"engines": rows, "max_gap": max_gap,
            "budget": {"name": args.budget_profile, "shells": budget.shells,
                       "x_grid": X_GRID, "N_grid": budget.n_grid}}, ok


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


# -- command line -------------------------------------------------------------

COMMAND_WORDS = {tuple(name.split()): name for name in COMMANDS}


def _command(argv, start):
    """The command that argv names from argv[start] on, or None."""
    words = tuple(argv[start:start + 2])
    return COMMAND_WORDS.get(words[:1]) or COMMAND_WORDS.get(words)


def _choices(prefix=""):
    """The words that may follow prefix: every group at the top, or a group's actions."""
    return list(dict.fromkeys(name[len(prefix):].split()[0] for name in COMMANDS
                              if name.startswith(prefix)))


def _flag_values(argv, start, names, given):
    """Read `flag value` pairs off argv[start:] into given; return the index after them."""
    while start < len(argv) and argv[start] in names:
        flag = argv[start]
        if flag in given:
            raise UsageError("argument %s: given more than once" % flag)
        if start + 1 == len(argv):
            raise UsageError("argument %s: expected one argument" % flag)
        given[flag] = argv[start + 1]
        start += 2
    return start


def _read_command_line(argv):
    """The namespace of `[global flag value]... command words [flag value]...`.

    Flags have their exact names, each at most once, and each value is converted
    by its type and checked against its choices; else a UsageError says what is wrong.
    """
    given = {}
    start = _flag_values(argv, 0, GLOBAL_FLAGS, given)
    name = _command(argv, start)
    if name is None:
        group = argv[start] + " " if argv[start:] and _choices(argv[start] + " ") else ""
        word = argv[start + 1:start + 2] if group else argv[start:start + 1]
        raise UsageError("%s (choose from %s)" % ("invalid choice: %r" % word[0] if word else
                                                  "missing command", ", ".join(_choices(group))))
    handler, flags = COMMANDS[name]
    end = _flag_values(argv, start + name.count(" ") + 1, flags, given)
    if end < len(argv):
        raise UsageError("unrecognized arguments: %s" % " ".join(argv[end:]))
    missing = [flag for flag in flags if FLAGS[flag].get("required") and flag not in given]
    if missing:
        raise UsageError("the following arguments are required: %s" % ", ".join(missing))
    values = {"func": handler, "command": name}
    for flag in GLOBAL_FLAGS + flags:
        spec = FLAGS[flag]
        dest = spec.get("dest", flag.lstrip("-").replace("-", "_"))
        if flag not in given:
            values[dest] = spec.get("default")
            continue
        try:
            value = spec.get("type", str)(given[flag])
        except ValueError:
            raise UsageError("argument %s: invalid %s value: %r"
                             % (flag, spec["type"].__name__, given[flag])) from None
        if "choices" in spec and value not in spec["choices"]:
            raise UsageError("argument %s: invalid choice: %r (choose from %s)"
                             % (flag, value, ", ".join(spec["choices"])))
        values[dest] = value
    return types.SimpleNamespace(**values)


def _flag_help(flags):
    """One line per flag: required or its default, its choices and its help."""
    lines = ""
    for flag in flags:
        spec = FLAGS[flag]
        facts = ["required" if spec.get("required") else "default %s" % (spec["default"],)]
        facts += ["one of " + ", ".join(spec["choices"])] if "choices" in spec else []
        lines += "  %-24s %s\n" % (flag + " VALUE", "; ".join(facts + [spec.get("help", "")]))
    return lines.replace("; \n", "\n")


def _help(argv):
    """The help of the command or group that argv names after its global flags, or of all."""
    start = 0
    while argv[start:start + 1] and argv[start] in GLOBAL_FLAGS:
        start += 2
    name = _command(argv, start)
    group = argv[start] if argv[start:] and _choices(argv[start] + " ") else None
    usage = "usage: magtrace [global flag VALUE]... %s [flag VALUE]...\n\n"
    if name is not None:
        return usage % name + "flags:\n" + _flag_help(COMMANDS[name][1])
    if group is not None:
        return usage % (group + " ACTION") + "actions: %s\n" % ", ".join(_choices(group + " "))
    return usage % "COMMAND" + "%s\n\nglobal flags:\n%s\ncommands:\n%s" % (
        __doc__.strip(), _flag_help(GLOBAL_FLAGS), "".join(
            ("  %-8s %s" % (word, ", ".join(_choices(word + " ")))).rstrip() + "\n"
            for word in _choices()))


def run(argv) -> int:
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help(argv))
        return 0
    try:
        args = _read_command_line(argv)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 64
    start = time.perf_counter()
    try:
        cfg = make_config(args.ell)
        payload, ok = args.func(args, cfg, BUDGETS[args.budget_profile])
        report = {"format_version": FORMAT_VERSION, "command": args.command,
                  "config": {"ell": cfg.ell, "budget_profile": args.budget_profile},
                  "wall_time_s": time.perf_counter() - start}
        report.update(payload)
        text = serialize.report_text(report, args.format)
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
