"""Guards for six design rules of the package.

Modules use each other's public names only, the trace routes that
cross-check the diagonal sum never compute it themselves, every
convergence table comes from the two builders in extrapolate.py, every
flag that a CLI subcommand declares is read by its handler, every flag
entry is declared by the parser or by some subcommand, and every public
name is reached by a command, an acceptance criterion or a magbench
workload.
"""

import argparse
import ast
import inspect
import pathlib
import sys

import pytest

import magtrace
from magtrace import cli
from magtrace import (
    CoefficientOperator,
    collect_spectrum,
    deep_ladder,
    dixmier_estimate,
    tau_ordered_basis,
    tau_residue,
    tau_shell,
    weighted_product,
)

SOURCES = sorted(pathlib.Path(magtrace.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(tree):
    """Private names imported from, or read off, other package modules."""
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("magtrace")):
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append("from %s import %s" % (node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("magtrace."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append("%s.%s" % (node.value.id, node.attr))
    return found


def test_sources_are_scanned():
    assert {path.name for path in SOURCES} >= {"cli.py", "dixmier.py", "dos.py", "traces.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_names_across_modules(path):
    assert _private_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_private_use_scan_flags_both_forms():
    tree = ast.parse("from .traces import _shell_sums\nfrom . import serialize\n"
                     "serialize._cell(1.0)\nserialize.__name__\n")
    assert _private_uses(tree) == ["from traces import _shell_sums", "serialize._cell"]


# Callables that only extrapolate.py may call: its table builders wrap them.
TABLE_MAKERS = {"ConvergenceTable", "log_inverse_fit", "richardson_zero"}


def _table_maker_calls(tree):
    """Names in TABLE_MAKERS called directly or as a module attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in TABLE_MAKERS:
                found.append(name)
    return found


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "extrapolate.py"],
                         ids=lambda path: path.name)
def test_tables_come_from_the_extrapolate_builders(path):
    assert _table_maker_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_table_maker_scan_flags_both_forms():
    tree = ast.parse("ConvergenceTable(params=())\nextrapolate.log_inverse_fit(p, v)\n"
                     "richardson_table(xs, fn)\n")
    assert _table_maker_calls(tree) == ["ConvergenceTable", "log_inverse_fit"]


def test_trace_routes_do_not_call_the_diagonal_sum(monkeypatch):
    def forbidden(_):
        raise AssertionError("an independent trace route called tau_diagonal")

    for name, module in list(sys.modules.items()):
        if name.startswith("magtrace") and hasattr(module, "tau_diagonal"):
            monkeypatch.setattr(module, "tau_diagonal", forbidden)
    op = CoefficientOperator.projection(0) + CoefficientOperator.projection(1)
    residue = tau_residue(op, 0.0, (1e-1, 1e-2, 1e-3))
    assert abs(complex(residue.extrapolated) - 2.0) <= 1e-3
    assert tau_shell(op, (100, 1000, 10000)).accelerated[-1] == 2.0
    ordered = tau_ordered_basis(op, tuple(e * (e + 1) // 2 - 1 for e in (250, 500, 1000)))
    assert abs(2.0 * complex(ordered.extrapolated) - 2.0) <= 5e-2
    spectrum = collect_spectrum(weighted_product(op, "left", 0.0), m_max=8191, n_max=2,
                                kind="eigen")
    table = dixmier_estimate(spectrum, deep_ladder(spectrum))
    assert abs(complex(table.extrapolated) - 2.0) <= 1e-2


def _exported_imports(tree):
    """Public names that a module's `from ... import` statements bind."""
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  for alias in node.names
                  if not (alias.asname or alias.name).startswith("_"))


def test_all_matches_the_package_imports():
    init = pathlib.Path(magtrace.__file__)
    imported = [name for name in _exported_imports(ast.parse(init.read_text(encoding="utf-8")))
                if not inspect.ismodule(getattr(magtrace, name, None))]
    assert [name for name in magtrace.__all__ if not hasattr(magtrace, name)] == []
    assert sorted(set(imported) - set(magtrace.__all__)) == []
    assert len(set(magtrace.__all__)) == len(magtrace.__all__)


def test_export_scan_flags_unlisted_names():
    tree = ast.parse("from __future__ import annotations\nfrom .a import b, _c\n"
                     "from .d import e as f\nimport numpy\n")
    assert _exported_imports(tree) == ["b", "f"]


def _unreached_exports(exports, trees):
    """Exported names that no tree reads as a Name or an Attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(set(exports) - used)


def test_every_public_name_is_reached():
    # the package modules other than __init__.py, the acceptance criteria
    # and the benchmark; magbench is only read here
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = ([path for path in SOURCES if path.name != "__init__.py"]
             + [root / "tests" / "test_acceptance.py"]
             + sorted((root / "magbench").glob("*.py")))
    assert any(path.parent.name == "magbench" for path in paths)
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    assert _unreached_exports(magtrace.__all__, trees) == []


def test_unreached_export_scan_flags_an_unused_name():
    # an import alone does not reach a name; a call or an attribute does
    trees = [ast.parse("from .a import b, c\nb(1)\n"), ast.parse("mod.d\n")]
    assert _unreached_exports(["b", "c", "d", "e"], trees) == ["c", "e"]


def _args_read(func, functions):
    """Attributes read off `args` in func and in the functions it passes args to."""
    found = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in functions
              and any(isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args)):
            found |= _args_read(functions[node.func.id], functions)
    return found


def _unread_flags(parser, source, path=()):
    """Flags of each leaf subcommand whose dest its handler never reads."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found += _unread_flags(child, source, path + (name,))
    func = parser.get_default("func")
    if func is not None:
        read = _args_read(functions[func.__name__], functions)
        found += ["%s %s" % (" ".join(path), action.option_strings[0])
                  for action in parser._actions
                  if action.option_strings and action.dest != "help"
                  and action.dest not in read]
    return found


def test_every_cli_flag_is_read_by_its_handler():
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    assert _unread_flags(cli.build_parser(), source) == []


def test_unread_flag_scan_flags_an_ignored_flag():
    source = ("def _load(args):\n    return args.infile\n"
              "def cmd_norm(args, cfg, budget):\n    return _load(args), args.p\n")

    def cmd_norm():
        pass

    parser = argparse.ArgumentParser()
    leaf = parser.add_subparsers().add_parser("norm")
    for flag, dest in (("--in", "infile"), ("--p", "p"), ("--save", "save")):
        leaf.add_argument(flag, dest=dest)
    leaf.set_defaults(func=cmd_norm)
    assert _unread_flags(parser, source) == ["norm --save"]


def _undeclared_flags(flags, global_flags, commands):
    """Flag entries that neither the global flags nor any subcommand declare."""
    declared = set(global_flags).union(*(names for _, names in commands.values()))
    return sorted(set(flags) - declared)


def test_every_cli_flag_entry_is_declared():
    assert _undeclared_flags(cli.FLAGS, cli.GLOBAL_FLAGS, cli.COMMANDS) == []


def test_undeclared_flag_scan_flags_a_dead_entry():
    flags = {"--ell": {}, "--op": {}, "--J": {}, "--eps": {}}
    commands = {"trace diag": (None, ("--op",)), "dos idos": (None, ("--eps",))}
    assert _undeclared_flags(flags, ("--ell",), commands) == ["--J"]
