"""Guards for thirteen design rules of the package and its tests.

Modules use each other's public names only, the trace routes that
cross-check the diagonal sum never compute it themselves, every
convergence table comes from the two builders in extrapolate.py, every
flag that a CLI subcommand declares is read by its handler, every flag
entry is a global flag or declared by some subcommand, every flag entry
uses only the keys that the command-table reader reads, every public
name is reached by a command, an acceptance criterion or a magbench
workload, every CLI report is encoded by serialize, no module imports
numpy when it loads, no module imports dataclasses or typing, every
integer size is refused unless it is an integer in range, and every
tolerance in the tests names its absolute part.
"""

import ast
import importlib
import pathlib
import sys

import pytest

import magtrace
from magtrace import cli
from magtrace import (
    CoefficientOperator,
    DomainError,
    GridSpec,
    Spectrum,
    checkpoint_ladder,
    coefficient_bound_check,
    collect_spectrum,
    dixmier_estimate,
    make_config,
    matrix_block,
    orthonormality_check,
    shell_average,
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
    table = dixmier_estimate(spectrum, checkpoint_ladder(spectrum))
    assert abs(complex(table.extrapolated) - 2.0) <= 1e-2


PI0 = CoefficientOperator({(0, 0): 1.0})
HARMONIC = Spectrum([1.0 / n for n in range(1, 101)], "harmonic sequence")
# Calls whose size is a float or a boolean, or an integer below its bound:
# each was cast, misread or failed later with a bare TypeError
SIZE_CALLS = {
    "grid-nodes-float": lambda: GridSpec(1.0, 2.0),
    "m_max-float": lambda: collect_spectrum(weighted_product(PI0, "left", 0.0), 2.5, 1),
    "m_max-bool": lambda: collect_spectrum(weighted_product(PI0, "left", 0.0), True, 1),
    "n_max-bool": lambda: collect_spectrum(weighted_product(PI0, "left", 0.0), 8, True),
    "block-bool": lambda: matrix_block(PI0, True),
    "bound-check-float": lambda: coefficient_bound_check({(0, 0): 1.0}, 2.5),
    "max-index-bool": lambda: orthonormality_check(True, make_config()),
    "ladder-points-bool": lambda: checkpoint_ladder(HARMONIC, points=True),
    "ladder-points-zero": lambda: checkpoint_ladder(HARMONIC, points=0),
    "shell-index-float": lambda: shell_average(PI0, 2.5),
}


@pytest.mark.parametrize("call", SIZE_CALLS.values(), ids=SIZE_CALLS)
def test_integer_sizes_are_validated_not_coerced(call):
    with pytest.raises(DomainError, match="must be an integer of at least"):
        call()


def test_all_matches_the_package_imports():
    # the export table is the package's only import list: each name once, in its module
    listed = [(module, name) for module, names in magtrace.EXPORTS.items() for name in names]
    assert [(module, name) for module, name in listed
            if not hasattr(importlib.import_module("magtrace." + module), name)] == []
    assert len(magtrace.__all__) == len(set(magtrace.__all__)) == len(listed)
    assert sorted(magtrace.__all__) == sorted(name for _, name in listed)
    assert set(magtrace.__all__) <= set(dir(magtrace))
    with pytest.raises(AttributeError):
        magtrace.no_such_name


def _unreached_exports(exports, trees):
    """Exported names that no tree reads as a Name or an Attribute.

    A read inside the function or class of the same name, such as a
    recursive call, does not reach the name.
    """
    used = set()
    for tree in trees:
        stack = [(tree, frozenset())]
        while stack:
            node, own = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own |= {node.name}
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name not in own:
                used.add(name)
            stack.extend((child, own) for child in ast.iter_child_nodes(node))
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
    # an import alone does not reach a name, nor does a read inside its own
    # definition; a call or an attribute anywhere else does
    trees = [ast.parse("from .a import b, c\nb(1)\n"), ast.parse("mod.d\n"),
             ast.parse("def f():\n    return f()\n"),
             ast.parse("class G:\n    def g(self):\n        return G.h\n")]
    assert _unreached_exports(["G", "b", "c", "d", "e", "f", "h"], trees) == ["G", "c", "e", "f"]


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


def _unread_flags(commands, flags, source):
    """Flags of each command whose dest its handler never reads."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found = []
    for name, (handler, names) in commands.items():
        read = _args_read(functions[handler.__name__], functions)
        found += ["%s %s" % (name, flag) for flag in names
                  if flags[flag].get("dest", flag.lstrip("-").replace("-", "_")) not in read]
    return found


def test_every_cli_flag_is_read_by_its_handler():
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    assert _unread_flags(cli.COMMANDS, cli.FLAGS, source) == []


def test_unread_flag_scan_flags_an_ignored_flag():
    source = ("def _load(args):\n    return args.infile\n"
              "def cmd_norm(args, cfg, budget):\n    return _load(args), args.p\n")

    def cmd_norm():
        pass

    commands = {"op norm": (cmd_norm, ("--in", "--p", "--save"))}
    flags = {"--in": {"dest": "infile"}, "--p": {}, "--save": {}}
    assert _unread_flags(commands, flags, source) == ["op norm --save"]


def _undeclared_flags(flags, global_flags, commands):
    """Flag entries that neither the global flags nor any subcommand declare."""
    declared = set(global_flags).union(*(names for _, names in commands.values()))
    return sorted(set(flags) - declared)


def test_every_cli_flag_entry_is_declared():
    assert _undeclared_flags(cli.FLAGS, cli.GLOBAL_FLAGS, cli.COMMANDS) == []


# The keys of a flag entry that cli._read_command_line and the help read: a
# key outside them, such as nargs or action, would be declared and ignored.
TABLE_READER_KEYS = {"type", "default", "required", "choices", "dest", "help"}


def test_every_cli_flag_entry_uses_the_table_reader_keys():
    assert {flag: sorted(set(spec) - TABLE_READER_KEYS) for flag, spec in cli.FLAGS.items()
            if set(spec) - TABLE_READER_KEYS} == {}


def test_undeclared_flag_scan_flags_a_dead_entry():
    flags = {"--ell": {}, "--op": {}, "--J": {}, "--eps": {}}
    commands = {"trace diag": (None, ("--op",)), "dos idos": (None, ("--eps",))}
    assert _undeclared_flags(flags, ("--ell",), commands) == ["--J"]


# Modules that encode report text; the CLI leaves that to serialize.
ENCODERS = {"json", "csv", "io"}


def _module_names(nodes):
    """Top-level names of the modules that the import statements among nodes name.

    Relative imports are left aside.
    """
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def _imported_modules(tree):
    """Top-level names of the modules imported anywhere in a tree, relative ones aside."""
    return _module_names(ast.walk(tree))


def test_cli_leaves_report_encoding_to_serialize():
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    assert _imported_modules(ast.parse(source)) & ENCODERS == set()


def test_imported_module_scan_flags_nested_and_from_imports():
    tree = ast.parse("import os.path\nfrom json import dumps\nfrom . import serialize\n"
                     "def emit():\n    import csv\n")
    assert _imported_modules(tree) == {"os", "json", "csv"}


def _load_time_nodes(node):
    """node and the nodes under it that run when a module loads: not function bodies."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _load_time_nodes(child)


def test_no_module_imports_numpy_when_it_loads():
    # numpy is imported inside the functions that use it, so that the
    # scalar commands never load it
    loaders = {path.name for path in SOURCES if "numpy" in _module_names(
        _load_time_nodes(ast.parse(path.read_text(encoding="utf-8"))))}
    assert sorted(loaders) == []


def _importers(module):
    """Names of the package sources that import module anywhere."""
    return sorted(path.name for path in SOURCES
                  if module in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))))


def test_no_module_imports_dataclasses():
    # records derive from errors.Record: importing dataclasses would load
    # inspect, ast, dis and tokenize in every command
    assert _importers("dataclasses") == []


def test_no_module_imports_typing():
    # annotations are never evaluated, so collections.abc serves them; a
    # source scan, since the interpreter's site may have loaded typing
    assert _importers("typing") == []


def test_load_time_import_scan_skips_function_bodies():
    tree = ast.parse("import os.path\nif True:\n    from numpy import fft\n"
                     "def f():\n    import scipy\nclass C:\n    import json\n"
                     "    def g(self):\n        import csv\n")
    assert _module_names(_load_time_nodes(tree)) == {"os", "numpy", "json"}


TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
# A tolerance call and the keyword that must name its absolute part: left
# out, pytest.approx adds 1e-12 and numpy.allclose 1e-8 to every bound.
ABSOLUTE_PARTS = {"approx": "abs", "allclose": "atol"}


def _unpinned_tolerances(tree):
    """Line and name of each approx or allclose call that does not name its absolute part."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ABSOLUTE_PARTS and ABSOLUTE_PARTS[name] not in {
                    keyword.arg for keyword in node.keywords}:
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", TESTS, ids=lambda path: path.name)
def test_every_tolerance_names_its_absolute_part(path):
    assert _unpinned_tolerances(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_tolerance_scan_flags_missing_and_unpacked_bounds():
    tree = ast.parse("pytest.approx(1.0, rel=1e-9)\napprox(2.0, abs=0.0)\n"
                     "np.allclose(a, b, rtol=0.0)\nnumpy.allclose(a, b, atol=0.0)\n"
                     "pytest.approx(3.0, **close)\n")
    assert _unpinned_tolerances(tree) == [(1, "approx"), (3, "allclose"), (5, "approx")]
