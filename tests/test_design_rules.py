"""Guards for two design rules of the package.

Modules use each other's public names only, and the trace routes that
cross-check the diagonal sum never compute it themselves.
"""

import ast
import pathlib
import sys

import pytest

import magtrace
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
