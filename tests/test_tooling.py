"""Checks on the test and benchmark tooling itself.

The benchmark's traced run names layer functions that must keep existing,
the slow references must stay independent of the package they check, and
the package's invariants must raise rather than assert.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ORACLES = Path(__file__).resolve().parent / "_oracles.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aofcanon"


def _layers() -> dict[str, tuple[str, ...]]:
    # read the literal without importing the benchmark code
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_traced_layers_exist():
    layers = _layers()
    assert layers
    for mod, fns in layers.items():
        module = importlib.import_module(f"aofcanon.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_slow_oracles_import_nothing_from_the_package():
    # a reference that called the fast path would test the code against itself
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    for name in imported:
        assert name.split(".")[0] not in ("", "aofcanon"), name


def test_no_assert_in_package():
    # python -O strips assert statements; invariants raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
