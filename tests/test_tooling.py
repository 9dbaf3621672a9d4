"""The benchmark's traced run names layer functions that must keep existing."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
