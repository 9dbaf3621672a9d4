"""Checks on the test and benchmark tooling itself.

The benchmark's traced run names layer functions that must keep existing
and that the descent must reach by those names, the slow references must
stay independent of the package they check, the package's modules must
import each other without cycles, importing the package must load none of
the standard library's code-inspection modules, the modules must share only
the private names their notes explain, the package's invariants must raise
rather than assert, the CLI must run no pipeline stage of its own, the
descent must leave the morphism pull-back to `frame`, the overlap test at a
word's fringes must have one home, the package root must export only its
checked entry points, and the README's command table must list the commands
the CLI has and its examples must run as shown.
"""
from __future__ import annotations

import ast
import doctest
import importlib
import re
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

import aofcanon
from aofcanon import pipeline
from aofcanon.cli import main

import _oracles as slow

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ORACLES = Path(__file__).resolve().parent / "_oracles.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aofcanon"
CLI = PACKAGE / "cli.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def _layers() -> dict[str, tuple[str, ...]]:
    # read the literal without importing the benchmark code
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def _names(node: ast.AST) -> set[str]:
    """The names an AST node binds, reads or imports."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def test_traced_layers_exist():
    layers = _layers()
    assert layers
    for mod, fns in layers.items():
        module = importlib.import_module(f"aofcanon.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_descent_stages_are_traceable(monkeypatch):
    # the benchmark rebinds each layer function wherever a package module
    # holds it, so a stage the descent reached through a private twin would
    # read 0 calls; rebind the same way and count
    calls: dict[str, int] = {}
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "aofcanon"]
    for mod, fns in _layers().items():
        if mod not in ("reductions", "classes", "frames", "words", "overlap"):
            continue
        for fn in fns:
            name = f"{mod}.{fn}"
            orig = getattr(importlib.import_module(f"aofcanon.{mod}"), fn)
            calls[name] = 0

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        monkeypatch.setattr(m, attr, counted)
    for w in slow.words_up_to(12):
        pipeline.eqaof(w)
    # frame slices the pre-image off the round word itself, so nothing calls
    # phi_inverse; retargeting its span waits on ROADMAP item 1
    calls.pop("words.phi_inverse")
    assert calls and all(calls.values()), calls


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


def test_package_imports_are_acyclic():
    # a cycle makes import order matter and ties the modules' tests together
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    graph: dict[str, set[str]] = {}
    for mod in modules:
        deps = graph[mod] = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{mod}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                deps.update(n for n in names if n in modules)
    assert graph["words"]

    done: set[str] = set()

    def visit(mod: str, path: tuple[str, ...]) -> None:
        assert mod not in path, " -> ".join(path + (mod,))
        if mod not in done:
            for dep in sorted(graph[mod]):
                visit(dep, path + (mod,))
            done.add(mod)

    for mod in sorted(modules):
        visit(mod, ())


def test_import_loads_no_code_inspection_modules():
    # records are plain tuples and slotted classes: nothing generated, so
    # importing the package pulls in neither dataclasses nor what it needs
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = f"import aofcanon, sys; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]", out


def test_modules_share_only_named_internals():
    # a private name is its module's own business; the few another module
    # reaches for are each explained in that module's note
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    shared = set()
    for mod in sorted(modules):
        tree = ast.parse((PACKAGE / f"{mod}.py").read_text())
        local = {}  # the names this module binds to other package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        local[alias.asname or alias.name] = alias.name
                    elif node.module in modules and alias.name.startswith("_"):
                        shared.add((mod, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in local
                and node.attr.startswith("_")
            ):
                shared.add((mod, f"{local[node.value.id]}.{node.attr}"))
    assert shared == {
        ("cli", "pipeline._form"),
        ("oracle", "overlap._as_int"),
        ("pipeline", "overlap._FLOOR"),
        ("reductions", "overlap._FLOOR"),
    }, sorted(shared)


def test_no_assert_in_package():
    # python -O strips assert statements; invariants raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"


def test_cli_runs_no_pipeline_stage_of_its_own():
    # the CLI reaches the descent's tail and frame stages, the class match
    # and the rebuild only through the pipeline's one path, so its output
    # cannot drift from what eqaof does
    stages = {
        "ancestor",
        "normalize",
        "match_S",
        "frame",
        "detect_non_uniform_tails",
        "detect_non_reducible_tails",
        "tail_reduce",
    }
    named = set().union(*map(_names, ast.walk(ast.parse(CLI.read_text()))))
    assert "eqaof" in named
    assert not stages & named, sorted(stages & named)


def test_pipeline_leaves_the_pull_back_to_frame():
    # a stepped slice is how a word is pulled back through phi; frames.frame
    # is its one home, so the descent cannot disagree with its own split
    stepped = [
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "pipeline.py").read_text()))
        if isinstance(node, ast.Slice) and node.step is not None
    ]
    assert stepped == [], stepped


def test_fringe_rule_has_one_home():
    # the square periods, and the overlap test at a word's fringes that runs
    # over them, live in overlap.py; the standalone desubstitution and the
    # rebuild's own check both reach that test through one helper
    periods, tests, callers = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            named = set().union(*map(_names, ast.walk(fn))) - {fn.name}
            if "_square_periods" in named:
                periods.add(path.name)
            if {"_square_periods", "startswith"} <= named:
                tests.add(f"{path.stem}.{fn.name}")
            if "fringe_overlap" in named:
                callers.add(f"{path.stem}.{fn.name}")
    assert periods == {"overlap.py"}
    assert tests == {"overlap.fringe_overlap"}
    assert callers == {"overlap.has_overlap", "overlap._desubstitute", "pipeline.normalize"}


def test_exceptions_mean_bad_input():
    # a stage answers no with None, and the descent raises RuntimeError where
    # one of its invariants breaks, so the package's own exception types are
    # the bad-input ones alone and the pipeline catches nothing
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    assert [n.name for n in errors.body if isinstance(n, ast.ClassDef)] == ["WordError", "EmptyInput"]
    tries = [
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "pipeline.py").read_text()))
        if isinstance(node, ast.Try)
    ]
    assert tries == [], tries


def test_package_root_is_the_checked_surface():
    # the root exports the names the README documents and nothing else; each
    # of its word-taking functions checks its words, which the stage
    # functions in the modules leave to their callers
    exported = {
        name
        for name, value in vars(aofcanon).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {
        "eqaof",
        "decide_equiv",
        "Verdict",
        "closure",
        "oracle_equiv",
        "OracleAnswer",
        "enumerate_aof",
        "is_overlap_free",
        "is_almost_overlap_free",
        "WordError",
    }
    assert aofcanon.__version__ and not hasattr(aofcanon, "__all__")
    calls = [
        (aofcanon.eqaof, ("xy",)),
        (aofcanon.decide_equiv, ("xy", "ab")),
        (aofcanon.decide_equiv, ("ab", "xy")),
        (aofcanon.closure, ("xy", 8)),
        (aofcanon.oracle_equiv, ("xy", "ab", 8)),
        (aofcanon.oracle_equiv, ("ab", "xy", 8)),
        (aofcanon.is_overlap_free, ("xy",)),
        (aofcanon.is_almost_overlap_free, ("xy",)),
    ]
    for fn, args in calls:
        with pytest.raises(aofcanon.WordError):
            fn(*args)


def test_readme_command_table_matches_cli():
    # each table row opens with the command in backticks: | `name ...` | ...
    rows = re.findall(r"^\| `([a-z][a-z-]*)[ `]", README.read_text(), re.MULTILINE)
    assert rows
    assert sorted(rows) == sorted(main.commands)


def test_readme_examples_run():
    # the quick start is a doctest; each `$ aofcanon ...` line prints the
    # lines under it, up to the next command or the closing fence
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted and not result.failed
    text = README.read_text()
    examples = re.findall(r"^\$ aofcanon (.+)\n((?:[^$`\n].*\n)*)", text, re.MULTILINE)
    assert examples
    runner = CliRunner()
    for args, expected in examples:
        assert runner.invoke(main, shlex.split(args)).output == expected, args


def test_one_home_per_input_check():
    # bad input becomes exit 65 in one CLI handler, and the empty word is
    # refused in one place, so every command and library entry point gives
    # the same answer and message for it
    handlers = [
        node
        for node in ast.walk(ast.parse(CLI.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and isinstance(node.type, ast.Name)
        and node.type.id == "WordError"
    ]
    assert len(handlers) == 1
    raises = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "EmptyInput":
                    raises.append(f"{path.name}:{node.lineno}")
    assert len(raises) == 1, raises
    # the stage functions trust that their word is cube-collapsed: the
    # letter cubes are named only by r1's _R1, which collapses them
    homes = {"aaa": set(), "bbb": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in homes:
                homes[node.value].add(path.name)
    assert homes == {"aaa": {"reductions.py"}, "bbb": {"reductions.py"}}
    # the descent calls each stage by its public, traced name, so no
    # private twin of a stage can come back
    private = [
        alias.name
        for node in ast.walk(ast.parse((PACKAGE / "pipeline.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], private
