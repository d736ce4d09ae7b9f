"""Source-level rules that hold for every module of the package."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import equiarbor

MODULES = sorted(Path(equiarbor.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts; cross-checks must raise VerificationError.
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    # Every import sits at module top, so the import graph is explicit and a
    # cycle fails at import time instead of hiding in a function body.
    lines = [node.lineno for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert lines == [], f"{path.name} imports inside a function on lines {lines}"


BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _pinned_layers():
    """The per-layer metric names of BENCHMARK.json that name a function or
    method; import times, the trace overhead and per-layer error counts
    name none, as in ``bench/run.py``'s ``_traceable``."""
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        name = metric["name"]
        if (name.startswith("cli.import") or name == "trace.overhead_s"
                or name.count(".") == 1 and name.endswith(".errors")):
            continue
        yield name


@pytest.mark.parametrize("name", _pinned_layers())
def test_benchmark_metric_names_a_public_function(name):
    # The benchmark's traced mode refuses a metric that nothing measures, so
    # removing a function that a metric names breaks the benchmark.
    layer, *path, _stat = name.split(".")
    module = importlib.import_module(f"equiarbor.{layer}")
    owner = module if len(path) == 1 else getattr(module, path[0], None)
    attr = path[-1]
    target = getattr(owner, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(target) \
        and target.__module__ == module.__name__, \
        f"{name}: equiarbor.{layer} defines no public {'.'.join(path)}"


#: Public functions that nothing else in ``src/`` reads, kept as library API.
KEPT = {
    # Writers, each the inverse of a parser that the commands use.
    "graphs.emit_graph6", "graphs.format_edge_list", "schemes.format_scheme_table",
    # Library entry points beside the commands' own.
    "catalog.default_catalog", "matching.maximum_matching",
}


#: The nodes that read a function, and those that read a method: a method is
#: reached only through an attribute, so a local variable of the same name
#: reads no method.
FUNCTION_READS, METHOD_READS = (ast.Name, ast.Attribute), (ast.Attribute,)


def _names(node, kinds):
    """How often each identifier is read under ``node`` as one of ``kinds``,
    a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


def _public_definitions(tree):
    """(qualified suffix, node) for each public top-level function and each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def test_every_public_function_has_a_reader():
    # Unused public API is dead weight that every start-up compiles: each
    # public function or method is read somewhere in src/ outside its own
    # body, exported by the package, named by a benchmark metric or KEPT.
    trees = {path.stem: _tree(path) for path in MODULES}
    everywhere = {kinds: sum((_names(tree, kinds) for tree in trees.values()), Counter())
                  for kinds in (FUNCTION_READS, METHOD_READS)}
    pinned = {name.rsplit(".", 1)[0] for name in _pinned_layers()}
    defined, reached = set(), set()
    for module, tree in trees.items():
        for suffix, fn in _public_definitions(tree):
            qualified = f"{module}.{suffix}"
            defined.add(qualified)
            exported = fn.name in equiarbor.__all__ and getattr(equiarbor, fn.name) is \
                getattr(importlib.import_module(f"equiarbor.{module}"), suffix, None)
            kinds = METHOD_READS if "." in suffix else FUNCTION_READS
            if everywhere[kinds][fn.name] > _names(fn, kinds)[fn.name] or exported \
                    or qualified in pinned:
                reached.add(qualified)
    unread = sorted(defined - reached - KEPT)
    assert unread == [], f"public API that nothing in src/ reads: {unread}"
    stale = sorted(KEPT & reached | KEPT - defined)
    assert stale == [], f"KEPT names that src/ reads or no longer defines: {stale}"


#: Runs in a fresh interpreter: two CLI calls, then whether networkx loaded.
_COLD_START = """
import io, sys
import equiarbor
from equiarbor.cli import run_command
codes = [run_command(argv, io.StringIO(), io.StringIO())
         for argv in (["matching", "--family", "petersen"], ["--deterministic", "survey"])]
print(codes, "networkx" in sys.modules)
"""


def test_package_runs_without_networkx():
    # networkx is a test-only dependency: importing it would add about a
    # tenth of a second to every command's start-up.
    src = Path(equiarbor.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "False"], proc.stdout
