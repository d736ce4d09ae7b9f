"""Source-level rules that hold for every module of the package."""

import ast
import importlib
import inspect
import json
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
