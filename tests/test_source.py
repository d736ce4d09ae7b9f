"""Source-level rules that hold for every module of the package."""

import ast
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
