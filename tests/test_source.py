"""Source-level rules that hold for every module of the package."""

import ast
from pathlib import Path

import pytest

import equiarbor

MODULES = sorted(Path(equiarbor.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts; cross-checks must raise VerificationError.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
