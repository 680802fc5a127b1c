"""Checks on the package source itself."""

import ast
from pathlib import Path

import polydiff

PACKAGE_DIR = Path(polydiff.__file__).resolve().parent


def test_package_checks_no_invariant_with_assert():
    # python -O strips assert statements, so every invariant the package
    # relies on must raise an exception instead
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE_DIR.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
