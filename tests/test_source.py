"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

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


def _public_definitions(path):
    """(qualified name, name) of each public module-level function and
    class of one module, and of each public method of those classes."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_definition_is_used_by_the_program():
    # a public function, method or class that neither the package nor the
    # benchmark names is surface kept alive only by tests
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    readers = modules + sorted(perfbench.rglob("*.py"))
    assert modules and len(readers) > len(modules)
    names = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    unused = [
        f"{path.stem}.{qualified}"
        for path in modules
        for qualified, name in _public_definitions(path)
        if name not in names
    ]
    assert unused == []


def _absolute_imports(path):
    """(line, module name) of each absolute import statement of one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_no_scipy():
    # numpy is the one numerical dependency: the Gauss-Jacobi rules and the
    # energy pencil are built on numpy.linalg
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE_DIR.parent)}:{line} {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert found == []


@pytest.mark.parametrize("module", ["operator.py", "boundary.py", "catalog.py"])
def test_operator_module_imports_no_numpy(module):
    # the operator, boundary and catalog layers are exact (L acts on
    # monomials through an integer table), and the exact commands are to
    # start without numpy
    found = [
        f"{module}:{line} {name}"
        for line, name in _absolute_imports(PACKAGE_DIR / module)
        if name == "numpy" or name.startswith("numpy.")
    ]
    assert found == []
