"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
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


def _optional_parameters(path):
    """(qualified name, called name, parameter, positional index) of each
    parameter with a default of each def in one module.  The index counts
    the arguments a call passes, so it skips a method's self or cls, and is
    None for a keyword-only parameter; a call to ``__init__`` is a call to
    its class."""

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if cls and positional and positional[0].arg in ("self", "cls") else 0
                qualified = f"{cls}.{child.name}" if cls else child.name
                called = cls if cls and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield qualified, called, arg.arg, i - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualified, called, arg.arg, None
                yield from visit(child, None)
            else:
                yield from visit(child, cls)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), None)


def _sets(call, parameter, index):
    """Does the call pass the parameter: by keyword, by position, or
    through ``*`` or ``**``?"""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, parameter) for keyword in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _foreign_modules(tree):
    """The names the ``import`` statements of one module bind to modules
    outside polydiff, such as ``np`` and ``math``."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "polydiff"
    }


def _receiver(func):
    """The name at the root of an attribute call's receiver: ``np`` for
    ``np.linalg.solve``, or None when the root is no name."""
    node = func.value
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_every_optional_parameter_is_set_by_the_program():
    # a default that no call in the package or the benchmark overrides is
    # a knob only tests turn; dataclass fields are not defs and are not read.
    # A call into a module from outside polydiff, such as np.linalg.solve,
    # sets no parameter of a polydiff def of the same name
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    readers = modules + sorted(perfbench.rglob("*.py"))
    assert modules and len(readers) > len(modules)
    calls = {}
    for path in readers:
        tree = ast.parse(path.read_text(), filename=str(path))
        foreign = _foreign_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute) and _receiver(func) not in foreign:
                    calls.setdefault(func.attr, []).append(node)
    unset = [
        f"{path.stem}.{qualified}: {parameter}"
        for path in modules
        for qualified, called, parameter, index in _optional_parameters(path)
        if not any(_sets(call, parameter, index) for call in calls.get(called, []))
    ]
    assert unset == []


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


def _tool_imports():
    """(tool, module, name) of each ``from polydiff... import name`` in
    tools/*.py, read from the source without running any tool."""
    tools = Path(__file__).resolve().parent.parent / "tools"
    paths = sorted(tools.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "polydiff" or node.module.startswith("polydiff."):
                    yield from ((path.name, node.module, alias.name) for alias in node.names)


def test_every_name_a_tool_imports_is_defined():
    # a name deleted from the package while a tool still imports it would
    # otherwise only show when someone runs that tool
    missing = []
    for tool, module_name, name in _tool_imports():
        module = importlib.import_module(module_name)
        if hasattr(module, name):
            continue
        if importlib.util.find_spec(f"{module_name}.{name}") is None:
            missing.append(f"{tool}: from {module_name} import {name}")
    assert missing == []
