"""The three derivations of the count stay independent: the spoke-subset
closed forms (combinatorics), the matrix tree theorem (matrix_tree) and the
explicit listing (enumeration) import none of one another, only the shared
graph layer and error types.  Every name the package exports resolves."""

import ast
from pathlib import Path

import pytest

import jahangir

ENGINES = ("combinatorics", "matrix_tree", "enumeration")
SHARED = {"graph_core", "errors"}


def package_imports(module: str) -> set[str]:
    """The package modules named by `from .x import ...` and `from . import x`."""
    tree = ast.parse(Path(jahangir.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_imports_no_other_engine(engine):
    imported = package_imports(engine)
    assert imported <= SHARED, f"{engine} imports {sorted(imported - SHARED)}"


def test_enumeration_imports_graph_core_only():
    assert package_imports("enumeration") == {"graph_core"}


def test_all_is_unique():
    assert len(set(jahangir.__all__)) == len(jahangir.__all__)


@pytest.mark.parametrize("name", jahangir.__all__)
def test_exported_name_imports(name):
    namespace = {}
    exec(f"from jahangir import {name}", namespace)
    assert namespace[name] is getattr(jahangir, name)
