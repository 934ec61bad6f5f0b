"""Module-structure rules for the library: imports stay at module top, and
no module reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "retobf").glob("*.py"))


def _function_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({node.lineno for node in _function_imports(tree)})
    assert lines == [], f"{path.name}: import inside a function body at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        (node.lineno, f"{node.module}.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name}: imports private names {private}"
