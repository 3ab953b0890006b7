"""Checks on the package source itself."""

import ast
from pathlib import Path

import ultraclust

SOURCES = sorted(Path(ultraclust.__file__).parent.glob("*.py"))


def test_no_assert_in_package_source():
    # python -O strips assert statements, so none may guard input or invariants
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == [], f"assert statements in src/ultraclust: {', '.join(found)}"
