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


# each module imports only from the modules before it
LAYERS = ("errors", "dendrogram", "semiring", "data", "ultrametric", "clustering", "cli")


def _package_imports(tree):
    """(node, imported module, imported names) for each import from the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "ultraclust"):
            parts = (node.module or "").split(".")
            target = parts[1] if parts[0] == "ultraclust" and len(parts) > 1 else parts[0]
            if target in ("", "ultraclust"):  # from . import x: x is the module
                for alias in node.names:
                    yield node, alias.name, []
            else:
                yield node, target, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ultraclust":
                    yield node, parts[1] if len(parts) > 1 else "ultraclust", []


def test_imports_go_down_the_layers_at_module_level():
    modules = {path.stem for path in SOURCES} - {"__init__"}
    assert modules == set(LAYERS), "place every module in LAYERS"
    found = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(map(id, tree.body))
        for node, target, names in _package_imports(tree):
            where = f"{path.name}:{node.lineno}"
            if id(node) not in top:
                found.append(f"{where} imports {target} inside a function or block")
            if target not in LAYERS or LAYERS.index(target) >= LAYERS.index(path.stem):
                found.append(f"{where} imports {target}, which is not below {path.stem}")
            if target == "dendrogram" and any(name.startswith("_") for name in names):
                found.append(f"{where} imports a private name of dendrogram")
    assert found == [], "; ".join(found)
