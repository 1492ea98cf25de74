"""Every module of the package uses each name it imports.

No linter is required to run the tests, so this walks each module's
syntax tree with the standard library: a name bound by an import must
be read somewhere in the module, in code or in an annotation (quoted
annotations included).  ``__init__.py`` re-exports its imports and is
left out.
"""

import ast
from pathlib import Path

import pytest

import hjmm

MODULES = sorted(p for p in Path(hjmm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = _imported_names(tree) - _used_names(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"
