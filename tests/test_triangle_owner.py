"""Only ``grids.py`` builds a triangle of the field rectangle.

Which cells lie below the diagonal is a fact of the grid; ``grids.py``
builds it once per field shape and every other module reads the cached
layout.  This walks each other module's syntax tree with the standard
library and fails on a call to one of numpy's triangle helpers.
"""

import ast
from pathlib import Path

import pytest

import hjmm

TRIANGLE_HELPERS = {"tril_indices", "triu_indices", "tril", "triu", "tri"}
MODULES = sorted(p for p in Path(hjmm.__file__).parent.glob("*.py")
                 if p.name != "grids.py")


def _triangle_calls(tree: ast.Module) -> list:
    return [f"line {node.lineno}: np.{node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TRIANGLE_HELPERS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_grids_builds_the_triangle(path) -> None:
    calls = _triangle_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not calls, (f"{path.name} builds a triangle itself ({calls}); "
                       "read grids.below_diagonal instead")
