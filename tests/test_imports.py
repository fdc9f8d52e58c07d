"""Every name a csalg module imports is used by that module.

Only the standard library is needed: each ``src/csalg/*.py`` except
``__init__.py`` is parsed with ``ast``, and an imported name counts as
used when the module loads it somewhere or lists it in ``__all__``.
``from __future__ import ...`` binds nothing and is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "csalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for every top-level or nested import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.partition(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _loaded(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source):
    tree = ast.parse(source)
    used = _loaded(tree) | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from .linalg import det, adjugate, rank\n"
        "__all__ = ['rank']\n"
        "def f(m):\n"
        "    return det(m), adjugate(m), math.floor(1.5)\n"
    )
    assert unused_imports(source) == [("os", 3), ("F", 4)]
