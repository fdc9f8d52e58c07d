"""The import contract of the csalg package.

Every name a csalg module imports is used by that module: each
``src/csalg/*.py`` except ``__init__.py`` is parsed with ``ast``, and an
imported name counts as used when the module loads it somewhere or lists
it in ``__all__``.  ``from __future__ import ...`` binds nothing and is
skipped.

The package's public names are declared once, in the ``__all__`` of the
module that defines them; ``csalg/__init__.py`` star-imports those
modules and concatenates their lists, in the order ``HOMES`` gives.
"""

import ast
import importlib
from pathlib import Path

import pytest

import csalg

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


#: The package's public names, in order.
PUBLIC = [
    "DEFAULT_CONDUCTOR",
    "CycloField",
    "CycloScalar",
    "root_of_unity",
    "ConductorError",
    "CsalgError",
    "DomainError",
    "ParseError",
    "TableInconsistencyError",
    "LaurentElt",
    "binom_frac",
    "delta_t",
    "galois_act",
    "EVEN",
    "ODD",
    "AlgebraDef",
    "AxiomReport",
    "ConfElt",
    "Generator",
    "LambdaPoly",
    "apply_partial",
    "apply_partial_algebra",
    "check_axioms",
    "complete_table_cs4",
    "find_virasoro",
    "from_hat_basis",
    "lambda_bracket",
    "n_product",
    "to_hat_basis",
    "StructureConstants",
    "gl2_constants",
    "make_current",
    "make_n2",
    "make_n4",
    "sl2_constants",
    "GenMorphism",
    "HomReport",
    "SL2MatrixOverS",
    "check_hom",
    "compose",
    "extend_apply",
    "identity_morphism",
    "invert",
    "n2_omega",
    "n2_theta",
    "n4_auto",
    "order_of",
    "AlgElt",
    "L0Spectrum",
    "LoopAlgebra",
    "SplitReport",
    "alg_bracket",
    "alg_reduce",
    "bracket_closure",
    "eigenspaces",
    "l0_spectrum",
    "loop_membership",
    "split_check",
    "Cocycle",
    "N2AutElt",
    "N4AutElt",
    "RootPair",
    "check_cocycle",
    "coboundary",
    "cocycle_of",
    "n2_component",
    "n4_invariant",
    "pgl2_classes",
    "CentroidSolution",
    "centroid_basis",
    "is_scalar_action",
    "SourceFile",
    "format_algebra",
    "format_element",
    "format_morphism",
    "parse_algebra",
    "parse_element",
    "parse_morphism",
    "parse_scalar",
]

#: The modules ``csalg/__init__.py`` re-exports from, in its order.
HOMES = ["cyclotomic", "errors", "laurent", "core", "algebras", "morphisms",
         "loops", "cohomology", "centroid", "dsl"]


def test_the_public_names_are_pinned():
    assert csalg.__all__ == PUBLIC


def test_the_package_concatenates_its_modules_lists():
    lists = [importlib.import_module("csalg." + m).__all__ for m in HOMES]
    assert [name for names in lists for name in names] == csalg.__all__


def test_the_package_holds_only_star_imports_and_their_lists():
    tree = ast.parse((SRC / "__init__.py").read_text())
    doc, *body = tree.body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
    stars = [n for n in body if isinstance(n, ast.ImportFrom)]
    assert [(n.level, n.module, [a.name for a in n.names]) for n in stars] \
        == [(1, m, ["*"]) for m in HOMES]
    rest = body[len(stars):]
    assert ast.unparse(rest[0]) == "__all__ = []"
    assert [ast.unparse(n) for n in rest[1:]] \
        == ["__all__ += %s.__all__" % m for m in HOMES]


@pytest.mark.parametrize("home", HOMES)
def test_a_star_import_binds_exactly_the_modules_list(home):
    namespace = {}
    exec("from csalg.%s import *" % home, namespace)
    del namespace["__builtins__"]
    module = importlib.import_module("csalg." + home)
    assert sorted(namespace) == sorted(module.__all__)


@pytest.mark.parametrize("home", HOMES)
def test_each_public_name_is_the_home_modules_own(home):
    module = importlib.import_module("csalg." + home)
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(csalg, name) is obj
        if callable(obj):
            assert obj.__module__ == module.__name__, name
