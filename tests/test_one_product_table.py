"""Only algebra.py multiplies basis elements one pair at a time.

The product is tabulated once, by ``algebra.action``; every other module of
the package reads that table instead of calling ``graded_multiply``.  Only
the standard library's ast is needed, so the check runs without a linter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "koszulhh"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "algebra.py")


def product_calls(source: str) -> list[int]:
    """Line numbers of the calls to graded_multiply in source, under any
    name an import binds it to or as an attribute."""
    tree = ast.parse(source)
    names = {"graded_multiply"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name == "graded_multiply" and a.asname)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id in names
            or isinstance(node.func, ast.Attribute) and node.func.attr == "graded_multiply"
        )
    ]


def test_the_check_finds_a_call():
    source = (
        "from .algebra import graded_multiply as mul\n"
        "from . import algebra\n"
        "mul(a, x, y)\n"
        "algebra.graded_multiply(a, x, y)\n"
        "table = graded_multiply\n"
    )
    assert product_calls(source) == [3, 4]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_algebra_calls_graded_multiply(module):
    assert product_calls((PACKAGE / module).read_text()) == []
