"""Every docstring example in the package runs and holds, every export
resolves, and no check is an assert statement (``python -O`` drops those)."""

import ast
import doctest
import importlib
import pkgutil

import pytest

import koszulhh

MODULES = ["koszulhh"] + [f"koszulhh.{m.name}" for m in pkgutil.iter_modules(koszulhh.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


@pytest.mark.parametrize("name", ["koszulhh.gf2", "koszulhh.koszul", "koszulhh.massey"])
def test_the_examples_are_found(name):
    assert doctest.testmod(importlib.import_module(name)).attempted > 0


def test_every_exported_name_resolves():
    missing = [name for name in koszulhh.__all__ if not hasattr(koszulhh, name)]
    assert missing == []
    assert len(set(koszulhh.__all__)) == len(koszulhh.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    with open(importlib.import_module(name).__file__) as fh:
        tree = ast.parse(fh.read())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []
