"""No module of the package reads the environment: every setting is an argument.

Only the standard library's ast is needed, so the check runs without a linter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "koszulhh"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
READERS = {"environ", "getenv", "putenv"}


def environment_reads(source: str) -> list[int]:
    """Lines of source that touch os.environ, os.getenv or os.putenv."""
    tree = ast.parse(source)
    os_names = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "os"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in READERS for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in READERS:
            if isinstance(node.value, ast.Name) and node.value.id in os_names:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_each_way_of_reading():
    source = (
        "import os as system\n"
        "from os import getenv\n"
        "system.environ.get('CAP')\n"
        "system.path.join('a', 'b')\n"
        "environ = {}\n"
    )
    assert environment_reads(source) == [2, 3]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_the_environment(module):
    assert environment_reads((PACKAGE / module).read_text()) == []
