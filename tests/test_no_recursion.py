"""No function or method of the package calls itself.

Deep inputs (long sequences, many factors, many Massey slots) must run in
loops: a recursion one frame per level ends in RecursionError, a traceback,
long before any cap.  A function recurses when its body calls its own bare
name; a method when it calls itself through ``self.`` or ``cls.``.  A method
calling a module function of the same name (``BitMatrix.from01`` calling
``from01``) does not, nor does ``super().__init__``.  Only the standard
library's ast is needed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "koszulhh"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))

# qualified name -> why it may call itself
ALLOWED: dict[str, str] = {}


def recursive_functions(source: str) -> list[str]:
    """Qualified names of the functions and methods of source that call themselves."""
    found = []

    def calls_itself(func, method: bool) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if method:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == func.name
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                ):
                    return True
            elif isinstance(target, ast.Name) and target.id == func.name:
                return True
        return False

    def visit(node, prefix: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if calls_itself(child, in_class):
                    found.append(name)
                visit(child, f"{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), "", False)
    return found


def test_the_check_finds_a_function_that_calls_itself():
    source = (
        "def walk(n):\n    return walk(n - 1) if n else 0\n"
        "def outer():\n    def fill(p):\n        fill(p + 1)\n    fill(0)\n"
        "def from01(t):\n    return 0\n"
        "class M(Base):\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def rank(self):\n        return self.rank()\n"
        "    @classmethod\n    def make(cls):\n        return cls.make()\n"
        "    @classmethod\n    def from01(cls, t):\n        return cls(from01(t))\n"
    )
    assert recursive_functions(source) == ["walk", "outer.fill", "M.rank", "M.make"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_calls_itself(module):
    found = recursive_functions((PACKAGE / module).read_text())
    assert [name for name in found if f"{module}:{name}" not in ALLOWED] == []
