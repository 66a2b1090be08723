"""Every function and method of the package is used by the program.

A name counts as used when it is read anywhere in ``src/``, ``demos/`` or
``perfbench/`` outside its own body: as a name, an attribute, an imported
name, or a dotted part of a string (the benchmark tracer names its targets
in strings).  Tests do not count, and neither does the package's
``__init__.py``: a re-export there is not a use.  Dunder methods are called by Python
itself and are left out.  Only the standard library's ast is needed.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "koszulhh"
READERS = ("src", "demos", "perfbench")

# name -> why it stays although the program never reads it
ALLOWED: dict[str, str] = {
    "dg_algebra_to_dict": "the documented writer of the --dg-file format",
    "_get_values": "cli._Parser's override of the argparse hook that converts each option value",
}


def defined_functions(source: str) -> set[str]:
    """Module-level functions and class methods of source, dunders left out."""
    names = set()
    for node in ast.parse(source).body:
        bodies = [node] if not isinstance(node, ast.ClassDef) else node.body
        for item in bodies:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    names.add(item.name)
    return names


def referenced_names(source: str) -> set[str]:
    """Names read in source, each outside the body of a function of that name."""
    found = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = node.value.split(".")
        found.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def unreferenced(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The functions defined in sources that no reader refers to."""
    read = set()
    for text in readers:
        read |= referenced_names(text)
    defined = set()
    for text in sources.values():
        defined |= defined_functions(text)
    return sorted(defined - read)


def test_the_check_finds_an_unreferenced_function():
    source = (
        "def used():\n    return used()\n"  # only its own body reads it
        "def helper():\n    return 1\n"
        "class C:\n    def __len__(self):\n        return helper()\n"
        "    def traced(self):\n        pass\n"
    )
    tracer = "TARGETS = ('C.traced',)\n"
    assert unreferenced({"m.py": source}, [source, tracer]) == ["used"]


def test_every_function_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = [
        p.read_text()
        for top in READERS
        for p in (ROOT / top).rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts and p != PACKAGE / "__init__.py"
    ]
    assert [name for name in unreferenced(sources, readers) if name not in ALLOWED] == []
    # an allowlisted name that the program does read is stale
    assert sorted(set(ALLOWED) & set(unreferenced(sources, readers))) == sorted(ALLOWED)
