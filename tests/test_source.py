"""Source hygiene: every module of the package uses each name it imports.
The package's __init__ is left out, since it imports names to re-export
them."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dycknf"


def unused_imports(source):
    """The names `source` imports (bar __future__ features) and never uses."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os, os.path as p\nfrom x import (a, b as c)"
                          "\nfrom __future__ import annotations\n"
                          "os.sep\nc()") == ["a", "p"]


def test_src_modules_use_every_name_they_import():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unused = {path.name: unused_imports(path.read_text())
              for path in modules if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
