"""The public surface: every exported name is one the package itself uses."""

import ast
from pathlib import Path

import s4is

PACKAGE = Path(s4is.__file__).resolve().parent


def _used_names(path):
    """Names a module reads in its code: bare names and attribute names.
    Imports, definitions, assignment targets and docstrings are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_exported_name_is_used_inside_the_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(path)
    assert sorted(set(s4is.__all__) - used) == []
