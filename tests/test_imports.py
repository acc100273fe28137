"""Every module of the package uses each name it imports.

Code with no caller is deleted, and an import that nothing reads is such
code. Each module is parsed with `ast`; a name it imports counts as used
where the module reads it, or where the module lists it in `__all__`, as
the package re-exports its public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rdfpg

MODULES = sorted(Path(rdfpg.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name that an import in `tree` binds, with the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                names[name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """The names that `tree` reads, and the strings its `__all__` lists."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {item.value for item in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_a_module_imports_only_what_it_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports and never uses: {', '.join(unused)}"


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom json import dumps, loads\n__all__ = ['loads']\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "dumps"}
