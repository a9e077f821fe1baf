"""Every name a module of the package imports is used in it or re-exported
through its `__all__`; a package `__init__` re-exports what it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superport"


def unused_imports(source: str, reexports_everything: bool) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    if reexports_everything:
        return []
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), path.name == "__init__.py") == []


def test_scan_flags_an_unused_name():
    source = "from typing import Iterable, Optional\n__all__ = []\nx: Optional[int] = None\n"
    assert unused_imports(source, False) == ["Iterable (line 1)"]
    assert unused_imports("import os.path\nos.sep\n", False) == []
    assert unused_imports("from a import b\n__all__ = ['b']\n", False) == []
