"""Every name a module of the package imports is used in it or re-exported
through its `__all__`; a package `__init__` re-exports what it imports.
Every parameter of a module-level function, or of a public method, is read
by its body.  Every private module-level name is read somewhere in the
package, so a helper whose last caller is gone goes too."""

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


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def unread_parameters(source: str) -> list[str]:
    """Each parameter of a module-level function, public or private, or of a
    public method of a public class, that the body never reads, as
    "function(parameter)"."""
    tree = ast.parse(source)
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            functions.extend(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and _is_public(item.name)
            )
    unread = []
    for name, fn in functions:
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        unread.extend(
            f"{name}({param.arg})" for param in params if param and param.arg not in read
        )
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_scan_flags_an_unread_parameter():
    source = (
        "def f(a, *, b=None):\n    return a\n"
        "def _g(a):\n    pass\n"
        "class C:\n"
        "    def m(self, x):\n        return self\n"
        "    def _h(self, y):\n        return self\n"
        "def k(a):\n    return lambda: a\n"
    )
    assert unread_parameters(source) == ["f(b)", "_g(a)", "C.m(x)"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Each private module-level function, class or assigned name of the
    given modules that no module reads, by name or as an attribute, as
    "module: name"."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread.extend(
                f"{path}: {name}" for name in names if not _is_public(name) and name not in read
            )
    return unread


def test_no_unread_private_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_scan_flags_an_unread_private_name():
    sources = {
        "a.py": (
            "def _used():\n    pass\n"
            "def _unused():\n    return _used()\n"
            "class _Box:\n    pass\n"
            "_LIMIT: int = 3\n"
            "_SEEN = _OTHER = 0\n"
            "__all__ = []\n"
            "def public(_arg):\n    return _SEEN\n"
        ),
        "b.py": "import a\na._Box()\n",
    }
    assert unread_private_names(sources) == ["a.py: _unused", "a.py: _LIMIT", "a.py: _OTHER"]
