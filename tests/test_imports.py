"""Every imported name in the package and its tests is used.

A static scan with ``ast``: a module-level or local import binds a name,
and the name must then be read somewhere in the same file.  Skipped:
``from __future__`` imports, names a module re-exports through
``__all__``, and ``__init__.py`` files, whose imports are the package's
surface.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in (ROOT / "src" / "foulim", ROOT / "tests")
    for p in d.glob("*.py") if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the file."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    exported = _exported_names(tree)
    return sorted((name, line) for name, line in _imported_names(tree).items()
                  if name not in used and name not in exported)


def test_scanner_flags_only_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as js\n"
        "from math import pi, tau\nfrom x import y\n"
        "__all__ = ['y']\n"
        "def f():\n    import re\n    return os.sep + str(tau)\n"
    )
    assert unused_imports(src) == [("js", 4), ("pi", 5), ("re", 9)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
