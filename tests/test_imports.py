"""Every imported name in the package and its tests is used, every
helper in ``tests/conftest.py`` is used by some test file, and every
module-level private function or constant of the package is read.

A static scan with ``ast``: a module-level or local import binds a name,
and the name must then be read somewhere in the same file.  Skipped:
``from __future__`` imports, names a module re-exports through
``__all__``, and ``__init__.py`` files, whose imports are the package's
surface.  A conftest function is used when a test file reads its name,
or names it as a parameter (a fixture).  A private name (one leading
underscore) defined at module level in ``src/foulim`` is read when a
name or an attribute of that spelling is loaded, or imported, anywhere
in ``src``, ``tests`` or ``demos``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in (ROOT / "src" / "foulim", ROOT / "tests")
    for p in d.glob("*.py") if p.name != "__init__.py"
)
TEST_FILES = sorted((ROOT / "tests").glob("test_*.py"))
PACKAGE_FILES = sorted((ROOT / "src" / "foulim").glob("*.py"))
READER_FILES = sorted(
    p for d in (ROOT / "src" / "foulim", ROOT / "tests", ROOT / "demos") for p in d.glob("*.py")
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


def unread_helpers(conftest: str, tests: list[str]) -> list[str]:
    """Module-level functions of ``conftest`` that none of ``tests`` reads."""
    read = set()
    for source in tests:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.arg):
                read.add(node.arg)
    return sorted(node.name for node in ast.parse(conftest).body
                  if isinstance(node, ast.FunctionDef) and node.name not in read)


def test_helper_scanner_flags_only_unread_functions():
    conftest = (
        "def used(x):\n    return x\n"
        "def fixture_like():\n    return 1\n"
        "def unused():\n    return used(2)\n"
        "class Kept:\n    pass\n"
    )
    tests = ["from conftest import used\ndef test_a(fixture_like):\n    used(1)\n"]
    assert unread_helpers(conftest, tests) == ["unused"]


def test_every_conftest_helper_is_used():
    conftest = (ROOT / "tests" / "conftest.py").read_text()
    assert unread_helpers(conftest, [p.read_text() for p in TEST_FILES]) == []


def _read_names(source: str) -> set[str]:
    """Names loaded as a name or an attribute, or imported by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(module: str, readers: list[str]) -> list[str]:
    """Module-level private functions and constants of ``module`` no reader loads."""
    defined = set()
    for node in ast.parse(module).body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                defined.update(e.id for e in elts if isinstance(e, ast.Name))
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    read = set().union(*(_read_names(source) for source in readers))
    return sorted(private - read)


def test_private_name_scanner_flags_only_unread_names():
    module = (
        "_A, _B = 1, 2\n_C: int = _A\n__all__ = []\nPUBLIC = 3\n"
        "def _used():\n    return 1\n"
        "def _unused():\n    return _used()\n"
        "def _by_attribute():\n    return 2\n"
    )
    # a store, even through an attribute, is not a read
    reader = "import m\nm._by_attribute()\nm._C = 4\n"
    assert unread_private_names(module, [module, reader]) == ["_B", "_C", "_unused"]


def test_every_private_name_is_read():
    readers = [p.read_text() for p in READER_FILES]
    unread = {p.name: unread_private_names(p.read_text(), readers) for p in PACKAGE_FILES}
    assert {name: names for name, names in unread.items() if names} == {}
