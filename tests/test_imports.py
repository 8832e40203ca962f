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
in ``src``, ``tests`` or ``demos``.  A name in a module's ``__all__`` is
read in the same sense in ``src`` (outside ``__init__.py``), ``demos``
or ``bench``: reads from tests alone do not keep an export alive.

The replica-to-stream policy lives in one place: inside ``src/foulim``
only ``harness.run_replicated``, which hands every chunk its keys, calls
``streams.keys``, so every Monte Carlo draw goes through ``run_replicated``.
So does the grid policy of the sampled integrals of G(y^eps): no call in
``src/foulim`` hands one of their samplers, or ``exact.trapezoid_variance``,
a literal ratio eps/dt; each ratio comes from ``exact.resolve_dt_ratio``.

The CLI also keeps an import budget: a fresh interpreter that imports
``foulim.cli`` and runs the constants, the samplers, ``clt-scan`` and
``l2-hermite`` loads numpy and ``scipy.special`` but none of the heavier
SciPy modules or the acceptance suite; the Hermite far field's factor,
for one, comes from ``numpy.linalg``.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from foulim import exact, harness, solvers

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
EXPORT_READER_FILES = sorted(
    p for d in (ROOT / "src" / "foulim", ROOT / "demos", ROOT / "bench")
    for p in d.glob("*.py") if p.name != "__init__.py"
)
# exports no program reads yet, each with the reason it stays
KNOWN_UNREAD_EXPORTS = {
    # module-tested; no criterion runs the joint limit yet
    "harness.py": ["joint_covariance_check"],
}


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


def unread_exports(module: str, readers: list[str]) -> list[str]:
    """Names in the ``__all__`` of ``module`` that no reader loads or imports."""
    read = set().union(*(_read_names(source) for source in readers))
    return sorted(_exported_names(ast.parse(module)) - read)


def test_export_scanner_flags_a_deleted_name_put_back():
    module = (
        "__all__ = ['used', 'tested_only']\n"
        "def used():\n    return 1\n"
        "def tested_only():\n    return 2\n"
    )
    assert unread_exports(module, [module, "from m import used\n"]) == ["tested_only"]
    # chaos.h_star_inverse, deleted with nothing but its test reading it,
    # is flagged again when it is put back
    path = ROOT / "src" / "foulim" / "chaos.py"
    source = path.read_text().replace(
        '__all__ = [\n', '__all__ = [\n    "h_star_inverse",\n', 1)
    source += "\n\ndef h_star_inverse(m, H):\n    return (H - 1.0) / m + 1.0\n"
    readers = [source if p == path else p.read_text() for p in EXPORT_READER_FILES]
    assert unread_exports(source, readers) == ["h_star_inverse"]


def test_every_export_is_read_outside_tests():
    readers = [p.read_text() for p in EXPORT_READER_FILES]
    unread = {p.name: unread_exports(p.read_text(), readers) for p in PACKAGE_FILES
              if p.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == KNOWN_UNREAD_EXPORTS


# modules the subcommands of BUDGET_SCRIPT must not load
OVER_BUDGET = ["scipy.fft", "scipy.stats", "scipy.signal", "scipy.linalg", "scipy.integrate",
               "scipy.optimize", "foulim.acceptance"]

BUDGET_SCRIPT = """
import json, sys
from foulim import cli
out = sys.argv[1]
codes = [cli.main(["rho", "--H", "0.6", "--out", out + "/rho"]),
         cli.main(["constants", "--H", "0.6", "--coeffs", "0,0,1", "--out", out + "/c"]),
         cli.main(["chaos", "--H", "0.7", "--coeffs", "0,0,1", "--out", out + "/chaos"]),
         cli.main(["sample-fbm", "--H", "0.3", "--n-steps", "16", "--replicas", "2",
                   "--out", out + "/fbm"]),
         cli.main(["sample-fou", "--H", "0.6", "--eps", "0.1", "--replicas", "2",
                   "--out", out + "/fou"]),
         cli.main(["hermite-sample", "--H", "0.7", "--m", "2", "--replicas", "2",
                   "--out", out + "/hermite"]),
         cli.main(["l2-hermite", "--H", "0.8", "--coeffs", "0,1", "--replicas", "20",
                   "--out", out + "/l2"]),
         cli.main(["clt-scan", "--H", "0.6", "--coeffs", "0,0,1", "--replicas", "20",
                   "--out", out + "/clt"]),
         cli.main(["--help"])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_cli_loads_no_heavy_scipy_module(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", BUDGET_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 9
    loaded = set(report["modules"])
    assert {"numpy", "numpy.linalg", "scipy.special", "foulim.cli"} <= loaded
    assert sorted(loaded.intersection(OVER_BUDGET)) == []


# the functions of the package that may call streams.keys, per file
KEYS_CALLERS = {"harness.py": {"run_replicated"}}


def callers(source: str, name: str) -> set[str]:
    """Names of the functions in ``source`` that call ``name`` or
    ``streams.<name>`` ("<module>" for a call outside any function)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if ((isinstance(f, ast.Name) and f.id == name)
                        or (isinstance(f, ast.Attribute) and f.attr == name
                            and isinstance(f.value, ast.Name) and f.value.id == "streams")):
                    found.add(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_keys_scanner_flags_a_closure_that_derives_its_keys():
    src = (
        "from . import streams\nfrom .streams import keys\n"
        "def scan(seed, n, params):\n"
        "    def make_chunk(offset, count):\n"
        "        return keys(seed, 'x', offset, count)\n"
        "    return streams.keys(seed, 'y', 0, n), params.keys()\n"
    )
    assert callers(src, "keys") == {"make_chunk", "scan"}


def test_only_run_replicated_derives_keys():
    found = {p.name: callers(p.read_text(), "keys") for p in PACKAGE_FILES}
    assert {name: f for name, f in found.items() if f} == KEYS_CALLERS


# the functions that sample, or take the exact variance or spectrum of, a
# trapezoid integral of G(y^eps) on the grid of step eps / dt_ratio
RATIO_TAKERS = {f.__name__: f for f in (
    harness.variance_scan, harness.joint_covariance_check, harness._fou_endpoint_samples,
    solvers.homogenize, solvers._slow_fast_endpoints, exact.trapezoid_variance,
    exact.he2_trapezoid_spectrum, exact.resolve_dt_ratio)}


def literal_ratio_calls(source: str) -> list[tuple[str, int]]:
    """(name, line) of each call of a RATIO_TAKERS function whose dt_ratio,
    by position or keyword, is a numeric literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in RATIO_TAKERS:
            continue
        bound = dict(zip(inspect.signature(RATIO_TAKERS[name]).parameters, node.args))
        bound.update((kw.arg, kw.value) for kw in node.keywords)
        ratio = bound.get("dt_ratio")
        if (isinstance(ratio, ast.Constant) and isinstance(ratio.value, (int, float))
                and not isinstance(ratio.value, bool)):
            found.append((name, node.lineno))
    return found


def test_ratio_scanner_flags_only_literal_ratios():
    src = (
        "def crit(seed, ratio, alpha):\n"
        "    harness._fou_endpoint_samples(H2, 0.6, 1.0, 0.01, 10, seed, 'a', 100.0, alpha)\n"
        "    harness.variance_scan(H2, 0.6, 1.0, [0.1, 0.05, 0.02], 10, seed, ratio)\n"
        "    exact.trapezoid_variance(H2, 0.6, 1.0, 0.1, dt_ratio=50)\n"
        "    solvers.homogenize(H2, 0.6, 0.02, f, None, None, 10, seed, dt_ratio=None)\n"
        "    return TimeGrid.with_step(1.0, 0.1 / 50.0)\n"
    )
    assert literal_ratio_calls(src) == [("_fou_endpoint_samples", 2),
                                        ("trapezoid_variance", 4)]


def test_no_sampled_integral_takes_a_literal_ratio():
    found = {p.name: literal_ratio_calls(p.read_text()) for p in PACKAGE_FILES}
    assert {name: f for name, f in found.items() if f} == {}
