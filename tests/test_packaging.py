"""The package runs on numpy alone; scipy is an oracle of the tests only.
It has one process pool, `walkers._fan_out`, built on `os.fork`."""

import ast
from pathlib import Path

import pytest

import erwalk

PACKAGE = Path(erwalk.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _scipy_imports(path: Path) -> list[str]:
    """`line: statement` of every scipy import in a module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {stmt}" for line, stmt in sorted(found)]


def test_guard_sees_nested_imports(tmp_path):
    mod = tmp_path / "probe.py"
    mod.write_text(
        "def f():\n    from scipy.special import chdtrc\nimport scipy.stats as st\n"
    )
    assert _scipy_imports(mod) == [
        "2: from scipy.special import chdtrc",
        "3: import scipy.stats as st",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy(module):
    assert _scipy_imports(PACKAGE / module) == []


_POOL_MODULES = ("multiprocessing", "concurrent")


def _pool_code(path: Path) -> list[str]:
    """(scope, line, what) of every `fork` call in a module, by any name `os`
    or `os.fork` is imported under, and of every import of a process-pool
    module (multiprocessing, concurrent.futures); scope is the dotted name
    of the enclosing functions and classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    forks = {"fork"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            forks |= {alias.asname for alias in node.names
                      if alias.name == "fork" and alias.asname}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            what = None
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                if (getattr(func, "id", None) or getattr(func, "attr", None)) in forks:
                    what = "fork"
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = ([alias.name for alias in child.names] if isinstance(child, ast.Import)
                         else [child.module or ""])
                if any(name.split(".")[0] in _POOL_MODULES for name in names):
                    what = "import"
            if what:
                found.append((scope or "<module>", child.lineno, what))
            visit(child, inner)

    visit(tree, "")
    return found


def test_pool_guard_sees_aliases_and_nesting(tmp_path):
    mod = tmp_path / "probe.py"
    mod.write_text(
        "import os as o\n"
        "from os import fork as split\n"
        "class C:\n    def f(self):\n        return split()\n"
        "def g():\n    def h():\n        return o.fork()\n"
        "o.fork()\n"
        "def k():\n    import concurrent.futures as cf\n"
        "    from multiprocessing import get_context\n"
    )
    assert _pool_code(mod) == [
        ("C.f", 5, "fork"), ("g.h", 8, "fork"), ("<module>", 9, "fork"),
        ("k", 11, "import"), ("k", 12, "import"),
    ]


def test_one_process_pool():
    # every fan-out (ensemble blocks, report gates, exact points) goes
    # through walkers._fan_out, the one place that forks, on no pool module
    found = [
        (path.name, scope, what)
        for path in sorted(PACKAGE.glob("*.py")) for scope, _, what in _pool_code(path)
    ]
    assert found == [("walkers.py", "_fan_out", "fork")]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("not running from a source checkout")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(
        dep.startswith("scipy") for dep in project["optional-dependencies"]["test"]
    )
