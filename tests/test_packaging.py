"""The package runs on numpy alone; scipy is an oracle of the tests only.
It has one process pool, `walkers._fan_out`."""

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


def _pool_constructions(path: Path) -> list[str]:
    """`scope:line` of every call that constructs a ProcessPoolExecutor in a
    module, by any name it is imported under; scope is the dotted name of
    the enclosing functions and classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"ProcessPoolExecutor"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "ProcessPoolExecutor" and alias.asname
    }
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in names:
                    found.append(f"{scope or '<module>'}:{child.lineno}")
            visit(child, inner)

    visit(tree, "")
    return found


def test_pool_guard_sees_aliases_and_nesting(tmp_path):
    mod = tmp_path / "probe.py"
    mod.write_text(
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ProcessPoolExecutor as Pool\n"
        "class C:\n    def f(self):\n        return Pool(2)\n"
        "def g():\n    def h():\n        return cf.ProcessPoolExecutor()\n"
        "cf.ProcessPoolExecutor(1).shutdown()\n"
    )
    assert _pool_constructions(mod) == ["C.f:5", "g.h:8", "<module>:9"]


def test_one_process_pool():
    # every fan-out (ensemble blocks, report gates, exact points) goes
    # through walkers._fan_out, the one place that builds a pool
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py")) for where in _pool_constructions(path)
    ]
    assert [where.rsplit(":", 1)[0] for where in found] == ["walkers.py:_fan_out"], found


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("not running from a source checkout")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(
        dep.startswith("scipy") for dep in project["optional-dependencies"]["test"]
    )
