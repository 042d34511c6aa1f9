"""The package runs on numpy alone; scipy is an oracle of the tests only."""

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


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("not running from a source checkout")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(
        dep.startswith("scipy") for dep in project["optional-dependencies"]["test"]
    )
