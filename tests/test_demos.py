"""The demos print the same bytes as when they were pinned.

Each demo runs in a subprocess of its own; the sha256 of its stdout is
compared with a digest pinned from an earlier run.
Demo 05 (branching, about 16 s) is left out to keep the suite short.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erwalk

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name,want", [
    ("01_memory_kernel.py", "48dc75ed8a2bfa43f638db767075f2bf0fc9bfc7263073ce8f9fdacd7a7fdb4a"),
    ("02_exact_theory.py", "75084a42ceb05564c6402b4f82c169dff5246a34a0b107f3cd6f4df0558507ea"),
    ("03_monte_carlo.py", "94c27e71a87a9b6b7010f21ff5d44ed578432af739575caffdb9974f63390b25"),
    ("04_couplings.py", "77ca3ec593e30ddc95a5dab15a3413867f6de3a0be220b4011a60ed8910ba3e6"),
])
def test_demo_stdout_pinned(name, want):
    src = str(Path(erwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == want
