"""The demos print the same bytes as when they were pinned.

Each demo runs in a subprocess of its own, with scipy made unimportable
(the demos need numpy alone); the sha256 of its stdout is compared with a
digest pinned from an earlier run.
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
#: runs the demo named by argv[1] as __main__ with scipy made unimportable
_RUN = ("import runpy, sys; sys.modules['scipy'] = None; "
        "runpy.run_path(sys.argv[1], run_name='__main__')")


@pytest.mark.parametrize("name,want", [
    ("01_memory_kernel.py", "48dc75ed8a2bfa43f638db767075f2bf0fc9bfc7263073ce8f9fdacd7a7fdb4a"),
    ("02_exact_theory.py", "75084a42ceb05564c6402b4f82c169dff5246a34a0b107f3cd6f4df0558507ea"),
    ("03_monte_carlo.py", "7b5cb0eb310ef8891f31989d2630e83c1b9fbf4b55527afe7f1b7fc7bd4b3cc0"),
    ("04_couplings.py", "0be027cf3a2b5082ce0d9e06c7359cbabf7192d43b289fb0f43a266dd53e4f64"),
])
def test_demo_stdout_pinned(name, want):
    src = str(Path(erwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, str(DEMOS / name)], env=env, capture_output=True,
        check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == want
