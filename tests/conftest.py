import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import erwalk
from erwalk import analysis, cli, report, walkers

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def fan_out(monkeypatch):
    """Every battery with a slow gate, and every `erwalk exact` run of two or
    more points with moments, fans out over two workers, whatever its size
    and the host's CPUs; yields the list of task counts that did.  A call of
    `walkers._fan_out` with one worker runs in process and is not counted."""
    monkeypatch.setattr(report, "_FAN_OUT_MIN_REPS", 0)
    monkeypatch.setattr(cli, "_EXACT_FAN_OUT_MIN_N", 0)
    monkeypatch.setattr(walkers, "_pool_size", lambda n_tasks, per_cpu=1: min(2, n_tasks))
    yield spy_fan_out(monkeypatch, lambda workers, tasks: len(tasks))
    # the workers have ended and been reaped, even after a raise
    assert_no_child()


def spy_fan_out(monkeypatch, note=lambda workers, tasks: (workers, tasks), run_on=None):
    """Wrap `walkers._fan_out` so that each call asking for two or more
    workers appends `note(workers, tasks)` to the returned list; the call
    then runs as asked, or on `run_on` workers when that is given."""
    seen = []
    fan = walkers._fan_out

    def spy(tasks, workers, *args, **kw):
        if workers > 1:
            seen.append(note(workers, tasks))
        return fan(tasks, run_on or workers, *args, **kw)

    monkeypatch.setattr(walkers, "_fan_out", spy)
    return seen


def report_slack(width: int) -> int:
    """Bytes `analysis.build_report` may allocate on an ensemble of `width`
    checkpoints: the fold's buffer of _FOLD_ROWS + 1 rows (M_n is formed in
    it), 32 vectors of `width` doubles, and 96 KiB for numpy's 64 KiB
    casting buffer and Python objects."""
    return 8 * width * (analysis._FOLD_ROWS + 1 + 32) + (96 << 10)


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(erwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def assert_no_child():
    """This process has no child process, running or unreaped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is still running" if pid == 0 else
                         f"child process {pid} had ended but was not reaped")


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process behind, such as a fan-out worker."""
    yield
    assert_no_child()
