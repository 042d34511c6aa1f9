import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from erwalk import cli, report, walkers

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
    pools = []
    fan = walkers._fan_out

    def recording(tasks, workers, order=None):
        if workers > 1:
            pools.append(len(tasks))
        return fan(tasks, workers, order)

    monkeypatch.setattr(report, "_FAN_OUT_MIN_REPS", 0)
    monkeypatch.setattr(cli, "_EXACT_FAN_OUT_MIN_N", 0)
    monkeypatch.setattr(walkers, "_pool_size", lambda n_tasks, per_cpu=1: min(2, n_tasks))
    monkeypatch.setattr(walkers, "_fan_out", recording)
    yield pools
    # the workers have ended and been reaped, even after a raise
    assert_no_child()


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
