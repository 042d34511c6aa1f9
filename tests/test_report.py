import numpy as np
import pytest

from erwalk import report


def test_sparse_ensembles_run_on_events(monkeypatch):
    # every ensemble of the battery, in order, with the engine that ran it
    ran = []
    run_ensemble = report.run_ensemble

    def recording(params, n_steps, *args, **kw):
        res = run_ensemble(params, n_steps, *args, **kw)
        ran.append((params.p, params.beta, n_steps, res.mode))
        return res

    monkeypatch.setattr(report, "run_ensemble", recording)
    gates = report.run_gates(scale=0.1)
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]
    assert ran == [
        (0.5, -0.5, 2000, "collapsed"),
        (0.5, -0.5, 4000, "collapsed"),
        (0.5, 0.0, 2000, "events"),
        (0.5, 1.0, 2000, "events"),
        (0.5, 2.0, 2000, "events"),
        (0.5, 2.0, 4000, "events"),
    ]


@pytest.mark.parametrize("seed", range(1001, 1021))
def test_gate_battery_passes(seed):
    gates = report.run_gates(["zero_beta", "critical", "localized"], seed=seed)
    failed = [(g.regime, g.name, g.detail) for g in gates if not g.passed]
    assert len(gates) == 10 and failed == []


def test_every_draw_is_keyed(monkeypatch):
    # a Generator built outside `streams` would draw unkeyed numbers
    def refuse(*args, **kwargs):
        raise AssertionError("the gate battery built a Generator outside streams")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    gates = report.run_gates(scale=0.1)
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]
