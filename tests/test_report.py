import numpy as np
import pytest

from erwalk import cli, report


def test_regimes_are_the_phase_labels():
    # the battery's order, which the --regime choices and report.json follow
    assert report.REGIMES == (
        "negative_beta", "zero_beta", "sub_critical_positive", "critical", "localized",
    )
    assert set(report.REGIMES) == {r.value for r in report.analysis.Regime}


@pytest.fixture
def in_process(monkeypatch):
    monkeypatch.setattr(report, "_FAN_OUT_MIN_REPS", 1 << 62)


def test_sparse_ensembles_run_on_events(monkeypatch, in_process):
    # every ensemble of the battery, in order, with the engine that ran it;
    # the recorder appends in this process, so the battery runs here
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


@pytest.mark.parametrize("regimes", [None, ["localized", "negative_beta"]])
def test_pool_gives_the_in_process_gates(monkeypatch, fan_out, regimes):
    got = report.run_gates(regimes, scale=0.1)
    assert fan_out == [len(got)]
    monkeypatch.setattr(report, "_FAN_OUT_MIN_REPS", 1 << 62)
    want = report.run_gates(regimes, scale=0.1)
    assert fan_out == [len(got)]
    assert [(g.regime, g.name, g.passed, g.detail) for g in got] == [
        (g.regime, g.name, g.passed, g.detail) for g in want
    ]


def test_battery_without_a_slow_gate_runs_in_process(fan_out):
    # only the negative-beta ensembles run long enough to pay for a pool
    report.run_gates(["critical", "localized"], scale=2.0)
    assert fan_out == []


def test_pool_writes_the_in_process_bytes(monkeypatch, capsys, tmp_path, fan_out):
    assert cli.main(["report", "--scale", "0.5", "--out", str(tmp_path / "pool")]) == 0
    pooled = capsys.readouterr().out
    monkeypatch.setattr(report, "_FAN_OUT_MIN_REPS", 1 << 62)
    assert cli.main(["report", "--scale", "0.5", "--out", str(tmp_path / "here")]) == 0
    assert fan_out == [16]
    assert capsys.readouterr().out == pooled
    assert (tmp_path / "pool" / "report.json").read_bytes() == (
        tmp_path / "here" / "report.json").read_bytes()


@pytest.mark.parametrize("key, regime, name, value", [
    ("negative_beta_exponent", "negative_beta", "mean growth exponent", 0.9),
    ("critical_log_slope", "critical", "log-growth of the mean", 2.0),
    ("localized_limit_mean", "localized", "limit of the mean", 4.5),
])
def test_pool_fails_a_corrupted_golden(monkeypatch, fan_out, key, regime, name, value):
    # read when the battery is built, or inside the worker's gate
    monkeypatch.setitem(report.GOLDEN, key, value)
    gates = report.run_gates(scale=0.1)
    assert fan_out == [len(gates)]
    assert [(g.regime, g.name) for g in gates if not g.passed] == [(regime, name)]


def test_pool_draws_are_keyed(monkeypatch, fan_out):
    def refuse(*args, **kwargs):
        raise AssertionError("the gate battery built a Generator outside streams")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    gates = report.run_gates(scale=0.1)
    assert fan_out == [len(gates)]
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]


def test_pool_raises_the_tasks_error(monkeypatch, fan_out):
    run_ensemble = report.run_ensemble

    def failing(params, *args, **kw):
        if params.beta == 1.0:
            raise RuntimeError(f"no ensemble at beta = {params.beta}")
        return run_ensemble(params, *args, **kw)

    monkeypatch.setattr(report, "run_ensemble", failing)
    with pytest.raises(RuntimeError, match=r"^no ensemble at beta = 1\.0$") as err:
        report.run_gates(scale=0.1)
    assert err.type is RuntimeError
    assert fan_out == [16]
