import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erwalk
import erwalk.report as report_mod
from erwalk import cli, serialize
from erwalk.analysis import build_report
from erwalk.cli import main
from erwalk.exact import enumerate_law, exact_mean_xi, l2_diagnostic, propagate_moments
from erwalk.serialize import (
    config_hash,
    write_ensemble,
    write_law,
    write_moments,
    write_trajectory,
)
from erwalk.walkers import MAX_STEPS, ModelParams, run_ensemble, run_walk

from conftest import assert_no_child


class TestSerialize:
    def test_config_hash_stable(self):
        a = config_hash({"p": 0.5, "beta": 1.0})
        b = config_hash({"beta": 1.0, "p": 0.5})
        assert a == b and len(a) == 16
        assert a != config_hash({"p": 0.5, "beta": 2.0})

    def test_trajectory_csv(self, tmp_path):
        traj = run_walk(ModelParams(0.5, 1.0), 100, seed=1, checkpoints=[1, 10, 100],
                        mode="collapsed")
        path = write_trajectory(tmp_path / "t.csv", traj, {"n": 100})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# erwalk ")
        assert lines[1].startswith("# config_hash=")
        assert lines[2] == "# seed=1"
        assert lines[3].startswith("# params p=0.5 beta=1.0")
        assert lines[4] == "n,xi,sigma,m,a"
        assert lines[5].startswith("1,1,1.0,1.0,1.0")

    def test_ensemble_outputs(self, tmp_path):
        res = run_ensemble(ModelParams(0.5, 1.0), 50, 100, seed=2,
                           checkpoints=[1, 50], mode="collapsed")
        rep = build_report(res)
        csv_path = write_ensemble(tmp_path / "e.csv", rep, {})
        assert "n,mean_xi,var_xi,ci_half_xi,mean_m,var_m" in csv_path.read_text()
        json_path = write_ensemble(tmp_path / "e.json", rep, {}, "json")
        payload = json.loads(json_path.read_text())
        assert payload["meta"]["tool"] == "erwalk"
        assert payload["report"]["n_replicates"] == 100

    def test_law_and_moments(self, tmp_path):
        pms = ModelParams(0.5, 1.0)
        law, _ = enumerate_law(pms, 6)
        text = write_law(tmp_path / "law.csv", law, {}).read_text()
        assert text.splitlines()[3] == "k,prob"
        tables = propagate_moments(pms, 100, 2, checkpoints=[1, 10, 100])
        text = write_moments(tmp_path / "m.csv", tables, {}).read_text()
        assert "n,m10,m01,m20,m11,m02" in text


# sha256 of every file `erwalk simulate` and `erwalk report --out` write,
# recorded before the writers moved into serialize and the engines shared one
# driver: --mode auto running events, collapsed with --format json, a
# --differential run (auto runs collapsed at n = 12), and the two report
# regimes whose sparse ensembles run the events engine.  Both report digests
# were pinned after those ensembles moved from collapsed to events
# (run_ensemble(mode="auto")), once the tests of their law passed.  The six
# simulate digests were re-pinned when `workers` left the hashed config; the
# files differ from the earlier pins in their config_hash line or field alone.
# The collapsed-json and differential digests were re-pinned when the
# collapsed and full engines' draws moved to one stream per time step, once
# the tests of their law passed
CLI_GOLDEN = [
    (
        ["simulate", "--p", "0.5", "--beta", "1", "--n", "2000", "--replicates", "2000", "--seed", "11"],
        {
            "simulate_p0.5_beta1.csv":
                "2d1f8bc0a43e2a4b2e687abc4a6a6f43bbe0cd0a0f7e20068e496c1ac63b6ca1",
            "trajectory_p0.5_beta1.csv":
                "305a727916608647fedab828e20b83356be9d4af1a2f7dfc5e162626d5666985",
        },
    ),
    (
        ["simulate", "--p", "0.5", "--beta", "-0.5", "--n", "300", "--replicates", "400", "--seed", "42", "--mode", "collapsed", "--format", "json"],
        {
            "simulate_p0.5_beta-0.5.json":
                "80c56f6e282e3ebf6909335915ac6093d2ba587f41e970e2c54146ac8c88810f",
            "trajectory_p0.5_beta-0.5.csv":
                "5d7c4dac98d098e6324b38cfa42f301f9ebd0f63a50aeb97c9c09169a9b5df58",
        },
    ),
    (
        ["simulate", "--p", "0.5", "--beta", "1", "--n", "12", "--replicates", "3000", "--seed", "3", "--differential"],
        {
            "simulate_p0.5_beta1.csv":
                "e7ea4a681e45a062e9e89622aa8ce17cb5c48f63efea5263cc0f2afc0f58768b",
            "trajectory_p0.5_beta1.csv":
                "4eb18c777cf9bf6812d591f1abb4bb258e8d1ee8b6b7abba095f967e2d223552",
        },
    ),
    (
        ["report", "--regime", "critical", "--scale", "0.1"],
        {
            "report.json":
                "3acf8947b75de1eeda404847bf67c5aa7f0cf370646c27634f660e562bd58694",
        },
    ),
    (
        ["report", "--regime", "localized", "--scale", "0.05"],
        {
            "report.json":
                "1f418d49d7a37ebe9e8eaee63623190109b2f985db6e99693d0810204aea6a0e",
        },
    ),
]


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        args = ["simulate", "--p", "0.5", "--beta", "1", "--n", "300",
                "--replicates", "400", "--seed", "42"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        for name in ("simulate_p0.5_beta1.csv", "trajectory_p0.5_beta1.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_grid_and_json_format(self, tmp_path):
        rc = main(["simulate", "--p", "0.4", "0.6", "--beta", "0", "1",
                   "--n", "100", "--replicates", "50", "--seed", "1",
                   "--format", "json", "--out", str(tmp_path)])
        assert rc == 0
        produced = {p.name for p in tmp_path.iterdir()}
        assert "simulate_p0.4_beta0.json" in produced
        assert "simulate_p0.6_beta1.json" in produced

    def test_seed_required(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "100", "--out", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_invalid_params_exit_2_and_no_partials(self, tmp_path):
        rc = main(["simulate", "--p", "1.5", "--beta", "1", "--n", "50",
                   "--replicates", "10", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["simulate", "--replicates", "10", "--seed", "1"], ["exact"],
    ], ids=["simulate", "exact"])
    def test_infinite_beta_exit_2_and_no_file(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert main([*args, "--p", "0.5", "--beta", "inf", "--n", "200",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: beta must be finite and > -1, got inf\n"
        assert not out.exists()

    def test_seed_outside_64_bits_exit_2(self, tmp_path):
        # 2**64 would alias seed 0's streams if it were reduced mod 2**64
        # n = 1 reads no uniform, so the seed is checked before any engine runs
        for seed in (-1, 2**64):
            for n in ("50", "1"):
                out = tmp_path / f"{seed}_{n}"
                rc = main(["simulate", "--p", "0.5", "--beta", "1", "--n", n,
                           "--replicates", "10", "--seed", str(seed), "--out", str(out)])
                assert rc == 2
                assert not out.exists() or list(out.iterdir()) == []

    def test_differential_gate(self, tmp_path):
        rc = main(["simulate", "--p", "0.5", "--beta", "1", "--n", "100",
                   "--replicates", "20000", "--seed", "7", "--differential",
                   "--differential-n", "8", "--out", str(tmp_path)])
        assert rc == 0

    def test_differential_checks_the_events_engine(self, tmp_path, capsys):
        rc = main(["simulate", "--p", "0.5", "--beta", "1", "--n", "12",
                   "--replicates", "20000", "--seed", "7", "--mode", "events",
                   "--differential", "--differential-n", "12", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "differential full-vs-events at n = 12" in out
        assert "differential events-vs-enumeration" in out
        assert "collapsed" not in out
        traj = (tmp_path / "trajectory_p0.5_beta1.csv").read_text()
        assert "mode=events" in traj

    @pytest.mark.parametrize("n,mode", [(2000, "events"), (12, "collapsed")])
    def test_auto_mode_at_the_benchmark_shapes(self, tmp_path, n, mode):
        # (0.5, 1) expects 0.0036 up-steps per step to n = 2000 and 0.19 to
        # n = 12, on either side of AUTO_EVENTS_MAX_RATE
        reps, beta = 2000, 1.0
        rc = main(["simulate", "--p", "0.5", "--beta", "1", "--n", str(n),
                   "--replicates", str(reps), "--seed", "11", "--out", str(tmp_path)])
        assert rc == 0
        traj = (tmp_path / "trajectory_p0.5_beta1.csv").read_text().splitlines()
        assert traj[3].endswith(f" mode={mode}")
        lines = (tmp_path / "simulate_p0.5_beta1.csv").read_text().splitlines()
        head = [x for x in lines if not x.startswith("#")][0].split(",")
        last = dict(zip(head, map(float, lines[-1].split(","))))
        assert last["n"] == n
        k = np.arange(1, n)
        want = 1.0 + beta * np.sum(1.0 / (k + beta))
        se = np.sqrt(last["var_xi"] / reps)
        assert abs(last["mean_xi"] - want) <= 4.0 * se
        se = np.sqrt(last["var_m"] / reps)
        assert abs(last["mean_m"] - 1.0) <= 4.0 * se

    def test_auto_resolving_to_collapsed_writes_its_rows(self, tmp_path, capsys):
        # only the config hash, which records the mode asked for, differs
        args = ["simulate", "--p", "0.5", "--beta", "1", "--n", "12",
                "--replicates", "3000", "--seed", "3", "--differential"]
        outs = []
        for extra in ([], ["--mode", "collapsed"]):
            out = tmp_path / str(len(outs))
            assert main(args + extra + ["--out", str(out)]) == 0
            outs.append((out, capsys.readouterr().out))
        assert outs[0][1] == outs[1][1]
        for name in ("simulate_p0.5_beta1.csv", "trajectory_p0.5_beta1.csv"):
            a, b = ((o / name).read_text().splitlines() for o, _ in outs)
            assert a[1] != b[1] and a[1].startswith("# config_hash=")
            assert a[:1] + a[2:] == b[:1] + b[2:]

    @pytest.mark.parametrize("mode,engine,calls", [
        ("auto", "collapsed", ["auto", "full"]),
        ("events", "events", ["events", "full"]),
        ("full", "full", ["full", "collapsed"]),
    ])
    def test_differential_reuses_the_runs_xi(self, tmp_path, capsys, monkeypatch, mode,
                                             engine, calls):
        # at differential_n == n the run's own Xi_n stands in for the ensemble
        # of its engine; the p-values are those of a forced recomputation
        modes = []

        def counting(*args, **kw):
            modes.append(kw["mode"])
            return run_ensemble(*args, **kw)

        monkeypatch.setattr(cli, "run_ensemble", counting)
        rc = main(["simulate", "--p", "0.5", "--beta", "1", "--n", "12",
                   "--replicates", "3000", "--seed", "3", "--mode", mode, "--differential",
                   "--differential-n", "12", "--out", str(tmp_path)])
        assert rc == 0
        printed = [x for x in capsys.readouterr().out.splitlines() if x.startswith("differential")]
        assert len(printed) == 3 and modes == calls
        cfg = {"differential_n": 12, "replicates": 3000, "seed": 3}
        assert cli._differential_check(ModelParams(0.5, 1.0), cfg, engine)
        assert len(modes) == 4
        assert capsys.readouterr().out.splitlines() == printed

    @pytest.mark.parametrize("mode,n_diff,want", [
        ("auto", "12", [("auto", 3), ("full", 2**64 - 4)]),
        ("full", "12", [("full", 3), ("collapsed", 2**64 - 4)]),
        ("collapsed", "8", [("collapsed", 3), ("collapsed", 3), ("full", 2**64 - 4)]),
    ])
    def test_differential_oracle_reads_its_own_streams(self, tmp_path, monkeypatch, mode,
                                                        n_diff, want):
        # replicate j of seed s reads the stream keyed (s, j): under the run's
        # seed the oracle's Xi_n would correlate with the run's (0.38 at
        # (0.5, 1), n = 12), and the two-sample test assumes independence
        calls = []

        def keyed(params, n, reps, seed, **kw):
            calls.append((kw.get("mode", "auto"), seed))
            return run_ensemble(params, n, reps, seed, **kw)

        monkeypatch.setattr(cli, "run_ensemble", keyed)
        rc = main(["simulate", "--p", "0.5", "--beta", "1", "--n", "12",
                   "--replicates", "3000", "--seed", "3", "--mode", mode, "--differential",
                   "--differential-n", n_diff, "--out", str(tmp_path)])
        assert rc == 0
        assert calls == want

    def test_sigma_level_checked_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kw):
            raise AssertionError("run_ensemble reached")

        monkeypatch.setattr(cli, "run_ensemble", no_run)
        rc = main(["simulate", "--n", "50", "--replicates", "10", "--seed", "1",
                   "--sigma-level", "nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "sigma level" in capsys.readouterr().err
        assert not tmp_path.exists() or list(tmp_path.iterdir()) == []

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.5, "beta": 1.0, "n": 100,
                                   "replicates": 30, "seed": 5}))
        rc = main(["simulate", "--config", str(cfg), "--beta", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        names = {p.name for p in (tmp_path / "o").iterdir()}
        assert "simulate_p0.5_beta2.csv" in names  # flag beat config

    @pytest.mark.parametrize(
        "args,want", CLI_GOLDEN, ids=["events", "collapsed-json", "differential", "report", "report-localized"]
    )
    def test_golden_digests(self, tmp_path, args, want):
        assert main([*args, "--out", str(tmp_path)]) == 0
        got = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()
        }
        assert got == want

    @pytest.mark.parametrize("mode", ["auto", "collapsed"])
    def test_workers_write_the_same_bytes(self, tmp_path, mode):
        # 5000 replicates: two events blocks, or three collapsed ones, over
        # the pool.  The config hash leaves out --workers, so every byte agrees
        args = ["simulate", "--p", "0.5", "--beta", "1", "--n", "2000",
                "--replicates", "5000", "--seed", "11", "--mode", mode]
        files = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main([*args, "--workers", workers, "--out", str(out)]) == 0
            files.append({f.name: f.read_text().splitlines() for f in out.iterdir()})
        one, two = files
        assert sorted(one) == sorted(two) == ["simulate_p0.5_beta1.csv", "trajectory_p0.5_beta1.csv"]
        ran = "events" if mode == "auto" else mode
        assert f"mode={ran}" in one["trajectory_p0.5_beta1.csv"][3]
        assert one == two

    @pytest.mark.parametrize("how", ["0", "-3", "config 2.5"])
    def test_bad_worker_count_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                    how):
        def no_run(*args, **kw):
            raise AssertionError("run_ensemble reached")

        monkeypatch.setattr(cli, "run_ensemble", no_run)
        args = ["simulate", "--n", "50", "--replicates", "10", "--seed", "1",
                "--out", str(tmp_path / "o")]
        if how.startswith("config"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"workers": 2.5}))
            args += ["--config", str(cfg)]
        else:
            args += ["--workers", how]
        assert main(args) == 2
        err = capsys.readouterr().err
        if how.startswith("config"):  # the config's own check, by the flag's type
            assert "config key 'workers' must be an integer" in err
        else:
            assert "workers must be an integer >= 1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1", "5000"])
    def test_bad_differential_n_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                      value):
        # 5000 is past the full engine's cap of 4096 steps
        def no_run(*args, **kw):
            raise AssertionError("run_ensemble reached")

        monkeypatch.setattr(cli, "run_ensemble", no_run)
        rc = main(["simulate", "--n", "50", "--replicates", "10", "--seed", "1",
                   "--differential", "--differential-n", value, "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: differential_n must be an integer in [2, 4096], got {value}\n"
        assert not (tmp_path / "o").exists()

    def test_horizon_past_the_cap_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--p", "0.5", "--beta", "1",
                   "--n", str(MAX_STEPS + 1), "--replicates", "10", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "n_steps" in err and str(MAX_STEPS) in err
        assert list(tmp_path.iterdir()) == []

    def test_horizon_past_the_weights_overflow_exit_2(self, tmp_path, capsys):
        # mu_n grows like n^beta: at beta = 300 it overflowed past n = 1016,
        # and the run failed its guard with exit 1 after two RuntimeWarnings
        args = ["simulate", "--beta", "300", "--replicates", "10", "--seed", "1"]
        assert main([*args, "--n", "2000", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: n_steps = 2000 is too long for beta = 300.0: the memory weights"
            " overflow a double past n = 1016, the longest horizon this beta allows\n"
        )
        assert not (tmp_path / "o").exists()
        assert main([*args, "--n", "1016", "--out", str(tmp_path / "ok")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag,value", [
        ("--checkpoint-ratio", "inf"), ("--checkpoint-ratio", "nan"),
        ("--sigma-level", "nan"), ("--sigma-level", "-3"), ("--sigma-level", "inf"),
    ])
    def test_bad_ratio_or_level_exit_2(self, tmp_path, capsys, flag, value):
        rc = main(["simulate", "--n", "50", "--replicates", "10", "--seed", "1",
                   flag, value, "--out", str(tmp_path)])
        assert rc == 2
        assert ("ratio" if "ratio" in flag else "sigma level") in capsys.readouterr().err
        assert not tmp_path.exists() or list(tmp_path.iterdir()) == []

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        rc = main(["simulate", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("text", ["5", "[[1]]", '"p"', "null"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["simulate", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: config file must hold a JSON object, got {json.loads(text)!r}\n"
        )
        assert not (tmp_path / "o").exists()


class TestConfigValues:
    """Config file values are checked against the flags' declarations."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def record(name):
            return lambda *args, **kw: calls.append(name)

        monkeypatch.setattr(cli, "run_ensemble", record("run_ensemble"))
        monkeypatch.setattr(cli, "run_walk", record("run_walk"))
        for name in ("_mean_table", "_moments_and_l2", "enumerate_law"):
            monkeypatch.setattr(cli.exact, name, record(name))
        monkeypatch.setattr(cli.report, "run_gates", record("run_gates"))
        return calls

    @pytest.mark.parametrize("command,config,key", [
        # each was once coerced or taken as it came, and the run went ahead
        ("simulate", {"replicates": 10.7, "n": 50.9, "seed": 1.5}, "replicates"),
        ("simulate", {"format": "xml"}, "format"),
        ("exact", {"degree": 2.9}, "degree"),
        ("simulate", {"differential": "no"}, "differential"),
        ("simulate", {"checkpoint_ratio": "1.5"}, "checkpoint_ratio"),
        ("simulate", {"p": [0.5, "0.6"]}, "p"),
        ("simulate", {"beta": []}, "beta"),
        ("simulate", {"n": True}, "n"),
        ("simulate", {"mode": None}, "mode"),
        ("exact", {"critical": 1}, "critical"),
        ("report", {"seed": 2.0}, "seed"),
        ("report", {"regime": ["critical", "bogus"]}, "regime"),
    ], ids=["replicates-n-seed", "format", "degree", "differential", "ratio-string",
            "p-list", "empty-list", "bool-int", "null-mode", "int-switch",
            "report-seed", "report-regime"])
    def test_bad_value_exit_2_before_any_run(self, tmp_path, capsys, spy, command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        args = [command, "--config", str(cfg), "--out", str(out)]
        if command == "simulate" and "seed" not in config:
            args += ["--seed", "1"]
        assert main(args) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert spy == []
        assert not out.exists()

    def test_valid_values_run_as_given(self, tmp_path):
        # ints for float flags, a list for --p, false and null where allowed;
        # the config hash records each value as the file gave it
        config = {"p": [0.5], "beta": 1, "n": 60, "replicates": 20, "seed": 4,
                  "mode": "collapsed", "checkpoint_ratio": 2, "sigma_level": 4,
                  "format": "csv", "differential": False, "out": None}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        hashed = {k: v for k, v in config.items() if k != "out"}
        hashed["differential_n"] = 12  # the one default left; workers is not hashed
        text = (out / "simulate_p0.5_beta1.csv").read_text()
        assert f"# config_hash={config_hash(hashed)}" in text


#: a value for each config key of each command, none of them its default
GIVEN = {
    "simulate": {
        "out": "elsewhere", "p": [0.25, 0.75], "beta": [2.0], "n": 77, "replicates": 33,
        "seed": 5, "mode": "full", "checkpoint_ratio": 1.5, "format": "json", "workers": 2,
        "sigma_level": 3.0, "differential": True, "differential_n": 9,
    },
    "exact": {
        "out": "elsewhere", "p": [0.25], "beta": [2.0, 3.0], "n": 500, "degree": 2,
        "enumerate": True, "critical": True, "checkpoint_ratio": 2.0, "format": "json",
    },
    "report": {
        "out": "elsewhere", "regime": ["critical", "localized"], "seed": 3, "scale": 0.5,
        "sigma_level": 5.0,
    },
}


def _subparser(command):
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return sub.choices[command]


def _argv(command, values):
    """The command line that gives each of `values` by its flag."""
    argv = [command]
    for action in _subparser(command)._actions:
        if action.dest not in values:
            continue
        flag, value = action.option_strings[0], values[action.dest]
        if value is True:
            argv.append(flag)
        elif action.nargs == "+":
            argv += [flag, *map(str, value)]
        elif isinstance(value, list):  # an appended flag, given once per value
            for v in value:
                argv += [flag, str(v)]
        else:
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize("command", sorted(GIVEN))
class TestFlags:
    """The config keys are the parser's flags, and every flag reaches the
    resolved config."""

    def test_config_keys_are_the_flag_destinations(self, command, tmp_path):
        dests = {a.dest for a in _subparser(command)._actions} - {"help", "config"}
        assert set(GIVEN[command]) == dests
        cfg, given = cli._merged(cli.build_parser().parse_args([command]))
        assert set(cfg) == dests and given == set()
        assert all(cfg[key] != value for key, value in GIVEN[command].items())
        # a config file may set every one of them, and nothing else
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GIVEN[command]))
        args = cli.build_parser().parse_args([command, "--config", str(path)])
        assert cli._merged(args) == (GIVEN[command], dests)
        path.write_text(json.dumps({**GIVEN[command], "config": "x.json"}))
        with pytest.raises(ValueError, match=r"unknown config keys: \['config'\]"):
            cli._merged(args)

    def test_every_flag_reaches_the_config(self, command):
        args = cli.build_parser().parse_args(_argv(command, GIVEN[command]))
        cfg, given = cli._merged(args)
        assert cfg == GIVEN[command]
        assert given == set(GIVEN[command])

    def test_help_lists_the_flag_of_every_config_key(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in GIVEN[command]:
            assert f"--{key.replace('_', '-')}" in out, key


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "erwalk 0.1.0\n"


# sha256 of every file `erwalk exact` writes, recorded from the whole-array
# propagator before it was streamed in chunks
EXACT_GOLDEN = [
    (
        ["--critical", "--p", "0.3", "0.5", "0.7", "--n", "200000", "--degree", "3"],
        {
            "exact_critical_ratios_p0.3_beta0.428571.csv":
                "9646d9497f43188eaabf40b72775318c43160c0c1d2aac31335e9caefdcd967c",
            "exact_critical_ratios_p0.5_beta1.csv":
                "f705ce2e362909192450ec670daa72c365dcf4ff4759b80104e22df05b2e2baa",
            "exact_critical_ratios_p0.7_beta2.33333.csv":
                "62f8ef8989842ce18cd336704f4ff39ba369f39de49b57d80d9f37e09975e7d8",
            "exact_l2_p0.3_beta0.428571.json":
                "abdbf3454aaedd4d8cf225e924adefb3251dbad15fe7e9055aaba8611eea2d09",
            "exact_l2_p0.5_beta1.json":
                "28a36d57067692788eae6da750bfe69b9e6fbd420e720f0170f8306090a8e516",
            "exact_l2_p0.7_beta2.33333.json":
                "91b1fc9e08f9d206c5bd2686d4ade592001016a60528e6b08197000b59cfed0e",
            "exact_mean_p0.3_beta0.428571.csv":
                "12e0a009075f5e13b27e12b711421604e9791c10c7cfb3360a22084d0d8d3ab5",
            "exact_mean_p0.5_beta1.csv":
                "93892ba7121f82af9546ee75a2f5cb946bb74eed598fba1d6ca569ca8bb3d454",
            "exact_mean_p0.7_beta2.33333.csv":
                "0842db6a6af8dc62d6a3498c5b71fa51fed79f726a3c579dad85f8586320227f",
            "exact_moments_p0.3_beta0.428571.csv":
                "d86e37ebc17f76f86631e2e181887a1c96a02d5a821c559fe5e3836f65e8c76c",
            "exact_moments_p0.5_beta1.csv":
                "4776b1be36642357aa60f231569493a77b7727533b7199843d0686dc1d01b4e0",
            "exact_moments_p0.7_beta2.33333.csv":
                "6f861ac4073652c6f775d6941768a017415d1b0a46e735837b9512d648998ac7",
        },
    ),
    (
        ["--critical", "--p", "0.5", "--n", "20000", "--degree", "3", "--format", "json"],
        {
            "exact_critical_ratios_p0.5_beta1.csv":
                "8766de69cc01c9fa283a0467e790baf7fb655938d501fc3b9393dcb2b870062c",
            "exact_l2_p0.5_beta1.json":
                "9c87bb65db368297fa1078c48514fcc65752173fdb2b27e1ecf5ef226ca3b267",
            "exact_mean_p0.5_beta1.json":
                "b1494c0bf6a3b7e58344a9e7ac1dc8bdd38c4702c5690e7012b9cd66030fbfe1",
            "exact_moments_p0.5_beta1.json":
                "9f0f5e0ae24eb25988ff78b784985cc8592708d193b74d30bb1917e1c4f0d8ba",
        },
    ),
    (
        ["--p", "0.5", "--beta", "0.5", "--n", "20000", "--degree", "1"],
        {
            "exact_l2_p0.5_beta0.5.json":
                "ab74bfbcd3b53ef2f00c681bbc5ff9898399c0ada3ad6c879473a03d45493a99",
            "exact_mean_p0.5_beta0.5.csv":
                "d6ec96cff8236c45c65463a98e117f4a44a3191ed37eac676951c7b6c23b95c7",
            "exact_moments_p0.5_beta0.5.csv":
                "bce46d8632ac16b765bd36ad21bd36d75934c7bb55798081f202c0c35a56c27c",
        },
    ),
    (
        ["--p", "0.5", "--beta", "2", "--n", "1000", "--enumerate"],
        {
            "exact_law_p0.5_beta2.csv":
                "6b3967a4a24fea25762743eea31e9333836cd10d441c8ecf3f46b0f508ab9348",
            "exact_mean_p0.5_beta2.csv":
                "7f119f024d1921443a61a962442705eb9a6022cdeab903ca7791ea59632658d8",
        },
    ),
    (
        ["--p", "0.5", "--beta", "2", "--n", "1000", "--enumerate", "--format", "json"],
        {
            "exact_law_p0.5_beta2.json":
                "55b47fc98606fbe46c8db449cd9c2a25102c2221ef13fec27fe1d4c4ed30b009",
            "exact_mean_p0.5_beta2.json":
                "52a43187b4bd7c4942ec37a65d79de683c328c092e2184ed66fcefb75d6a18a7",
        },
    ),
]


#: the horizon from which `erwalk exact` may fan out, read before any test
#: patches it
EXACT_CUT = cli._EXACT_FAN_OUT_MIN_N


class TestExactCommand:
    def test_mean_table_with_limit_column(self, tmp_path):
        rc = main(["exact", "--p", "0.5", "--beta", "2", "--n", "10000",
                   "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "exact_mean_p0.5_beta2.csv").read_text()
        assert "n,mean_xi,limit,gap" in text
        assert "# regime=localized" in text

    def test_enumerate_output(self, tmp_path):
        rc = main(["exact", "--p", "0.5", "--beta", "1", "--n", "12",
                   "--enumerate", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "exact_law_p0.5_beta1.csv").read_text().splitlines()
        probs = [float(line.split(",")[1]) for line in lines[4:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_critical_ratio_columns(self, tmp_path):
        rc = main(["exact", "--critical", "--p", "0.5", "--n", "20000",
                   "--degree", "3", "--out", str(tmp_path)])
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "exact_critical_ratios_p0.5_beta1.csv" in names
        assert "exact_moments_p0.5_beta1.csv" in names
        assert "exact_l2_p0.5_beta1.json" in names
        header = (tmp_path / "exact_critical_ratios_p0.5_beta1.csv").read_text()
        assert "n,r10,r11,r20,r21,r22,r30,r31,r32,r33" in header

    @pytest.mark.parametrize(
        "args,want", EXACT_GOLDEN, ids=["critical", "json", "degree1", "localized", "localized-json"]
    )
    def test_golden_digests(self, tmp_path, args, want):
        assert main(["exact", *args, "--out", str(tmp_path)]) == 0
        got = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()
        }
        assert got == want

    @pytest.mark.parametrize("p", ["1.0", "0"])
    def test_critical_p_outside_unit_interval(self, tmp_path, capsys, p):
        rc = main(["exact", "--critical", "--p", p, "--out", str(tmp_path)])
        assert rc == 2
        assert "p must lie in (0, 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_moments_below_diagnostic_horizon_rejected_up_front(
        self, tmp_path, capsys
    ):
        rc = main(["exact", "--critical", "--p", "0.5", "--n", "50",
                   "--degree", "1", "--out", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "n_max must be >= 100" in out.err
        assert not tmp_path.exists() or list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_degree_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, source
    ):
        # a negative degree once ran as degree 0: exit 0, mean table only
        calls = []
        for name in ("_mean_table", "_moments_and_l2"):
            monkeypatch.setattr(cli.exact, name, lambda *a, name=name: calls.append(name))
        out = tmp_path / "o"
        args = ["exact", "--p", "0.5", "--beta", "1", "--out", str(out)]
        if source == "flag":
            args += ["--degree", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"degree": -1}))
            args += ["--config", str(cfg)]
        assert main(args) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert "degree must be >= 0" in got.err
        assert calls == []
        assert not out.exists()

    def test_huge_beta_exit_2_naming_the_limit(self, tmp_path, capsys):
        # past 1e6 the direct Gamma path loses its digits; at 1e20 the exact
        # mean once failed with "math range error"
        out = tmp_path / "o"
        rc = main(["exact", "--beta", "1e20", "--n", "200", "--out", str(out)])
        assert rc == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (
            "error: exponent 1e+20 exceeds 1e+06, the largest the direct Gamma-ratio"
            " path takes before its log-Gamma difference loses digits\n"
        )
        assert not out.exists()

    def test_simulate_past_the_direct_path_limit(self, tmp_path):
        # the walk runs at beta = 1e7, and so does its M_n (rate 5e6)
        out = tmp_path / "o"
        rc = main(["simulate", "--beta", "1e7", "--n", "50", "--replicates", "10",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "simulate_p0.5_beta1e+07.csv").exists()

    @pytest.mark.parametrize("n, engine", [(20, "collapsed"), (26, "collapsed"), (50, "events")])
    def test_auto_past_the_direct_path_limit_at_any_horizon(self, tmp_path, n, engine):
        # below n = 27 the localized bound leaves mode auto undecided at
        # beta = 1e7; it must not ask exact_mean_xi, which refuses beta past 1e6
        out = tmp_path / "o"
        rc = main(["simulate", "--beta", "1e7", "--n", str(n), "--replicates", "10",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        header = (out / "trajectory_p0.5_beta1e+07.csv").read_text().splitlines()[3]
        assert header.endswith(f" mode={engine}")

    @pytest.mark.parametrize("ratio", ["inf", "nan"])
    def test_bad_checkpoint_ratio_exit_2(self, tmp_path, capsys, ratio):
        rc = main(["exact", "--p", "0.5", "--beta", "1", "--n", "1000",
                   "--checkpoint-ratio", ratio, "--out", str(tmp_path)])
        assert rc == 2
        assert "ratio must be finite" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--badflag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args,want", EXACT_GOLDEN, ids=["critical", "json", "degree1", "localized", "localized-json"]
    )
    def test_pool_writes_the_golden_bytes(self, tmp_path, capsys, monkeypatch, fan_out,
                                          args, want):
        # every point of every case goes to the pool, even the ones the
        # fan-out rule keeps in process
        runs = []
        for workers in (2, 1):
            monkeypatch.setattr(cli, "_exact_workers", lambda *a, w=workers: w)
            out = tmp_path / str(workers)
            assert main(["exact", *args, "--out", str(out)]) == 0
            digests = {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()
            }
            runs.append((digests, capsys.readouterr().out))
        points = sum(name.startswith("exact_mean_") for name in want)
        assert fan_out == [points]
        assert runs[0] == runs[1]
        assert runs[0][0] == want
        assert runs[0][1].count("\n") == points

    def test_critical_line_fans_out_under_the_rule(self, tmp_path, capsys, fan_out):
        # the forced cut and pool size, not a patched rule, send it out
        args, want = EXACT_GOLDEN[0]
        assert main(["exact", *args, "--out", str(tmp_path)]) == 0
        assert fan_out == [3]
        assert {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()
        } == want
        assert capsys.readouterr().out == (
            "exact p0.3_beta0.428571: mean table at 64 checkpoints\n"
            "exact p0.5_beta1: mean table at 64 checkpoints\n"
            "exact p0.7_beta2.33333: mean table at 64 checkpoints\n"
        )

    def test_pool_worker_error_exit_2_leaves_nothing(self, tmp_path, capsys, fan_out):
        # the second point raises in its worker; the first one's results,
        # already collected, are not written
        out = tmp_path / "o"
        rc = main(["exact", "--p", "0.5", "--beta", "1", "1e20", "--n", "200",
                   "--degree", "1", "--out", str(out)])
        assert rc == 2
        assert fan_out == [2]
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (
            "error: exponent 1e+20 exceeds 1e+06, the largest the direct Gamma-ratio"
            " path takes before its log-Gamma difference loses digits\n"
        )
        assert not out.exists()
        assert_no_child()

    @pytest.mark.parametrize("args, cut", [
        (["--p", "0.5", "--beta", "1", "--n", "1000", "--degree", "2"], 0),
        (["--p", "0.3", "0.5", "--beta", "1", "2", "--n", "1000"], 0),
        (["--p", "0.3", "0.5", "--beta", "1", "2", "--n", "1000", "--degree", "0",
          "--enumerate"], 0),
        (["--critical", "--p", "0.3", "0.5", "0.7", "--n", str(EXACT_CUT - 1),
          "--degree", "1"], EXACT_CUT),
    ], ids=["single-point", "degree-0", "degree-0-enumerate", "below-the-cut"])
    def test_small_runs_build_no_pool(self, tmp_path, monkeypatch, fan_out, args, cut):
        monkeypatch.setattr(cli, "_EXACT_FAN_OUT_MIN_N", cut)
        assert main(["exact", *args, "--out", str(tmp_path)]) == 0
        assert fan_out == []

    def test_pool_from_the_cut_up(self, monkeypatch, fan_out):
        monkeypatch.setattr(cli, "_EXACT_FAN_OUT_MIN_N", EXACT_CUT)
        assert cli._exact_workers(3, EXACT_CUT - 1, 3) == 1
        assert cli._exact_workers(3, EXACT_CUT, 3) == 2
        assert cli._exact_workers(2, EXACT_CUT, 1) == 2
        assert cli._exact_workers(2, EXACT_CUT, 0) == 1
        assert cli._exact_workers(1, EXACT_CUT, 3) == 1
        assert fan_out == []

    @pytest.mark.parametrize("command, values, clash", [
        ("exact", ["--p", "0.5", "0.5000001", "--beta", "1"],
         "(0.5, 1.0) and (0.5000001, 1.0) would write the same files (p0.5_beta1)"),
        ("exact", ["--p", "0.5", "0.5", "--beta", "1"],
         "(0.5, 1.0) and (0.5, 1.0) would write the same files (p0.5_beta1)"),
        ("exact", ["--p", "0.4", "--beta", "2", "1", "2.0000001"],
         "(0.4, 2.0) and (0.4, 2.0000001) would write the same files (p0.4_beta2)"),
        ("exact", ["--critical", "--p", "0.5", "0.50000001"],
         "(0.5, 1.0) and (0.50000001, 1.000000040000001) would write the same files"
         " (p0.5_beta1)"),
        ("simulate", ["--p", "0.5", "0.5000001", "--beta", "1", "--seed", "1",
                      "--replicates", "10"],
         "(0.5, 1.0) and (0.5000001, 1.0) would write the same files (p0.5_beta1)"),
        ("simulate", ["--p", "0.5", "--beta", "1", "1", "--seed", "1",
                      "--replicates", "10"],
         "(0.5, 1.0) and (0.5, 1.0) would write the same files (p0.5_beta1)"),
    ], ids=["exact-p", "exact-p-repeated", "exact-beta", "exact-critical", "simulate-p",
            "simulate-beta-repeated"])
    def test_grid_points_sharing_a_file_exit_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, values, clash
    ):
        calls = []
        for mod, name in ((cli.exact, "_mean_table"), (cli, "run_ensemble")):
            monkeypatch.setattr(mod, name, lambda *a, **k: calls.append(a))
        out = tmp_path / "o"
        assert main([command, *values, "--n", "100", "--out", str(out)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == f"error: grid points (p, beta) = {clash}\n"
        assert calls == []
        assert not out.exists()

    def test_grid_from_a_config_file_checked_for_clashes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": [0.3, 0.3], "beta": 1}))
        out = tmp_path / "o"
        assert main(["exact", "--config", str(cfg), "--n", "100", "--out", str(out)]) == 2
        assert "would write the same files (p0.3_beta1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        ["--critical", "--beta", "3"],
        ["--critical", "--beta", "1"],
        ["--critical", {"beta": 3}],
        ["--critical", {"beta": 1.0}],
        ["--beta", "3", {"critical": True}],
        [{"critical": True, "beta": [1, 2]}],
    ], ids=["flag", "flag-default-value", "config", "config-default-value",
            "critical-in-config", "both-in-config"])
    def test_beta_with_critical_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, source
    ):
        calls = []
        monkeypatch.setattr(cli.exact, "_mean_table", lambda *a: calls.append(a))
        args = []
        for item in source:
            if isinstance(item, dict):
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps(item))
                args += ["--config", str(cfg)]
            else:
                args.append(item)
        out = tmp_path / "o"
        assert main(["exact", "--p", "0.5", "--n", "1000", *args, "--out", str(out)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (
            "error: beta cannot be given with critical, which sets beta = p/(1-p)\n"
        )
        assert calls == []
        assert not out.exists()

    def test_critical_without_beta_in_a_config_file(self, tmp_path):
        # the default beta is not a given one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"critical": True, "p": [0.5]}))
        assert main(["exact", "--config", str(cfg), "--n", "1000", "--out",
                     str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "exact_mean_p0.5_beta1.csv").exists()


class TestReportCommand:
    def test_single_regime_passes(self, tmp_path, capsys):
        rc = main(["report", "--regime", "localized", "--scale", "0.2",
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "overall: PASS" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert all(g["passed"] for g in payload)

    def test_corrupted_golden_names_failing_gate(self, capsys, monkeypatch):
        monkeypatch.setitem(
            report_mod.GOLDEN, "localized_limit_mean", 3.5
        )
        rc = main(["report", "--regime", "localized", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "limit of the mean" in out and "FAIL" in out

    @pytest.mark.parametrize("level", ["nan", "0", "-3"])
    def test_bad_sigma_level_exit_2(self, capsys, level):
        rc = main(["report", "--regime", "critical", "--scale", "0.2",
                   "--sigma-level", level])
        assert rc == 2
        captured = capsys.readouterr()
        assert "sigma level" in captured.err and captured.out == ""

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_bad_scale_exit_2(self, tmp_path, capsys, scale):
        rc = main(["report", "--regime", "localized", "--scale", scale,
                   "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "scale must be finite and > 0" in captured.err and captured.out == ""
        assert not (tmp_path / "report.json").exists()

    def test_unknown_regime_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--regime", "bogus"])
        assert exc.value.code == 2


class TestFailurePath:
    """`main` turns every command's failure into one `error:` line and an
    exit code, and removes the files the command wrote."""

    @pytest.mark.parametrize("args", [
        ["simulate", "--n", "50", "--replicates", "10", "--seed", "1"],
        ["exact", "--p", "0.5", "--beta", "1", "--n", "100"],
        ["report", "--regime", "sub_critical_positive"],
    ], ids=["simulate", "exact", "report"])
    def test_out_naming_a_regular_file_exit_1(self, tmp_path, capsys, args):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert list(tmp_path.iterdir()) == [out] and out.read_text() == "kept\n"

    @pytest.mark.parametrize("args, module, first_run", [
        (["simulate", "--seed", "1"], cli, "run_ensemble"),
        (["exact"], cli.exact, "_mean_table"),
        (["report"], cli.report, "run_gates"),
    ], ids=["simulate", "exact", "report"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_unwritable_out_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch, args, module, first_run, below
    ):
        def no_run(*a, **kw):
            raise AssertionError("the run started")

        monkeypatch.setattr(module, first_run, no_run)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main([*args, "--out", str(taken / below)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: [Errno 17] output path is not a directory: '{taken}'\n"
        )
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    def test_failed_run_removes_the_files_it_wrote(self, tmp_path, capsys):
        # the ensemble file is written, then the trajectory's path, a
        # directory, cannot be
        (tmp_path / "trajectory_p0.5_beta1.csv").mkdir()
        rc = main(["simulate", "--p", "0.5", "--beta", "1", "--n", "50",
                   "--replicates", "10", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory_p0.5_beta1.csv"]

    def test_report_battery_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kw):
            raise RuntimeError("ensemble failed")

        monkeypatch.setattr(report_mod, "run_ensemble", broken)
        rc = main(["report", "--regime", "critical", "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: ensemble failed\n"
        assert list(tmp_path.iterdir()) == []

    def test_module_run_prints_no_traceback(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        src = str(Path(erwalk.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "erwalk.cli", "report", "--regime",
             "sub_critical_positive", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_every_file_goes_through_serialize(tmp_path, monkeypatch):
    written = []
    write = serialize._write

    def recording_write(path, lines):
        written.append(Path(path))
        return write(path, lines)

    monkeypatch.setattr(serialize, "_write", recording_write)
    runs = [
        ["simulate", "--p", "0.5", "--beta", "1", "--n", "100", "--replicates", "50",
         "--seed", "1"],
        ["simulate", "--p", "0.5", "--beta", "1", "--n", "100", "--replicates", "50",
         "--seed", "1", "--format", "json"],
        ["exact", "--p", "0.5", "--beta", "2", "--n", "1000", "--degree", "2",
         "--enumerate"],
        ["exact", "--p", "0.5", "--beta", "2", "--n", "1000", "--degree", "2",
         "--enumerate", "--format", "json"],
        ["exact", "--critical", "--p", "0.5", "--n", "1000", "--degree", "3"],
        ["exact", "--critical", "--p", "0.5", "--n", "1000", "--degree", "3",
         "--format", "json"],
        ["report", "--regime", "localized", "--scale", "0.05"],
    ]
    for i, args in enumerate(runs):
        out = tmp_path / str(i)
        main([*args, "--out", str(out)])
        files = sorted(out.iterdir())
        assert files and sorted(p for p in written if p.parent == out) == files, args
    names = {p.name for p in written}
    for stem in ("simulate_", "trajectory_", "exact_mean_", "exact_moments_",
                 "exact_critical_ratios_", "exact_l2_", "exact_law_", "report"):
        assert any(n.startswith(stem) for n in names), stem


def test_writers_return_their_path(tmp_path):
    # perfbench's tracing reads the size of the file each writer returns
    pms = ModelParams(0.5, 1.0)
    traj = run_walk(pms, 100, seed=1, checkpoints=[1, 10, 100], mode="collapsed")
    rep = build_report(run_ensemble(pms, 50, 100, seed=2, checkpoints=[1, 50], mode="collapsed"))
    law, _ = enumerate_law(pms, 6)
    cps = np.array([1, 10, 200])
    tables = propagate_moments(pms, 200, 3, checkpoints=cps)
    diag = l2_diagnostic(pms, 200)
    means = [exact_mean_xi(int(n), pms) for n in cps]
    gates = report_mod.run_gates(regimes=["localized"], scale=0.05)
    # each writer's arguments, and the formats it takes: one writer per kind
    # of file in both formats, one for each kind that has a single format
    both = serialize.FORMATS
    args = {
        "write_trajectory": ((traj, {}), both),
        "write_ensemble": ((rep, {}), both),
        "write_law": ((law, {}), both),
        "write_moments": ((tables, {}), both),
        "write_mean_table": ((pms, cps, means, {}, "critical", 2.0), both),
        "write_critical_ratios_csv": ((pms, tables, {}), (None,)),
        "write_l2_json": ((diag,), (None,)),
        "write_report_json": ((gates,), (None,)),
    }
    writers = [name for name in serialize.__all__ if name.startswith("write_")]
    assert sorted(writers) == sorted(args)
    for name in writers:
        given, formats = args[name]
        for fmt in formats:
            path = tmp_path / "sub" / f"{name}.{fmt}"
            kw = {} if fmt is None else {"fmt": fmt}
            got = getattr(serialize, name)(path, *given, **kw)
            assert isinstance(got, Path) and got == path and got.stat().st_size > 0, name
            if fmt == "json" or name.endswith("_json"):
                json.loads(path.read_text())
            else:
                assert path.read_text().startswith("# erwalk "), name
    # the limit-free mean table, in both formats
    for fmt in both:
        path = tmp_path / "sub" / f"mean_no_limit.{fmt}"
        assert serialize.write_mean_table(path, pms, cps, means, {}, "critical", fmt=fmt) == path


def test_unknown_format_is_refused_before_any_write(tmp_path):
    pms = ModelParams(0.5, 1.0)
    law, _ = enumerate_law(pms, 6)
    tables = propagate_moments(pms, 100, 1, checkpoints=[1, 100])
    traj = run_walk(pms, 10, seed=1, checkpoints=[1, 10], mode="collapsed")
    rep = build_report(run_ensemble(pms, 10, 20, seed=2, checkpoints=[1, 10], mode="collapsed"))
    calls = [
        (serialize.write_trajectory, (traj, {})),
        (serialize.write_ensemble, (rep, {})),
        (serialize.write_law, (law, {})),
        (serialize.write_moments, (tables, {})),
        (serialize.write_mean_table, (pms, [1, 10], [1.0, 2.0], {}, "critical")),
    ]
    for write, given in calls:
        with pytest.raises(ValueError, match="format must be one of"):
            write(tmp_path / "sub" / "x.xml", *given, fmt="xml")
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize("means", [[1.0], [1.0, 2.0, 3.0, 4.0]])
def test_mean_table_refuses_a_mean_per_checkpoint_mismatch(tmp_path, means):
    # zipped, the two lists once gave a shorter table without an error
    with pytest.raises(ValueError, match=f"3 checkpoints but {len(means)} means"):
        serialize.write_mean_table(
            tmp_path / "sub" / "m.csv", ModelParams(0.5, 1.0), [1, 10, 100], means, {}, "x"
        )
    assert not (tmp_path / "sub").exists()


def test_critical_ratios_refuse_no_tables(tmp_path):
    with pytest.raises(ValueError, match="no moment tables to write"):
        serialize.write_critical_ratios_csv(
            tmp_path / "sub" / "r.csv", ModelParams(0.5, 1.0), [], {}
        )
    assert not (tmp_path / "sub").exists()


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(erwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# a two-sample test on 103 pooled bins, past the 40 dof of the old scipy fork
WIDE_DIFFERENTIAL = [
    "simulate", "--p", "0.9", "--beta", "-0.5", "--n", "200", "--replicates", "2000",
    "--seed", "3", "--differential", "--differential-n", "200",
]


def test_import_loads_no_heavy_scipy():
    # importing scipy.stats was most of every command's start-up time
    code = (
        "import sys, erwalk, erwalk.cli\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True,
        text=True, check=True,
    )
    loaded = proc.stdout.split()
    assert "erwalk.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_import_loads_no_pool_module():
    # a fork pool is built only for a run that fans out, so its modules stay
    # out of every command's start-up
    code = (
        "import sys, erwalk, erwalk.cli\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True,
        text=True, check=True,
    )
    loaded = proc.stdout.split()
    assert "erwalk.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("multiprocessing", "concurrent")] == []


def test_runs_import_no_new_module(tmp_path):
    # a module first imported during a run puts start-up cost into its time;
    # the last run fans the report out over forked workers (counted where
    # the host has two CPUs), which import nothing either
    code = (
        "import json, os, sys, erwalk, erwalk.cli\n"
        "out = sys.argv[1]\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "runs = [\n"
        "    ['simulate', '--seed', '3', '--n', '1000', '--replicates', '1000',\n"
        "     '--out', out],\n"
        "    ['simulate', '--seed', '3', '--n', '100', '--replicates', '500',\n"
        "     '--differential', '--differential-n', '12', '--out', out],\n"
        "    ['exact', '--critical', '--n', '1000', '--degree', '2', '--out', out],\n"
        "    ['report', '--scale', '0.1'],\n"
        f"    {WIDE_DIFFERENTIAL + ['--out']} + [out],\n"
        "    ['report', '--scale', '1'],\n"
        "]\n"
        "new = []\n"
        "for argv in runs:\n"
        "    before, forked = set(sys.modules), len(forks)\n"
        "    rc = erwalk.cli.main(argv)\n"
        "    new.append([argv[0], rc, sorted(set(sys.modules) - before), len(forks) - forked])\n"
        "sys.stderr.write(json.dumps(new))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=_src_env(),
        capture_output=True, text=True, check=True,
    )
    new = json.loads(proc.stderr)
    assert [cmd for cmd, _, _, _ in new] == [
        "simulate", "simulate", "exact", "report", "simulate", "report",
    ]
    assert [mods for _, _, mods, _ in new] == [[], [], [], [], [], []]
    assert [rc for cmd, rc, _, _ in new if cmd != "report"] == [0, 0, 0, 0]
    assert new[-1][1] == 0
    forks = [forks for _, _, _, forks in new]
    assert forks[:-1] == [0, 0, 0, 0, 0]
    assert (forks[-1] > 0) == (len(os.sched_getaffinity(0)) > 1)


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: a p-value on 103 dof needs none of it
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import erwalk.cli\n"
        "sys.exit(erwalk.cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *WIDE_DIFFERENTIAL, "--out", str(tmp_path)],
        env=_src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "differential full-vs-collapsed at n = 200: p = " in proc.stdout
    assert proc.stderr == ""
