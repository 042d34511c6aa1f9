import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erwalk
import erwalk.report as report_mod
from erwalk.analysis import build_report
from erwalk.branching import BranchingParams, simulate
from erwalk.cli import main, resolve_mode
from erwalk.exact import enumerate_law, propagate_moments
from erwalk.serialize import (
    config_hash,
    write_branching_census_csv,
    write_branching_summary_json,
    write_ensemble_csv,
    write_ensemble_json,
    write_law_csv,
    write_moments_csv,
    write_trajectory_csv,
)
from erwalk.walkers import ModelParams, run_ensemble, run_walk


class TestSerialize:
    def test_config_hash_stable(self):
        a = config_hash({"p": 0.5, "beta": 1.0})
        b = config_hash({"beta": 1.0, "p": 0.5})
        assert a == b and len(a) == 16
        assert a != config_hash({"p": 0.5, "beta": 2.0})

    def test_trajectory_csv(self, tmp_path):
        traj = run_walk(ModelParams(0.5, 1.0), 100, seed=1, checkpoints=[1, 10, 100])
        path = write_trajectory_csv(tmp_path / "t.csv", traj, {"n": 100})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# erwalk ")
        assert lines[1].startswith("# config_hash=")
        assert lines[2] == "# seed=1"
        assert lines[3].startswith("# params p=0.5 beta=1.0")
        assert lines[4] == "n,xi,sigma,m,a"
        assert lines[5].startswith("1,1,1.0,1.0,1.0")

    def test_ensemble_outputs(self, tmp_path):
        res = run_ensemble(ModelParams(0.5, 1.0), 50, 100, seed=2,
                           checkpoints=[1, 50])
        rep = build_report(res)
        csv_path = write_ensemble_csv(tmp_path / "e.csv", rep, {})
        assert "n,mean_xi,var_xi,ci_half_xi,mean_m,var_m" in csv_path.read_text()
        json_path = write_ensemble_json(tmp_path / "e.json", rep, {})
        payload = json.loads(json_path.read_text())
        assert payload["meta"]["tool"] == "erwalk"
        assert payload["report"]["n_replicates"] == 100

    def test_law_and_moments(self, tmp_path):
        pms = ModelParams(0.5, 1.0)
        law, _ = enumerate_law(pms, 6)
        text = write_law_csv(tmp_path / "law.csv", law, {}).read_text()
        assert text.splitlines()[3] == "k,prob"
        tables = propagate_moments(pms, 100, 2, checkpoints=[1, 10, 100])
        text = write_moments_csv(tmp_path / "m.csv", tables, {}).read_text()
        assert "n,m10,m01,m20,m11,m02" in text

    def test_branching_outputs(self, tmp_path, rng):
        bp = BranchingParams(0.5, 2.0, max_gen=30)
        res = simulate(bp, rng, keep_generations=True)
        census = write_branching_census_csv(tmp_path / "c.csv", res, {}, seed=7)
        assert "generation,count,min_type,max_type" in census.read_text()
        summary = write_branching_summary_json(tmp_path / "s.json", res, {}, seed=7)
        payload = json.loads(summary.read_text())
        assert set(payload["summary"]) >= {
            "extinct", "censored", "distinct_types", "truncation_mass",
        }


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

    def test_resolve_mode(self):
        pms = ModelParams(0.5, 1.0)
        assert resolve_mode("auto", pms, 1) == "collapsed"
        assert resolve_mode("auto", pms, 10**4) == "events"
        assert resolve_mode("auto", ModelParams(0.8, -0.5), 10**4) == "collapsed"
        assert resolve_mode("full", pms, 10**4) == "full"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.5, "beta": 1.0, "n": 100,
                                   "replicates": 30, "seed": 5}))
        rc = main(["simulate", "--config", str(cfg), "--beta", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        names = {p.name for p in (tmp_path / "o").iterdir()}
        assert "simulate_p0.5_beta2.csv" in names  # flag beat config

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        rc = main(["simulate", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2


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

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--badflag"])
        assert exc.value.code == 2


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

    def test_unknown_regime_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--regime", "bogus"])
        assert exc.value.code == 2


def test_import_loads_no_heavy_scipy():
    # importing scipy.stats was most of every command's start-up time
    code = (
        "import sys, erwalk, erwalk.cli\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    src = str(Path(erwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = proc.stdout.split()
    assert "erwalk.cli" in loaded and "scipy.special" in loaded
    heavy = {"scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.linalg"}
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in heavy] == []
