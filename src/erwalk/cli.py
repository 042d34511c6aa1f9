"""Command-line front end: run simulators and exact engines, emit data files,
and produce consolidated pass/fail reports.

Exit codes: 0 all requested gates pass, 1 a gate failed, 2 usage error.
Configuration may come from flags or a JSON config file (flags win); set
ERWALK_OUT_DIR to change the default output directory.  Outputs are
deterministic given (config, seed) and carry a metadata header.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, exact, report, serialize
from .walkers import ModelParams, geometric_checkpoints, run_ensemble, run_walk

_OUT_ENV = "ERWALK_OUT_DIR"
#: `--mode auto` runs the events engine up to this many expected up-steps
#: per step, else the collapsed engine; README has the timings behind it
AUTO_EVENTS_MAX_RATE = 0.04


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve config: defaults < config file < explicit flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        loaded = json.loads(path.read_text())
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out") or os.environ.get(_OUT_ENV) or "erwalk_out"
    return Path(out)


def _hashable(cfg: dict) -> dict:
    """The semantic configuration: everything except where files land."""
    return {k: v for k, v in cfg.items() if k not in ("out", "config")}


def _param_grid(cfg: dict) -> list[ModelParams]:
    ps = cfg["p"] if isinstance(cfg["p"], list) else [cfg["p"]]
    betas = cfg["beta"] if isinstance(cfg["beta"], list) else [cfg["beta"]]
    # validate the whole grid before any run starts
    return [ModelParams(float(p), float(b)) for p in ps for b in betas]


def _tag(params: ModelParams) -> str:
    return f"p{params.p:g}_beta{params.beta:g}"


class _OutputSet:
    """Tracks written files so a failed run leaves no partial outputs."""

    def __init__(self):
        self.paths: list[Path] = []

    def add(self, path: Path) -> Path:
        self.paths.append(path)
        return path

    def discard_all(self):
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def _cmd_simulate(args) -> int:
    defaults = {
        "p": 0.5,
        "beta": 1.0,
        "n": 10_000,
        "replicates": 10_000,
        "seed": None,
        "mode": "auto",
        "checkpoint_ratio": 1.2,
        "out": None,
        "format": "csv",
        "workers": 1,
        "sigma_level": 4.0,
        "differential": False,
        "differential_n": 12,
    }
    cfg = _merged(args, defaults)
    if cfg["seed"] is None:
        return _fail_usage("simulate requires --seed")
    grid = _param_grid(cfg)
    out_dir = _out_dir(cfg)
    outputs = _OutputSet()
    failed_gate = False
    try:
        for params in grid:
            cps = geometric_checkpoints(int(cfg["n"]), float(cfg["checkpoint_ratio"]))
            mode = resolve_mode(cfg["mode"], params, int(cfg["n"]))
            res = run_ensemble(
                params,
                int(cfg["n"]),
                int(cfg["replicates"]),
                int(cfg["seed"]),
                checkpoints=cps,
                mode=mode,
                record=("xi", "sigma"),
                workers=int(cfg["workers"]),
            )
            rep = analysis.build_report(res, confidence_z=float(cfg["sigma_level"]))
            if cfg["format"] == "json":
                outputs.add(
                    serialize.write_ensemble_json(
                        out_dir / f"simulate_{_tag(params)}.json", rep, _hashable(cfg)
                    )
                )
            else:
                outputs.add(
                    serialize.write_ensemble_csv(
                        out_dir / f"simulate_{_tag(params)}.csv", rep, _hashable(cfg)
                    )
                )
            traj = run_walk(
                params, int(cfg["n"]), int(cfg["seed"]), checkpoints=cps, mode=mode
            )
            outputs.add(
                serialize.write_trajectory_csv(
                    out_dir / f"trajectory_{_tag(params)}.csv", traj, _hashable(cfg)
                )
            )
            print(f"simulate {_tag(params)}: {cfg['replicates']} replicates to n = {cfg['n']}")
            if cfg["differential"]:
                ok = _differential_check(params, cfg, mode)
                failed_gate |= not ok
    except Exception as err:  # remove partial outputs, then report
        outputs.discard_all()
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, (ValueError, FileNotFoundError)) else 1
    return 1 if failed_gate else 0


def resolve_mode(mode: str, params: ModelParams, n: int) -> str:
    """The engine that `--mode auto` runs for `params` to horizon `n`.

    The events engine costs per candidate up-step and the collapsed engine
    per step, so `auto` takes events when the walk expects at most
    AUTO_EVENTS_MAX_RATE up-steps per step, (E[Xi_n] - 1)/(n - 1).
    """
    if mode != "auto":
        return mode
    if n < 2:
        return "collapsed"
    rate = (exact.exact_mean_xi(n, params) - 1.0) / (n - 1)
    return "events" if rate <= AUTO_EVENTS_MAX_RATE else "collapsed"


def _differential_check(params: ModelParams, cfg: dict, engine: str) -> bool:
    """Law of the engine the run used vs the full-history oracle, both judged
    against the enumeration oracle; a full run is compared with collapsed."""
    n = int(cfg["differential_n"])
    reps = int(cfg["replicates"])
    seed = int(cfg["seed"])
    if engine == "full":
        engine = "collapsed"
    xi = {}
    for mode in (engine, "full"):
        res = run_ensemble(
            params, n, reps, seed, checkpoints=[n], mode=mode, record=("xi",)
        )
        xi[mode] = res.arrays["xi"][:, -1]
    p_two = analysis.chi_square_two_sample(xi[engine], xi["full"])
    ok = p_two > 1e-3
    print(f"differential full-vs-{engine} at n = {n}: p = {p_two:.4g}")
    if n <= exact.ENUMERATION_MAX_STEPS:
        law, _ = exact.enumerate_law(params, n)
        for mode in (engine, "full"):
            p_val = analysis.chi_square_vs_law(xi[mode], law)
            ok &= p_val > 1e-3
            print(f"differential {mode}-vs-enumeration: p = {p_val:.4g}")
    else:
        print("differential: n beyond enumeration cap, oracle comparison skipped")
    return ok


def _cmd_exact(args) -> int:
    defaults = {
        "p": 0.5,
        "beta": 1.0,
        "n": 10_000,
        "degree": 0,
        "enumerate": False,
        "critical": False,
        "out": None,
        "format": "csv",
        "checkpoint_ratio": 1.2,
    }
    cfg = _merged(args, defaults)
    out_dir = _out_dir(cfg)
    outputs = _OutputSet()
    try:
        if cfg["critical"]:
            ps = cfg["p"] if isinstance(cfg["p"], list) else [cfg["p"]]
            grid = [ModelParams(float(p), float(p) / (1.0 - float(p))) for p in ps]
        else:
            grid = _param_grid(cfg)
        n_max = int(cfg["n"])
        for params in grid:
            cps = geometric_checkpoints(n_max, float(cfg["checkpoint_ratio"]))
            label = classify_label(params)
            means = np.array([exact.exact_mean_xi(int(c), params) for c in cps])
            lines = [
                f"# erwalk {__version__} schema v{serialize.SCHEMA_VERSION}",
                f"# config_hash={serialize.config_hash(_hashable(cfg))}",
                "# seed=exact",
                f"# regime={label}",
            ]
            localized = params.beta > params.critical_beta and not params.is_critical
            lim = exact.limit_mean_xi(params) if localized else None
            if cfg["format"] == "json":
                rows = [
                    {"n": int(c), "mean_xi": float(m)} for c, m in zip(cps, means)
                ]
                if localized:
                    for row in rows:
                        row["limit"] = float(lim)
                        row["gap"] = float(lim - row["mean_xi"])
                payload = {
                    "meta": {
                        "tool": "erwalk",
                        "version": __version__,
                        "schema": serialize.SCHEMA_VERSION,
                        "config_hash": serialize.config_hash(_hashable(cfg)),
                        "seed": "exact",
                        "regime": label,
                    },
                    "params": {"p": params.p, "beta": params.beta},
                    "rows": rows,
                }
                path = out_dir / f"exact_mean_{_tag(params)}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            else:
                if localized:
                    lines.append("n,mean_xi,limit,gap")
                    for c, m in zip(cps, means):
                        lines.append(
                            f"{c},{float(m)!r},{float(lim)!r},{float(lim - m)!r}"
                        )
                else:
                    lines.append("n,mean_xi")
                    for c, m in zip(cps, means):
                        lines.append(f"{c},{float(m)!r}")
                path = out_dir / f"exact_mean_{_tag(params)}.csv"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("\n".join(lines) + "\n")
            outputs.add(path)
            print(f"exact {_tag(params)}: mean table at {len(cps)} checkpoints")

            if int(cfg["degree"]) >= 1:
                tables = exact.propagate_moments(
                    params, n_max, int(cfg["degree"]), checkpoints=cps
                )
                if cfg["format"] == "json":
                    outputs.add(
                        serialize.write_moments_json(
                            out_dir / f"exact_moments_{_tag(params)}.json",
                            tables,
                            _hashable(cfg),
                        )
                    )
                else:
                    outputs.add(
                        serialize.write_moments_csv(
                            out_dir / f"exact_moments_{_tag(params)}.csv",
                            tables,
                            _hashable(cfg),
                        )
                    )
                if params.is_critical:
                    outputs.add(
                        _write_critical_ratios(
                            out_dir / f"exact_critical_ratios_{_tag(params)}.csv",
                            params,
                            tables,
                            _hashable(cfg),
                        )
                    )
                diag = exact.l2_diagnostic(params, n_max)
                payload = {
                    "bounded": diag.bounded,
                    "sup_m2": diag.sup_m2,
                    "last_decade_increase": diag.last_decade_increase,
                    "increment_exponent": diag.increment_exponent,
                    "expected_exponent": diag.expected_exponent,
                }
                path = out_dir / f"exact_l2_{_tag(params)}.json"
                path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
                outputs.add(path)
            if cfg["enumerate"]:
                law, _ = exact.enumerate_law(params, min(n_max, 12))
                if cfg["format"] == "json":
                    outputs.add(
                        serialize.write_law_json(
                            out_dir / f"exact_law_{_tag(params)}.json",
                            law,
                            _hashable(cfg),
                        )
                    )
                else:
                    outputs.add(
                        serialize.write_law_csv(
                            out_dir / f"exact_law_{_tag(params)}.csv",
                            law,
                            _hashable(cfg),
                        )
                    )
    except Exception as err:
        outputs.discard_all()
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, (ValueError, FileNotFoundError, OverflowError)) else 1
    return 0


def classify_label(params: ModelParams) -> str:
    return analysis.classify_phase(params).regime.value


def _write_critical_ratios(path, params, tables, cfg) -> Path:
    beta = params.beta
    cols = [(k, l) for k in (1, 2, 3) for l in range(k + 1) if k <= tables[0].degree]
    lines = [
        f"# erwalk {__version__} schema v{serialize.SCHEMA_VERSION}",
        f"# config_hash={serialize.config_hash(_hashable(cfg))}",
        "# seed=exact",
        "n," + ",".join(f"r{k}{l}" for k, l in cols),
    ]
    for t in tables:
        if t.n < 2:
            continue
        vals = []
        for k, l in cols:
            denom = t.n ** (l * beta) * math.log(t.n) ** (2 * k - 1 - l)
            vals.append(repr(float(t.m[k - l, l]) / denom))
        lines.append(f"{t.n}," + ",".join(vals))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _cmd_report(args) -> int:
    defaults = {
        "regime": None,
        "seed": 20240801,
        "scale": 1.0,
        "sigma_level": 4.0,
        "out": None,
    }
    cfg = _merged(args, defaults)
    regimes = cfg["regime"]
    if regimes is not None and not isinstance(regimes, list):
        regimes = [regimes]
    try:
        gates = report.run_gates(
            regimes=regimes,
            seed=int(cfg["seed"]),
            scale=float(cfg["scale"]),
            level=float(cfg["sigma_level"]),
        )
    except ValueError as err:
        return _fail_usage(str(err))
    width = max(len(g.name) for g in gates)
    print(f"{'regime':<24} {'gate':<{width}}  verdict  detail")
    all_ok = True
    for g in gates:
        verdict = "PASS" if g.passed else "FAIL"
        all_ok &= g.passed
        print(f"{g.regime:<24} {g.name:<{width}}  {verdict:<7}  {g.detail}")
    if cfg["out"]:
        out = Path(cfg["out"]) / "report.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = [
            {"regime": g.regime, "gate": g.name, "passed": g.passed, "detail": g.detail}
            for g in gates
        ]
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("overall:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; explicit flags win")
    sp.add_argument("--out", help=f"output directory (default ${_OUT_ENV} or erwalk_out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erwalk",
        description="Elephant random walk with power-law memory: simulate, "
        "compute exact moments, verify.",
    )
    parser.add_argument("--version", action="version", version=f"erwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run Monte Carlo ensembles")
    _add_common(sp)
    sp.add_argument("--p", type=float, nargs="+")
    sp.add_argument("--beta", type=float, nargs="+")
    sp.add_argument("--n", type=int)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument(
        "--mode",
        choices=["auto", "collapsed", "events", "full"],
        help="engine: events draws each replicate's next up-step by thinning, "
        "collapsed steps through every time, full draws every recall (an "
        "oracle); auto (default) takes events when E[Xi_n] - 1 is at most "
        f"{AUTO_EVENTS_MAX_RATE:g} (n - 1), else collapsed",
    )
    sp.add_argument("--checkpoint-ratio", dest="checkpoint_ratio", type=float)
    sp.add_argument("--format", choices=["csv", "json"])
    sp.add_argument("--workers", type=int)
    sp.add_argument("--sigma-level", dest="sigma_level", type=float)
    sp.add_argument(
        "--differential",
        action="store_const",
        const=True,
        help="check the engine's law against the full engine and enumeration",
    )
    sp.add_argument("--differential-n", dest="differential_n", type=int)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("exact", help="emit exact means, moments, diagnostics")
    _add_common(sp)
    sp.add_argument("--p", type=float, nargs="+")
    sp.add_argument("--beta", type=float, nargs="+")
    sp.add_argument("--n", type=int)
    sp.add_argument("--degree", type=int)
    sp.add_argument("--enumerate", action="store_const", const=True)
    sp.add_argument(
        "--critical",
        action="store_const",
        const=True,
        help="replace beta by p/(1-p) for each p",
    )
    sp.add_argument("--checkpoint-ratio", dest="checkpoint_ratio", type=float)
    sp.add_argument("--format", choices=["csv", "json"])
    sp.set_defaults(fn=_cmd_exact)

    sp = sub.add_parser("report", help="run the verification gate battery")
    _add_common(sp)
    sp.add_argument("--regime", action="append", choices=list(report.REGIMES))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--scale", type=float, help="replicate-count multiplier")
    sp.add_argument("--sigma-level", dest="sigma_level", type=float)
    sp.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as err:
        return _fail_usage(str(err))


if __name__ == "__main__":
    sys.exit(main())
