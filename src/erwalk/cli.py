"""Command-line front end: run simulators and exact engines, emit data files,
and produce consolidated pass/fail reports.

Exit codes: 0 when the command ran and every gate it checks passed, 1 when a
gate failed or the run failed, 2 for a usage error.  `main` is the one place
that turns a failure into an exit code: a command that stops on an error
prints one `error:` line and removes every file it wrote, report.json
included (a failed gate keeps them).  Each `_cmd_*` appends the path of each
file it writes to the list `main` hands it.

Configuration may come from flags or a JSON config file (flags win); set
ERWALK_OUT_DIR to change the default output directory.  Outputs are
deterministic given (config, seed) and carry a metadata header.  A grid
whose points would write files of the same name is refused before any run.

`exact` computes every parameter point, as tasks of `walkers._fan_out`,
before it writes a file, so the files and stdout do not depend on the
worker count.  A run of two or more points with moments (degree >= 1) to
n >= _EXACT_FAN_OUT_MIN_N = 500000 gets one worker per point and at most
two per CPU (`_exact_workers`); any other run gets one, which computes the
points in this process.
"""

from __future__ import annotations

import argparse
import errno
import json
import locale  # noqa: F401  argparse's gettext loads it at the first parse, inside a run
import os
import sys
from contextlib import suppress
from pathlib import Path

from . import __version__, analysis, exact, report, serialize, walkers
from .walkers import (
    _FULL_MODE_MAX_STEPS,
    AUTO_EVENTS_MAX_RATE,
    ModelParams,
    _check_workers,
    geometric_checkpoints,
    run_ensemble,
    run_walk,
)

_OUT_ENV = "ERWALK_OUT_DIR"


def _merged(args: argparse.Namespace, defaults: dict) -> tuple[dict, set]:
    """Resolve config: defaults < config file < explicit flags.  Also gives
    the keys that a flag or the config file set."""
    cfg = dict(defaults)
    given = set()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        loaded = json.loads(path.read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {loaded!r:.40}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        flags = {action.dest: action for action in args.flags}
        for key, value in loaded.items():
            _check_config_value(key, value, flags[key], defaults[key])
        cfg.update(loaded)
        given.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
            given.add(key)
    return cfg, given


def _check_config_value(key: str, value, flag: argparse.Action, default) -> None:
    """A config value must be what the flag `key` is declared to take.

    That is true or false for a switch, one of the flag's choices, an
    integer (not a bool) for an int flag, a number for a float flag and a
    string for any other; a flag that takes several values (nargs="+" or
    action="append") also takes a nonempty list of them; and a flag whose
    default is null also takes null.
    """
    if value is None and default is None:
        return
    if flag.nargs == 0:  # a store_const switch
        kind, ok = "true or false", lambda v: isinstance(v, bool)
    elif flag.choices is not None:
        kind, ok = f"one of {list(flag.choices)}", lambda v: isinstance(v, str) and v in flag.choices
    else:
        kind, types = {int: ("an integer", int), float: ("a number", (int, float))}.get(
            flag.type, ("a string", str)
        )
        ok = lambda v: isinstance(v, types) and not isinstance(v, bool)
    many = flag.nargs == "+" or isinstance(flag, argparse._AppendAction)
    values = value if many and isinstance(value, list) and value else [value]
    if not all(map(ok, values)):
        kind += " or a list of them" if many else ""
        kind += " or null" if default is None else ""
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out") or os.environ.get(_OUT_ENV) or "erwalk_out"
    return _writable(Path(out))


def _writable(out: Path) -> Path:
    """`out`, once it is known that the writers can create files under it.

    Checked before any run, so an output path that is a regular file (or
    lies under one) or an unwritable directory fails a command at once, not
    after its run.  Nothing is created here; the writers make the directory.
    """
    probe = out
    while not probe.exists():
        probe = probe.parent
    if not probe.is_dir():
        raise FileExistsError(errno.EEXIST, "output path is not a directory", str(probe))
    if not os.access(probe, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "output directory is not writable", str(probe))
    return out


def _hashable(cfg: dict) -> dict:
    """The semantic configuration: everything except where files land and how
    many processes write them (outputs are bit-identical for any `workers`)."""
    return {k: v for k, v in cfg.items() if k not in ("out", "config", "workers")}


def _listed(value) -> list:
    """A flag's value as a list: a config file may give one value bare."""
    return value if isinstance(value, list) else [value]


def _param_grid(cfg: dict) -> list[ModelParams]:
    """The grid of parameter points, validated whole before any run starts:
    every p with every beta, or with critical each p on its critical line.
    Two points whose files would share a name are refused."""
    if cfg.get("critical"):
        base = [ModelParams(float(p), 0.0) for p in _listed(cfg["p"])]  # checks p first
        grid = [ModelParams(pm.p, pm.critical_beta) for pm in base]
    else:
        grid = [
            ModelParams(float(p), float(b))
            for p in _listed(cfg["p"]) for b in _listed(cfg["beta"])
        ]
    seen = {}
    for params in grid:
        first = seen.setdefault(_tag(params), params)
        if first is not params:
            raise ValueError(
                f"grid points (p, beta) = ({first.p!r}, {first.beta!r}) and"
                f" ({params.p!r}, {params.beta!r}) would write the same files"
                f" ({_tag(params)})"
            )
    return grid


def _tag(params: ModelParams) -> str:
    return f"p{params.p:g}_beta{params.beta:g}"


def _writer(kind: str, cfg: dict):
    """`serialize.write_<kind>_<format>` for the configured format, and its suffix."""
    return getattr(serialize, f"write_{kind}_{cfg['format']}"), cfg["format"]


def _cmd_simulate(args, written: list) -> int:
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
    cfg, _ = _merged(args, defaults)
    if cfg["seed"] is None:
        raise ValueError("simulate requires --seed")
    grid = _param_grid(cfg)
    analysis._check_level(float(cfg["sigma_level"]))
    _check_workers(cfg["workers"])
    if cfg["differential"] and not 2 <= cfg["differential_n"] <= _FULL_MODE_MAX_STEPS:
        # the full engine, the differential's oracle, runs at most this far
        raise ValueError(
            f"differential_n must be an integer in [2, {_FULL_MODE_MAX_STEPS}],"
            f" got {cfg['differential_n']}"
        )
    out_dir = _out_dir(cfg)
    write, ext = _writer("ensemble", cfg)
    config = _hashable(cfg)
    failed_gate = False
    for params in grid:
        cps = geometric_checkpoints(int(cfg["n"]), float(cfg["checkpoint_ratio"]))
        res = run_ensemble(
            params,
            int(cfg["n"]),
            int(cfg["replicates"]),
            int(cfg["seed"]),
            checkpoints=cps,
            mode=cfg["mode"],
            record=("xi", "sigma"),
            workers=cfg["workers"],
        )
        rep = analysis.build_report(res, confidence_z=float(cfg["sigma_level"]))
        written.append(write(out_dir / f"simulate_{_tag(params)}.{ext}", rep, config))
        traj = run_walk(
            params, int(cfg["n"]), int(cfg["seed"]), checkpoints=cps, mode=res.mode
        )
        written.append(
            serialize.write_trajectory_csv(
                out_dir / f"trajectory_{_tag(params)}.csv", traj, config
            )
        )
        print(f"simulate {_tag(params)}: {cfg['replicates']} replicates to n = {cfg['n']}")
        if cfg["differential"]:
            same_n = int(cfg["differential_n"]) == int(cfg["n"])
            xi_run = res.arrays["xi"][:, -1] if same_n else None
            failed_gate |= not _differential_check(params, cfg, res.mode, xi_run)
    return 1 if failed_gate else 0


def _oracle_seed(seed: int) -> int:
    """Master seed of the differential's second ensemble: the bitwise
    complement of the run's 64-bit seed.  Every stream an ensemble of seed
    s reads is keyed (s, j), j a replicate or a time step, and ~s != s, so
    that ensemble reads none of the run's streams; the map is fixed, so a
    run stays reproducible."""
    return seed ^ 0xFFFF_FFFF_FFFF_FFFF


def _differential_check(params: ModelParams, cfg: dict, ran: str, xi_run=None) -> bool:
    """Law of the engine the run used vs the full-history oracle, both judged
    against the enumeration oracle; a full run is compared with collapsed.

    `xi_run`, when given, is the run's own Xi_n at n = differential_n.  An
    ensemble of the run's seed, replicates and engine `ran` to that horizon
    would repeat it bit for bit, so it stands in for that ensemble.  The
    other ensemble runs under `_oracle_seed(seed)`, so the two samples read
    disjoint streams and are independent, as the two-sample test assumes.
    """
    n = int(cfg["differential_n"])
    reps = int(cfg["replicates"])
    seed = int(cfg["seed"])
    engine = "collapsed" if ran == "full" else ran
    xi = {} if xi_run is None else {ran: xi_run}
    for mode in (engine, "full"):
        if mode not in xi:
            key = seed if mode == ran else _oracle_seed(seed)
            res = run_ensemble(
                params, n, reps, key, checkpoints=[n], mode=mode, record=("xi",)
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


#: the shortest horizon at which `erwalk exact` fans its parameter points
#: out over forked workers, when it has two or more points and degree >= 1.
#: `exact --critical --p 0.3 0.5 0.7 --degree 3` timed inside `cli.main` in
#: a fresh interpreter, medians of 7 alternating runs, in process against
#: 3 workers, 2-core VM.  While the second vCPU ran in parallel (two forked
#: CPU-bound loops took 0.9 to 1.5 times as long as one): n = 1e5 0.041
#: against 0.045 s, 2e5 0.070 against 0.064 s, 3e5 0.100 against 0.080 s,
#: 5e5 0.153 against 0.115 s, 1e6 0.312 against 0.197 s.  While it did not
#: (the two loops took twice as long), the workers lost at every n: 1e5
#: 0.056 against 0.084 s, 2e5 0.086 against 0.127 s, 3e5 0.123 against
#: 0.164 s (9 runs each), 5e5 0.150 against 0.181 s, 1e6 0.288 against
#: 0.323 s.  Forking, feeding and reaping three workers costs about 9 ms.
#: Below 5e5 the gain is small where there is one and the loss is not, so
#: the threshold stays.
_EXACT_FAN_OUT_MIN_N = 500_000

#: workers per CPU for `erwalk exact`'s fan-out, so one per point up to
#: twice the CPUs.  Same runs at n = 1e6, second vCPU in parallel: 2
#: workers 0.238 s, 3 workers 0.197 s; the three tasks are equal, so three
#: time-sliced workers keep both cores busy where two leave one idle for
#: the last third of the run.  Six critical points (p = 0.2, ..., 0.7):
#: 0.61 s in process, 0.38, 0.40 and 0.39 s on 2, 4 and 6 workers.
_EXACT_WORKERS_PER_CPU = 2


def _exact_workers(n_points: int, n_max: int, degree: int) -> int:
    """Workers for `erwalk exact`'s points; 1 runs them in this process.

    Only two or more points with moments (degree >= 1) to a horizon of at
    least _EXACT_FAN_OUT_MIN_N pay for a pool; a mean table alone is cheap.
    """
    if n_points < 2 or degree < 1 or n_max < _EXACT_FAN_OUT_MIN_N:
        return 1
    return walkers._pool_size(n_points, _EXACT_WORKERS_PER_CPU)


def _exact_point(params: ModelParams, n_max: int, degree: int, cps, law_n: int):
    """The exact results of one grid point: its mean table, limit mean (None
    off the localized phase), moment tables and L2 diagnostic (None at
    degree 0) and law at n = law_n (None at 0).  A pure function of its
    arguments, so a forked worker may run it."""
    means = exact._mean_table(params, cps)
    lim = exact.limit_mean_xi(params) if params.is_localized else None
    moments = exact._moments_and_l2(params, n_max, degree, cps) if degree >= 1 else None
    law = exact.enumerate_law(params, law_n)[0] if law_n else None
    return means, lim, moments, law


def _cmd_exact(args, written: list) -> int:
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
    cfg, given = _merged(args, defaults)
    if cfg["critical"] and "beta" in given:
        raise ValueError("beta cannot be given with critical, which sets beta = p/(1-p)")
    grid = _param_grid(cfg)
    n_max = int(cfg["n"])
    degree = int(cfg["degree"])
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree >= 1 and n_max < 100:
        # the L2 diagnostic that comes with the moments needs n >= 100
        raise ValueError("n_max must be >= 100 for a meaningful diagnostic")
    out_dir = _out_dir(cfg)
    config = _hashable(cfg)
    cps = geometric_checkpoints(n_max, float(cfg["checkpoint_ratio"]))
    law_n = min(n_max, 12) if cfg["enumerate"] else 0
    tasks = [(_exact_point, (params, n_max, degree, cps, law_n)) for params in grid]
    # every point is computed before any file is written, here or in the
    # pool, so the files and stdout do not depend on where they ran
    results = list(walkers._fan_out(tasks, _exact_workers(len(tasks), n_max, degree)))
    for params, (means, lim, moments, law) in zip(grid, results):
        tag = _tag(params)
        write, ext = _writer("mean_table", cfg)
        written.append(
            write(out_dir / f"exact_mean_{tag}.{ext}", params, cps, means, config,
                  analysis.classify_phase(params).regime.value, lim)
        )
        print(f"exact {tag}: mean table at {len(cps)} checkpoints")
        if moments is not None:
            tables, diag = moments
            write, ext = _writer("moments", cfg)
            written.append(write(out_dir / f"exact_moments_{tag}.{ext}", tables, config))
            if params.is_critical:
                written.append(
                    serialize.write_critical_ratios_csv(
                        out_dir / f"exact_critical_ratios_{tag}.csv", params, tables, config
                    )
                )
            written.append(serialize.write_l2_json(out_dir / f"exact_l2_{tag}.json", diag))
        if law is not None:
            write, ext = _writer("law", cfg)
            written.append(write(out_dir / f"exact_law_{tag}.{ext}", law, config))
    return 0


def _cmd_report(args, written: list) -> int:
    defaults = {
        "regime": None,
        "seed": 20240801,
        "scale": 1.0,
        "sigma_level": 4.0,
        "out": None,
    }
    cfg, _ = _merged(args, defaults)
    if cfg["out"]:
        _writable(Path(cfg["out"]))
    gates = report.run_gates(
        regimes=None if cfg["regime"] is None else _listed(cfg["regime"]),
        seed=int(cfg["seed"]),
        scale=float(cfg["scale"]),
        level=float(cfg["sigma_level"]),
    )
    width = max(len(g.name) for g in gates)
    print(f"{'regime':<24} {'gate':<{width}}  verdict  detail")
    all_ok = True
    for g in gates:
        verdict = "PASS" if g.passed else "FAIL"
        all_ok &= g.passed
        print(f"{g.regime:<24} {g.name:<{width}}  {verdict:<7}  {g.detail}")
    if cfg["out"]:
        written.append(serialize.write_report_json(Path(cfg["out"]) / "report.json", gates))
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
    sp.set_defaults(fn=_cmd_simulate, flags=sp._actions)

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
    sp.set_defaults(fn=_cmd_exact, flags=sp._actions)

    sp = sub.add_parser("report", help="run the verification gate battery")
    _add_common(sp)
    sp.add_argument("--regime", action="append", choices=list(report.REGIMES))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--scale", type=float, help="replicate-count multiplier")
    sp.add_argument("--sigma-level", dest="sigma_level", type=float)
    sp.set_defaults(fn=_cmd_report, flags=sp._actions)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    written: list[Path] = []
    try:
        return args.fn(args, written)
    except Exception as err:  # every command's one failure path
        for path in written:
            with suppress(OSError):
                path.unlink()
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, (ValueError, FileNotFoundError, OverflowError)) else 1


if __name__ == "__main__":
    sys.exit(main())
