"""erwalk benchmark: five workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Each measured iteration runs in a fresh
interpreter (`child.py`), one at a time, so no cache of the package (the
`offspring_cutoff` lru_cache, the `ratio_seq` table) carries from one
iteration to the next: every iteration pays what a CLI user pays.
Every iteration of a run gets the same input, made from --seed, and must
produce the same output as the first one, so each statistical output check
is made once per input; only on branching-critical, whose work varies with
the input, iteration i gets its own input (`workloads.iteration_seed`).
The same --seed always gives the same inputs.
Iterations continue until --seconds have passed, with at least three (two
in a traced run).

Every time reported is scaled to a nominal host speed by the reference
loop each iteration times around its workload (`hostspeed.py`), or for the
workload times of `workloads.ARRAY_REFERENCE` by the array loop; the raw
times go to the run record.

--trace 0 prints the end-to-end metrics (END_TO_END).  --trace 1 alternates
untraced and traced iterations and prints the per-layer metrics
(PER_LAYER), derived from the spans that `tracing.py` records from
outside the package.  Both check every iteration's output against the
oracles in `checks.py` and print, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A run record (machine,
versions, per-iteration figures, sha256 of every file the CLI wrote) goes
to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / ".out"
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "rep_steps_per_s": "steps/s",
}

LAYERS = ("streams", "walkers", "memory", "gammaratio", "branching", "exact",
          "analysis", "report", "serialize", "cli")
#: spans whose self time is reported; serialize.write covers every write_*
SELF_SPANS = (
    "streams.replicate_streams", "walkers.run_ensemble", "walkers.run_walk",
    "walkers.run_coupled_ensemble", "memory.MemoryLaw.cdf", "gammaratio.log_poch",
    "gammaratio.RatioSeq.values", "gammaratio.poch_ratio_sum", "branching.simulate",
    "branching.offspring_cutoff", "branching.sample_offspring", "exact.propagate_moments",
    "exact.l2_diagnostic", "exact.exact_mean_xi", "exact.enumerate_law",
    "exact.lower_bound_prob_one", "analysis.build_report", "analysis.chi_square_vs_law",
    "analysis.chi_square_two_sample", "analysis.fit_exponent", "report.run_gates",
    "serialize.write", "cli.main",
)
CALL_SPANS = ("memory.MemoryLaw.cdf", "gammaratio.log_poch", "branching.offspring_cutoff",
              "branching.sample_offspring", "exact.exact_mean_xi")
MODULES = ("erwalk", "erwalk.gammaratio", "erwalk.memory", "erwalk.streams", "erwalk.walkers",
           "erwalk.exact", "erwalk.analysis", "erwalk.branching", "erwalk.report",
           "erwalk.serialize", "erwalk.cli")

PER_LAYER = {
    **{f"{s}.self_s": "s" for s in SELF_SPANS},
    **{f"{s}.calls": "count" for s in CALL_SPANS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "streams.generators": "count",
    "walkers.rep_steps": "count",
    "walkers.rep_steps_per_self_s": "steps/s",
    "branching.cutoff_cache_hit_ratio": "ratio",
    "branching.cap_hits": "count",
    "branching.truncation_mass": "particles",
    "branching.log_poch_per_particle": "calls/particle",
    "branching.simulate.call_p50_ms": "ms",
    "branching.simulate.call_p90_ms": "ms",
    "report.gates": "count",
    "report.gates_failed": "count",
    "serialize.bytes_written": "bytes",
    **{f"setup.import.{m}_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_iteration(name: str, seed: int, size: str, index: int, traced: bool) -> dict:
    out = OUT / name / f"iter{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    seed = workloads.iteration_seed(name, seed, index)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), name, str(seed), size,
           str(out), "1" if traced else "0"]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"iteration {index} of {name} timed out after {err.timeout} s") from err
    if proc.returncode != 0:
        raise BenchError(f"iteration {index} of {name} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads((out / "result.json").read_text())
    result["seed"] = seed
    # times in reference seconds; the raw ones stay in the record
    result["raw_wall_s"] = result["wall_s"]
    result["raw_setup_s"] = result["ready"] - spawn
    k = hostspeed.scale(*result["ref_s"])
    kw = hostspeed.scale(*result["array_ref_s"]) if "array_ref_s" in result else k
    result["work_scale"] = kw
    result["wall_s"] = result["raw_wall_s"] * kw
    result["setup_s"] = result["raw_setup_s"] * k
    result["latencies_ms"] = [x * kw for x in result.get("latencies_ms", [])]
    result["traced"] = traced
    result["out"] = out
    result["checks"] = checks.run_checks(name, out, result, size)
    result["output_sha256"] = file_digests(out)
    result["fingerprint"] = output_fingerprint(result)
    return result


#: what an iteration returns besides files; with its files it must not
#: change between iterations with the same input, traced or not
OUTPUT_KEYS = ("rc", "stdout", "particles", "expanded", "children", "cap_hits",
               "truncation_mass")


def output_fingerprint(result: dict) -> str:
    """sha256 of an iteration's output: the files it wrote and OUTPUT_KEYS."""
    output = {k: result[k] for k in OUTPUT_KEYS if k in result}
    output["files"] = result["output_sha256"]
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def span_totals(out: Path, scale: float) -> dict:
    """Per-span self time (in reference seconds) and call count, plus counters,
    of one traced iteration."""
    meta = json.loads((out / "trace.json").read_text())
    rec = np.fromfile(out / "spans.bin", dtype=np.float64).reshape(-1, 5)
    sid = rec[:, 0].astype(np.int64)
    name_id = rec[:, 1].astype(np.int64)
    parent = rec[:, 2].astype(np.int64)
    dur = (rec[:, 4] - rec[:, 3]) * scale
    size = int(sid.max()) + 1 if len(sid) else 1
    child_time = np.bincount(parent, weights=dur, minlength=size)
    self_time = dur - child_time[sid]
    names = meta["names"]
    self_by = np.bincount(name_id, weights=self_time, minlength=len(names))
    calls_by = np.bincount(name_id, minlength=len(names))
    return {
        "self": {n: float(self_by[i]) for i, n in enumerate(names)},
        "calls": {n: int(calls_by[i]) for i, n in enumerate(names)},
        "counters": meta["counters"],
        "cutoff_cache": meta["cutoff_cache"],
    }


def import_times() -> dict:
    """Cumulative import time of each erwalk module, from `python -X importtime`,
    in reference seconds (the reference loop runs here around the import)."""
    ref_before = hostspeed.reference_loop()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import erwalk, erwalk.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import of erwalk failed:\n{proc.stderr}")
    k = hostspeed.scale(ref_before, hostspeed.reference_loop())
    times = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            mod = parts[2].strip()
            if mod in MODULES:
                times[mod] = int(parts[1]) * 1e-6 * k
    return times


def end_to_end(name: str, size: str, iters: list[dict]) -> dict:
    rates = [workloads.steps(name, size, it.get("particles", 0)) / it["wall_s"] for it in iters]
    return {
        "setup_s": statistics.median(it["setup_s"] for it in iters),
        "wall_s": statistics.median(it["wall_s"] for it in iters),
        "peak_rss_mb": statistics.median(it["peak_rss_kb"] for it in iters) / 1024.0,
        "rep_steps_per_s": statistics.median(rates),
    }


def per_layer(untraced: list[dict], traced: list[dict], imports: dict) -> dict:
    """Per-layer metrics: means over the traced iterations, latencies from the untraced."""
    totals = [span_totals(it["out"], it["work_scale"]) for it in traced]
    k = len(totals)

    def mean(values) -> float:
        return sum(values) / k

    self_s = {s: mean(t["self"].get(s, 0.0) for t in totals) for s in SELF_SPANS}
    layer_s = {layer: sum(v for s, v in self_s.items() if s.split(".")[0] == layer)
               for layer in LAYERS}
    counter = {c: mean(t["counters"][c] for t in totals) for c in totals[0]["counters"]}
    walker_self = sum(self_s[s] for s in SELF_SPANS if s.startswith("walkers."))
    particles = counter["branching.particles"]
    hits = sum((t["cutoff_cache"] or {}).get("hits", 0) for t in totals)
    misses = sum((t["cutoff_cache"] or {}).get("misses", 0) for t in totals)
    log_poch_calls = mean(t["calls"].get("gammaratio.log_poch", 0) for t in totals)
    # per-call latencies come from the benchmark's own loop (branching-critical)
    latencies = [x for it in untraced for x in it.get("latencies_ms", [])]
    p50 = statistics.median(latencies) if latencies else 0.0
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 2 else 0.0
    metrics = {
        **{f"{s}.self_s": v for s, v in self_s.items()},
        **{f"{s}.calls": mean(t["calls"].get(s, 0) for t in totals) for s in CALL_SPANS},
        **{f"{layer}.self_s": v for layer, v in layer_s.items()},
        "streams.generators": counter["streams.generators"],
        "walkers.rep_steps": counter["walkers.rep_steps"],
        "walkers.rep_steps_per_self_s": (counter["walkers.rep_steps"] / walker_self
                                         if walker_self > 0 else 0.0),
        "branching.cutoff_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "branching.cap_hits": counter["branching.cap_hits"],
        "branching.truncation_mass": counter["branching.truncation_mass"],
        "branching.log_poch_per_particle": log_poch_calls / particles if particles else 0.0,
        "branching.simulate.call_p50_ms": p50,
        "branching.simulate.call_p90_ms": p90,
        "report.gates": counter["report.gates"],
        "report.gates_failed": counter["report.gates_failed"],
        "serialize.bytes_written": counter["serialize.bytes_written"],
        **{f"setup.import.{m}_s": imports.get(m, 0.0) for m in MODULES},
        "trace.overhead_s": (statistics.median(it["wall_s"] for it in traced)
                             - statistics.median(it["wall_s"] for it in untraced)),
    }
    return metrics


def file_digests(out: Path) -> dict:
    own = {"result.json", "spans.bin", "trace.json"}
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file() and p.name not in own
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def dominant_layer(metrics: dict) -> str:
    """The layer with the most self time, followed by every layer's share."""
    layer_s = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(layer_s.values()) or 1.0
    shares = ", ".join(f"{k} {v / total:.0%}" for k, v in
                       sorted(layer_s.items(), key=lambda kv: -kv[1]) if v > 0)
    return f"{max(layer_s, key=layer_s.get)} ({shares})"


def write_record(args, iters: list[dict], metrics: dict) -> Path:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "versions": iters[0]["versions"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "iterations": [
            {
                "seed": it["seed"],
                "traced": it["traced"],
                "wall_s": it["wall_s"],
                "setup_s": it["setup_s"],
                "raw_wall_s": it["raw_wall_s"],
                "raw_setup_s": it["raw_setup_s"],
                "reference_loop_s": it["ref_s"],
                "array_loop_s": it.get("array_ref_s"),
                "peak_rss_mb": it["peak_rss_kb"] / 1024.0,
                "failed_checks": [c[0] for c in it["checks"] if not c[1]],
                "output_sha256": it["output_sha256"],
            }
            for it in iters
        ],
        "metrics": metrics,
    }
    if args.trace:
        record["dominant_layer"] = dominant_layer(metrics)
    path = OUT / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def measure(args) -> tuple[list[dict], dict]:
    traced_run = args.trace == 1
    iters: list[dict] = []
    first: dict[int, dict] = {}  # first iteration of each input
    start = time.monotonic()
    while True:
        # a traced run alternates untraced and traced iterations
        traced = traced_run and len(iters) % 2 == 1
        it = run_iteration(args.workload, args.seed, args.size, len(iters), traced)
        ref = first.setdefault(it["seed"], it)
        if ref is not it:
            same = it["fingerprint"] == ref["fingerprint"]
            it["checks"].append(("same output as the input's first iteration", same,
                                 f"output sha256 {it['fingerprint'][:12]} vs "
                                 f"{ref['fingerprint'][:12]}"))
        iters.append(it)
        elapsed = time.monotonic() - start
        enough = len(iters) >= (2 if traced_run else MIN_ITERATIONS)
        if enough and elapsed + elapsed / len(iters) > args.seconds:
            break
    untraced = [it for it in iters if not it["traced"]]
    if not traced_run:
        return iters, end_to_end(args.workload, args.size, untraced)
    traced = [it for it in iters if it["traced"]]
    return iters, per_layer(untraced, traced, import_times())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny is the smoke size of selftest.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "erwalk" / "__init__.py").is_file():
        print(f"error: no erwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        iters, metrics = measure(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    record = write_record(args, iters, metrics)

    all_checks = [c for it in iters for c in it["checks"]]
    failed = [c for c in all_checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAILED check: {name}: {detail}")
    print(f"{args.workload}: {len(iters)} iterations, {len(all_checks)} checks, "
          f"{len(failed)} failed; record {record.relative_to(ROOT)}")
    print(f"unscaled medians: wall {statistics.median(it['raw_wall_s'] for it in iters):.4f} s, "
          f"set-up {statistics.median(it['raw_setup_s'] for it in iters):.4f} s, reference "
          f"loop {statistics.median(x for it in iters for x in it['ref_s']):.4f} s "
          f"(scaled to {hostspeed.REFERENCE_S} s)")
    if args.trace:
        print(f"dominant layer: {dominant_layer(metrics)}")
    for key, unit in units.items():
        print(f"{key:48s} {metrics[key]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
