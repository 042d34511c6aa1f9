"""Smoke test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload once with tracing off and once with tracing on, and
asserts that each run emits exactly the metrics BENCHMARK.json names, with
their units.  Then it corrupts one oracle value and asserts that the output
checks report the failure.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import checks
import run


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    if rc != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {rc}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.workloads.NAMES), f"workloads {names}"
    clean = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            res = bench(name, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace {trace}: metrics differ: {set(got) ^ set(want)}"
            assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
            assert res["attempted"] >= 1 and res["correct"] == (res["failed"] == 0)
            clean[name, trace] = res
            print(f"ok  {name:20s} trace {trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} checks failed")
    assert clean["simulate-long", 0]["failed"] == 0, "simulate-long fails before corruption"
    checks.ORACLE["mean_m"] = 1.5  # the martingale mean is 1
    res = bench("simulate-long", 0)
    assert res["failed"] > 0 and not res["correct"], "a corrupted oracle went unnoticed"
    print(f"ok  corrupted oracle: {res['failed']}/{res['attempted']} checks failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
