"""One measured iteration of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <size> <out_dir> <trace 0|1>

The first thing it does is import erwalk, and it stamps the monotonic clock
when that is done, so run.py can time set-up from the spawn.  Then it
runs the workload once, cold, between two timings of the host speed
references (`hostspeed.py`), and writes result.json (and, when traced,
spans.bin and trace.json) into out_dir.  Every erwalk file the CLI writes
also lands in out_dir, for the output checks in run.py.
"""

import time

import erwalk
import erwalk.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up stamp on purpose)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def run_branching(seed: int, budget: int) -> dict:
    """Critical branching runs on one seeded Generator until `budget` particles."""
    params = erwalk.branching.BranchingParams(workloads.BRANCHING_P, workloads.BRANCHING_BETA,
                                              max_gen=workloads.BRANCHING_MAX_GEN)
    rng = np.random.default_rng(seed)
    particles = expanded = children = cap_hits = 0
    truncation = 0.0
    latencies = []
    start = time.perf_counter()
    while particles < budget:
        t0 = time.perf_counter()
        res = erwalk.branching.simulate(params, rng)
        latencies.append(time.perf_counter() - t0)
        sizes = res.generation_sizes
        particles += int(sizes.sum())
        # every generation but the last was expanded into the next one
        expanded += int(sizes[:-1].sum())
        children += int(sizes[1:].sum())
        cap_hits += res.cap_hits
        truncation += res.truncation_mass
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "rc": 0,
        "particles": particles,
        "expanded": expanded,
        "children": children,
        "cap_hits": cap_hits,
        "truncation_mass": truncation,
        "latencies_ms": [x * 1e3 for x in latencies],
    }


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = erwalk.cli.main(argv)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "stdout": out.getvalue()}


def main(argv: list[str]) -> int:
    name, seed, size, out_dir, traced = argv
    seed = int(seed)
    tracer = None
    if traced == "1":
        import tracing

        tracer = tracing.install()
    cli_args = workloads.cli_argv(name, seed, size, out_dir)
    arrays = name in workloads.ARRAY_REFERENCE
    ref_before = hostspeed.reference_loop()
    array_before = hostspeed.array_loop() if arrays else None
    if cli_args is None:
        result = run_branching(seed, workloads.SIZES[size]["branching_particles"])
    else:
        result = run_cli(cli_args)
    if arrays:
        result["array_ref_s"] = [array_before, hostspeed.array_loop()]
    result["ref_s"] = [ref_before, hostspeed.reference_loop()]
    result["ready"] = READY
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "erwalk": erwalk.__version__,
    }
    if tracer is not None:
        tracer.dump(out_dir)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
