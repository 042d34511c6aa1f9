"""Workload inputs of the erwalk benchmark.

Both `run.py` and each measured iteration (`child.py`) import
this module, so it holds only plain data and small functions of the seed:
no numpy, no erwalk.  Two sizes exist: "full" is what the benchmark
measures; "tiny" is the smoke size that `selftest.py` runs.
"""

from __future__ import annotations

NAMES = ("report", "simulate-long", "simulate-wide", "branching-critical", "exact-critical")

#: the critical point every Monte Carlo workload runs at: beta = p/(1-p)
CRITICAL_P = 0.5
CRITICAL_BETA = 1.0

#: branching-critical runs the branching process at this critical point
#: (m = p(beta+1)/beta = 1).  At (0.5, 1) lines that live 40 generations
#: reach types whose certified cutoff passes branching.MAX_TYPE, which the
#: cap_hits check rejects; at beta = 3 types grow a third as fast and stay
#: far below it
BRANCHING_P = 0.75
BRANCHING_BETA = 3.0
BRANCHING_MAX_GEN = 40

#: exact-critical evaluates the critical line at these p
EXACT_PS = (0.3, 0.5, 0.7)

#: horizons of the ensembles that `erwalk report` runs at every scale, in
#: the order of report.run_gates: the negative-beta coupling and
#: stagnation ensembles, the zero-beta and critical MC-mean ensembles, the
#: localized MC-mean and stagnation ensembles
REPORT_ENSEMBLE_STEPS = (2000, 4000, 2000, 2000, 2000, 4000)

SIZES = {
    "full": {
        "report_scale": 1.0,
        "long_n": 10_000,
        "long_reps": 10_000,
        "wide_n": 12,
        "wide_reps": 50_000,
        "branching_particles": 8000,
        "exact_n": 1_000_000,
    },
    "tiny": {
        "report_scale": 0.1,
        "long_n": 300,
        "long_reps": 300,
        "wide_n": 12,
        "wide_reps": 2000,
        "branching_particles": 300,
        "exact_n": 10_000,
    },
}


#: workloads whose work varies with the input: the cutoff cache misses of
#: 8000 critical particles spread 14% (IQR/median) between seeds.  Each
#: iteration of a run gets its own input, so a run's median averages over
#: inputs.  Every other workload does the same work whatever the seed, and
#: its iterations all get the run's one input.
PER_ITERATION_INPUT = ("branching-critical",)


#: workloads whose own times are scaled by hostspeed.array_loop rather than
#: by the Python reference loop.  The moment propagator of exact-critical
#: streams arrays of 1e6 doubles; the host's slow phases, which slow Python
#: bytecode and the Python loop by up to 50%, slow it much less.  Over ten
#: seeds its median wall time spread 0.036 raw and 0.123 scaled by the
#: Python loop, and in a second set 0.112 raw and 0.092 scaled; over four
#: minutes of one input, 25-second-window medians spread 0.054 raw, 0.041
#: by the Python loop and 0.021 by the array loop, and a third set of ten
#: seeds scaled by the array loop spread 0.043.  Its set-up (the same
#: import everywhere) is scaled by the Python loop like every workload's.
ARRAY_REFERENCE = ("exact-critical",)


def iteration_seed(name: str, seed: int, index: int) -> int:
    """Seed of iteration `index` of a run of workload `name` with --seed `seed`."""
    return 1000 * seed + index if name in PER_ITERATION_INPUT else seed


def cli_argv(name: str, seed: int, size: str, out_dir: str) -> list[str] | None:
    """Arguments of the `erwalk` CLI call a workload makes; None for API workloads."""
    s = SIZES[size]
    if name == "report":
        return ["report", "--seed", str(seed), "--scale", repr(s["report_scale"]),
                "--out", out_dir]
    if name == "simulate-long":
        return ["simulate", "--p", repr(CRITICAL_P), "--beta", repr(CRITICAL_BETA),
                "--n", str(s["long_n"]), "--replicates", str(s["long_reps"]),
                "--seed", str(seed), "--out", out_dir]
    if name == "simulate-wide":
        return ["simulate", "--p", repr(CRITICAL_P), "--beta", repr(CRITICAL_BETA),
                "--n", str(s["wide_n"]), "--replicates", str(s["wide_reps"]),
                "--differential", "--differential-n", str(s["wide_n"]),
                "--seed", str(seed), "--out", out_dir]
    if name == "exact-critical":
        return ["exact", "--critical", "--p", *(repr(p) for p in EXACT_PS),
                "--n", str(s["exact_n"]), "--degree", "3", "--out", out_dir]
    if name == "branching-critical":
        return None
    raise ValueError(f"unknown workload {name!r}")


def simulate_shape(name: str, size: str) -> tuple[int, int]:
    """(n, replicates) of a simulate workload."""
    s = SIZES[size]
    key = "long" if name == "simulate-long" else "wide"
    return s[f"{key}_n"], s[f"{key}_reps"]


def steps(name: str, size: str, particles: int = 0) -> int:
    """Work units of one iteration, the numerator of rep_steps_per_s.

    A unit is one time step of one walk replicate (report, simulate-*), one
    particle of the branching process (branching-critical), or one step of
    the exact moment recursion at one parameter point (exact-critical).
    """
    s = SIZES[size]
    if name == "report":
        reps = max(200, int(2000 * s["report_scale"]))
        return reps * sum(n - 1 for n in REPORT_ENSEMBLE_STEPS)
    if name in ("simulate-long", "simulate-wide"):
        n, reps = simulate_shape(name, size)
        total = reps * (n - 1) + (n - 1)  # the ensemble plus one trajectory
        if name == "simulate-wide":
            total += 2 * reps * (n - 1)  # collapsed and full differential ensembles
        return total
    if name == "branching-critical":
        return particles
    if name == "exact-critical":
        return len(EXACT_PS) * (s["exact_n"] - 1)
    raise ValueError(f"unknown workload {name!r}")
