"""Consolidated pass/fail gates mapping each phase regime to its checks.

The gate battery re-derives its own data (exact engine plus light Monte
Carlo), so a report run is self-contained.  Replicate counts scale with
the `scale` parameter, which must be finite and positive.

Each Monte Carlo ensemble but the coupling runs on the engine that
`run_ensemble`'s default mode "auto" picks from the expected up-steps per
step.  Four of them are sparse and run the events engine: the zero-beta MC
mean, the critical localization ensemble, and the localized MC-mean and
stagnation ensembles.  The negative-beta stagnation ensemble, (0.5, -0.5)
to n = 4000, runs the collapsed engine; so does the coupling gate, which
names mode "collapsed" to record the comparison walk `xi_lerw`.  The
branching-extinction gate runs `branching.simulate_ensemble`, whose draws
are keyed through `streams` like the ensembles', so no gate draws from an
unkeyed Generator.

Every gate is a pure function of its regime, parameters, seed, scale and
level, so `run_gates` may run them in any order.  They run as tasks of
`walkers._fan_out`, which collects the results in battery order, so stdout
and report.json do not depend on the worker count.  A battery that holds
one of the two collapsed-engine gates (any battery with negative_beta) and
runs at least _FAN_OUT_MIN_REPS = 500 replicates per ensemble (scale 0.25
and up) gets one worker per CPU this process may run on and at most one
per gate: two on a 2-core host.  Any other battery gets one worker, which
runs the gates in this process.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import analysis, branching, exact, walkers
from .walkers import ModelParams, geometric_checkpoints, run_ensemble

__all__ = ["Gate", "run_gates", "REGIMES"]

#: the regime names, in battery order: the values of `analysis.Regime`
REGIMES = tuple(regime.value for regime in analysis.Regime)

#: reference values the gates check against; tests corrupt these to verify
#: that a broken harness is reported loudly
GOLDEN = {
    "localized_limit_mean": 4.0,  # beta/(beta - p(beta+1)) at (0.5, 2)
    "critical_log_slope": 1.0,  # E[Xi_n]/log n -> beta at (0.5, 1)
    "negative_beta_exponent": 0.75,  # p(beta+1) - beta at (0.5, -0.5)
    "zero_beta_exponent": 0.5,  # at (0.5, 0)
    "sub_critical_exponent": 0.25,  # at (0.5, 0.5)
}

#: the fewest replicates per ensemble at which a battery with a slow gate
#: fans out over forked workers.  `erwalk report --seed 9` timed inside
#: `cli.main` in a fresh interpreter, medians of 7 alternating runs, in
#: process against 2 workers, 2-core VM.  While the second vCPU ran in
#: parallel (two forked CPU-bound loops took 0.9 to 1.5 times as long as
#: one): 200 replicates (scale 0.1) 0.123 against 0.097 s, 300 0.117
#: against 0.092 s, 500 0.137 against 0.112 s, 1000 0.231 against 0.129 s,
#: 2000 0.298 against 0.203 s, 4000 0.517 against 0.331 s.  Without a
#: slow gate: `--regime localized` at 2000 replicates 0.046 against
#: 0.058 s, and zero_beta, critical and localized at 4000 0.147 against
#: 0.115 s.  While it did not (the two loops took twice as long), the
#: workers lost at 200 and 300 replicates, 0.193 against 0.223 s and
#: 0.197 against 0.229 s, and tied at 500, 0.219 against 0.216 s (9 runs
#: each).  So the gain below 500 depends on the host's load, and the
#: threshold stays.
_FAN_OUT_MIN_REPS = 500


@dataclass
class Gate:
    regime: str
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)


def _exponent_gate(regime, params, target):
    n_max, tol = 10**5, 0.05
    cps = geometric_checkpoints(n_max)
    fit = analysis.fit_exponent(cps, exact._mean_table(params, cps), window=(10**3, n_max))
    return Gate(regime, "mean growth exponent", abs(fit.slope - target) <= tol,
                f"slope {fit.slope:.4f} vs {target} (tol {tol})")


def _l2_gate(regime, params, expect_bounded):
    d = exact.l2_diagnostic(params, 10**4)
    return Gate(regime, "martingale second moment", d.bounded == expect_bounded,
                f"bounded={d.bounded} (expected {expect_bounded}), "
                f"increment slope {d.increment_exponent:.3f} vs {d.expected_exponent:.3f}")


def _coupling_gate(regime, params, seed, n_steps, n_reps):
    try:
        res = run_ensemble(
            params, n_steps, n_reps, seed, checkpoints=[n_steps], mode="collapsed",
            record=("xi", "xi_lerw"),
        )
    except AssertionError as err:
        return Gate(regime, "pathwise coupling order", False, str(err))
    xi, xi_lerw = res.arrays["xi"][:, -1], res.arrays["xi_lerw"][:, -1]
    return Gate(regime, "pathwise coupling order", np.all(xi >= xi_lerw),
                f"order ge held on {n_reps} paths to n = {n_steps}")


def _mc_mean_gate(regime, params, seed, n_steps, n_reps, level):
    res = run_ensemble(params, n_steps, n_reps, seed, checkpoints=[n_steps], record=("xi",))
    rep = analysis.build_report(res, confidence_z=level)
    g = analysis.compare_mc_exact(rep, exact.exact_mean_xi(n_steps, params), n_steps, level)
    return Gate(regime, "MC mean vs exact", g.passed, g.detail)


def _stagnation_gate(regime, name, params, seed, n_reps, compare, bound):
    """Passes when `compare(f, bound)` holds for the stagnant fraction f on [2000, 4000]."""
    res = run_ensemble(params, 4000, n_reps, seed, checkpoints=[2000, 4000], record=("xi",))
    stag = analysis.stagnation_profile(res, [(2000, 4000)])[0]
    return Gate(regime, name, compare(stag.fraction, bound),
                f"stagnant fraction {stag.fraction:.4f} on [2000, 4000]")


def _amplitude_gate(regime, params, n_ref):
    ratio = exact.exact_mean_xi(n_ref, params) / (
        exact.asymptotic_constant(params) * n_ref**params.growth_exponent)
    return Gate(regime, "amplitude ratio", 0.9 <= ratio <= 1.1,
                f"exact mean / (C n^kappa) = {ratio:.4f} at n = {n_ref}")


def _log_growth_gate(regime, params, n_ref):
    ratio = exact.exact_mean_xi(n_ref, params) / np.log(n_ref)
    return Gate(regime, "log-growth of the mean",
                0.9 <= ratio / GOLDEN["critical_log_slope"] <= 1.15,
                f"E[Xi_n]/log n = {ratio:.4f} at n = {n_ref}")


def _localization_gate(regime, params, seed, n_steps, n_reps, n_ref, level):
    bound = exact.lower_bound_prob_one(params, n_ref)
    res = run_ensemble(params, n_steps, n_reps, seed, checkpoints=[n_steps], record=("xi",))
    freq = float(np.mean(res.arrays["xi"][:, -1] == 1))
    se = np.sqrt(max(freq * (1 - freq), 1e-12) / n_reps)
    return Gate(regime, "localization probability bound",
                freq >= bound.certified_lower - level * se,
                f"freq(Xi = 1) = {freq:.4f} >= certified {bound.certified_lower:.4f}"
                f" - {level} se")


def _limit_gate(regime, params):
    lim = exact.limit_mean_xi(params)
    return Gate(regime, "limit of the mean",
                abs(lim - GOLDEN["localized_limit_mean"]) <= 1e-12, f"limit {lim} vs 4")


def _extinction_gate(regime, params, seed, n_runs):
    runs = branching.simulate_ensemble(params, n_runs, seed)
    frac = np.count_nonzero(runs.extinct) / n_runs
    return Gate(regime, "branching extinction", frac >= 0.99,
                f"extinct fraction {frac:.4f} over {n_runs} runs"
                f" (mean offspring {params.mean_offspring:g})")


def run_gates(regimes=None, seed: int = 20240801, scale: float = 1.0, level: float = 4.0):
    """Run the gate battery for the requested regimes (all by default).

    Every gate is a task, a function of this module and its arguments,
    listed in battery order and run by `walkers._fan_out` on the workers
    the module docstring's rule gives.  Any worker count gives the same
    gates in the same order.
    """
    if regimes is None:
        regimes = REGIMES
    unknown = set(regimes) - set(REGIMES)
    if unknown:
        raise ValueError(f"unknown regimes: {sorted(unknown)}")
    analysis._check_level(level)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    reps = max(200, int(2000 * scale))
    n_ref = 10**5
    # (slow, function, arguments); slow marks the gates whose ensembles run
    # the collapsed engine, the battery's longest tasks
    tasks = []
    if "negative_beta" in regimes:
        pms = ModelParams(0.5, -0.5)
        tasks += [
            (False, _exponent_gate, ("negative_beta", pms, GOLDEN["negative_beta_exponent"])),
            (True, _coupling_gate, ("negative_beta", pms, seed, 2000, reps)),
            (True, _stagnation_gate, ("negative_beta", "no late stagnation", pms, seed + 1,
                                      reps, operator.lt, 0.02)),
        ]
    if "zero_beta" in regimes:
        pms = ModelParams(0.5, 0.0)
        tasks += [
            (False, _exponent_gate, ("zero_beta", pms, GOLDEN["zero_beta_exponent"])),
            (False, _l2_gate, ("zero_beta", pms, True)),
            (False, _mc_mean_gate, ("zero_beta", pms, seed + 2, 2000, reps, level)),
        ]
    if "sub_critical_positive" in regimes:
        pms = ModelParams(0.5, 0.5)
        tasks += [
            (False, _exponent_gate, ("sub_critical_positive", pms,
                                     GOLDEN["sub_critical_exponent"])),
            (False, _l2_gate, ("sub_critical_positive", pms, True)),
            (False, _amplitude_gate, ("sub_critical_positive", pms, n_ref)),
        ]
    if "critical" in regimes:
        pms = ModelParams(0.5, 1.0)
        tasks += [
            (False, _log_growth_gate, ("critical", pms, n_ref)),
            (False, _l2_gate, ("critical", pms, False)),
            (False, _localization_gate, ("critical", pms, seed + 3, 2000, reps, n_ref, level)),
        ]
    if "localized" in regimes:
        pms = ModelParams(0.5, 2.0)
        bp = branching.BranchingParams(0.5, 2.0, max_gen=40)
        tasks += [
            (False, _limit_gate, ("localized", pms)),
            (False, _mc_mean_gate, ("localized", pms, seed + 4, 2000, reps, level)),
            (False, _stagnation_gate, ("localized", "late-window stagnation", pms, seed + 5,
                                       reps, operator.gt, 0.95)),
            (False, _extinction_gate, ("localized", bp, seed + 6,
                                       max(200, int(1000 * scale)))),
        ]

    pooled = reps >= _FAN_OUT_MIN_REPS and any(slow for slow, _, _ in tasks)
    workers = walkers._pool_size(len(tasks)) if pooled else 1
    # the slow tasks go first, so that the others fill the remaining workers
    order = sorted(range(len(tasks)), key=lambda i: not tasks[i][0])
    return list(walkers._fan_out([(fn, args) for _, fn, args in tasks], workers, order))
