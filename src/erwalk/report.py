"""Consolidated pass/fail gates mapping each phase regime to its checks.

The gate battery re-derives its own data (exact engine plus light Monte
Carlo), so a report run is self-contained.  Replicate counts scale with
the `scale` parameter, which must be finite and positive.

Each Monte Carlo ensemble but the coupling runs on the engine that
`run_ensemble`'s default mode "auto" picks from the expected up-steps per
step.  Four of them are sparse and run the events engine: the zero-beta MC
mean, the critical localization ensemble, and the localized MC-mean and
stagnation ensembles.  The negative-beta stagnation ensemble, (0.5, -0.5)
to n = 4000, runs the collapsed engine; the coupling gate runs mode
"coupled", and the branching gate runs `branching.simulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, branching, exact
from .walkers import ModelParams, geometric_checkpoints, run_ensemble

__all__ = ["Gate", "run_gates", "REGIMES"]

REGIMES = (
    "negative_beta",
    "zero_beta",
    "sub_critical_positive",
    "critical",
    "localized",
)

#: reference values the gates check against; tests corrupt these to verify
#: that a broken harness is reported loudly
GOLDEN = {
    "localized_limit_mean": 4.0,  # beta/(beta - p(beta+1)) at (0.5, 2)
    "critical_log_slope": 1.0,  # E[Xi_n]/log n -> beta at (0.5, 1)
    "negative_beta_exponent": 0.75,  # p(beta+1) - beta at (0.5, -0.5)
    "zero_beta_exponent": 0.5,  # at (0.5, 0)
    "sub_critical_exponent": 0.25,  # at (0.5, 0.5)
}


@dataclass
class Gate:
    regime: str
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)


def _exponent_gate(regime, params, target, n_max=10**5, tol=0.05):
    cps = geometric_checkpoints(n_max)
    fit = analysis.fit_exponent(cps, exact._mean_table(params, cps), window=(10**3, n_max))
    return Gate(regime, "mean growth exponent", abs(fit.slope - target) <= tol,
                f"slope {fit.slope:.4f} vs {target} (tol {tol})")


def _l2_gate(regime, params, expect_bounded, n_max=10**4):
    d = exact.l2_diagnostic(params, n_max)
    return Gate(regime, "martingale second moment", d.bounded == expect_bounded,
                f"bounded={d.bounded} (expected {expect_bounded}), "
                f"increment slope {d.increment_exponent:.3f} vs {d.expected_exponent:.3f}")


def _coupling_gate(regime, params, seed, n_steps, n_reps):
    try:
        res = run_ensemble(
            params, n_steps, n_reps, seed, checkpoints=[n_steps], mode="coupled",
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


def _stagnation_gate(regime, name, params, seed, n_reps, passes):
    """`passes(f)` judges the stagnant fraction f on [2000, 4000]."""
    res = run_ensemble(params, 4000, n_reps, seed, checkpoints=[2000, 4000], record=("xi",))
    stag = analysis.stagnation_profile(res, [(2000, 4000)])[0]
    return Gate(regime, name, passes(stag.fraction),
                f"stagnant fraction {stag.fraction:.4f} on [2000, 4000]")


def run_gates(regimes=None, seed: int = 20240801, scale: float = 1.0, level: float = 4.0):
    """Run the gate battery for the requested regimes (all by default)."""
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
    gates: list[Gate] = []

    if "negative_beta" in regimes:
        pms = ModelParams(0.5, -0.5)
        gates += [
            _exponent_gate("negative_beta", pms, GOLDEN["negative_beta_exponent"]),
            _coupling_gate("negative_beta", pms, seed, 2000, reps),
            _stagnation_gate("negative_beta", "no late stagnation", pms, seed + 1, reps,
                             lambda f: f < 0.02),
        ]

    if "zero_beta" in regimes:
        pms = ModelParams(0.5, 0.0)
        gates += [
            _exponent_gate("zero_beta", pms, GOLDEN["zero_beta_exponent"]),
            _l2_gate("zero_beta", pms, expect_bounded=True),
            _mc_mean_gate("zero_beta", pms, seed + 2, 2000, reps, level),
        ]

    if "sub_critical_positive" in regimes:
        pms = ModelParams(0.5, 0.5)
        amp = exact.asymptotic_constant(pms)
        ratio = exact.exact_mean_xi(n_ref, pms) / (amp * n_ref**pms.growth_exponent)
        gates += [
            _exponent_gate("sub_critical_positive", pms, GOLDEN["sub_critical_exponent"]),
            _l2_gate("sub_critical_positive", pms, expect_bounded=True),
            Gate("sub_critical_positive", "amplitude ratio", 0.9 <= ratio <= 1.1,
                 f"exact mean / (C n^kappa) = {ratio:.4f} at n = {n_ref}"),
        ]

    if "critical" in regimes:
        pms = ModelParams(0.5, 1.0)
        ratio = exact.exact_mean_xi(n_ref, pms) / np.log(n_ref)
        bound = exact.lower_bound_prob_one(pms, n_ref)
        res = run_ensemble(pms, 2000, reps, seed + 3, checkpoints=[2000], record=("xi",))
        freq = float(np.mean(res.arrays["xi"][:, -1] == 1))
        se = np.sqrt(max(freq * (1 - freq), 1e-12) / reps)
        gates += [
            Gate("critical", "log-growth of the mean",
                 0.9 <= ratio / GOLDEN["critical_log_slope"] <= 1.15,
                 f"E[Xi_n]/log n = {ratio:.4f} at n = {n_ref}"),
            _l2_gate("critical", pms, expect_bounded=False),
            Gate("critical", "localization probability bound",
                 freq >= bound.certified_lower - level * se,
                 f"freq(Xi = 1) = {freq:.4f} >= certified {bound.certified_lower:.4f}"
                 f" - {level} se"),
        ]

    if "localized" in regimes:
        pms = ModelParams(0.5, 2.0)
        lim = exact.limit_mean_xi(pms)
        bp = branching.BranchingParams(0.5, 2.0, max_gen=40)
        rng = np.random.default_rng(seed + 6)
        n_runs = max(200, int(1000 * scale))
        frac = sum(branching.simulate(bp, rng).extinct for _ in range(n_runs)) / n_runs
        gates += [
            Gate("localized", "limit of the mean",
                 abs(lim - GOLDEN["localized_limit_mean"]) <= 1e-12, f"limit {lim} vs 4"),
            _mc_mean_gate("localized", pms, seed + 4, 2000, reps, level),
            _stagnation_gate("localized", "late-window stagnation", pms, seed + 5, reps,
                             lambda f: f > 0.95),
            Gate("localized", "branching extinction", frac >= 0.99,
                 f"extinct fraction {frac:.4f} over {n_runs} runs (mean offspring 0.75)"),
        ]

    return gates
