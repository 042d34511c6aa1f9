"""Acceptance gates for the verification harness.

Each test prints one pass/fail line (run with `pytest -s` to see them all).
Every tolerance is pinned here.  Two sub-clauses encode thresholds that are
analytically unreachable at their stated horizons and are expected to fail;
their docstrings carry the quantitative analysis.  They are intentionally
not weakened: an honest red with analysis beats a gamed green.
"""

import math

import numpy as np
import pytest

from erwalk.analysis import chi_square_vs_law, fit_exponent
from erwalk.branching import BranchingParams, sample_offspring, simulate
from erwalk.exact import (
    _propagate_vectors,
    asymptotic_constant,
    enumerate_law,
    exact_mean_xi,
    l2_diagnostic,
    lower_bound_prob_one,
    propagate_moments,
)
from erwalk.gammaratio import log_poch_ratio
from erwalk.walkers import ModelParams, run_ensemble

GRID = [
    ModelParams(p, b)
    for p in (0.2, 0.5, 0.8)
    for b in (-0.5, 0.0, 0.5, p / (1 - p), 2.0)
]


def check(num: str, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>3}] {name}: {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_exact_engine_self_consistency():
    worst = 0.0
    for pms in GRID:
        vectors = _propagate_vectors(pms, 12, 1)
        for n in range(2, 13):
            closed = exact_mean_xi(n, pms)
            law, _ = enumerate_law(pms, n)
            dev = max(
                abs(law.mean / closed - 1.0),
                abs(vectors[(1, 0)][n - 1] / closed - 1.0),
            )
            worst = max(worst, dev)
    check(
        "1",
        "closed form vs propagator vs enumeration, n <= 12",
        worst <= 1e-10,
        f"worst relative deviation {worst:.2e} over {len(GRID)} parameter sets",
    )


def test_criterion_02_memory_sum_mean_identity():
    worst = 0.0
    for pms in GRID:
        vectors = _propagate_vectors(pms, 10**5, 1)
        # the direct log-Gamma path, not the product the propagator runs
        n = np.arange(1, 10**5 + 1, dtype=np.float64)
        c_rate = np.exp(log_poch_ratio(n, pms.rate))
        dev = float(np.max(np.abs(vectors[(0, 1)] / c_rate - 1.0)))
        worst = max(worst, dev)
    check(
        "2",
        "propagated E[Sigma_n] equals c_n(p(beta+1)) to n = 1e5",
        worst <= 1e-10,
        f"worst relative deviation {worst:.2e}",
    )


@pytest.fixture(scope="module")
def localized_ensemble():
    pms = ModelParams(0.5, 2.0)
    return run_ensemble(
        pms, 10**4, 10**5, seed=11001, checkpoints=[10**4], record=("xi",)
    )


def test_criterion_03a_localized_mc_mean(localized_ensemble):
    pms = ModelParams(0.5, 2.0)
    xi = localized_ensemble.arrays["xi"][:, -1]
    exact = exact_mean_xi(10**4, pms)
    se = xi.std(ddof=1) / math.sqrt(len(xi))
    z = (xi.mean() - exact) / se
    check(
        "3a",
        "localized MC mean within 4 sigma of the exact mean",
        abs(z) <= 4.0,
        f"mc {xi.mean():.5f} vs exact {exact:.5f}, z = {z:.2f}",
    )


def test_criterion_03b_localized_mean_near_limit():
    """Expected to fail: the mean approaches its limit 4 only like n^(-1/2).

    4 - E[Xi_n] = 3 c_n(1.5)/c_n(2) ~ 4.51 n^(-1/2), which is 4.5e-2 at
    n = 1e4; a 1e-3 gap would need n ~ 4.51^2 1e6 ~ 2.0e7.  The threshold
    is kept as stated rather than widened.
    """
    exact = exact_mean_xi(10**4, ModelParams(0.5, 2.0))
    gap = abs(exact - 4.0)
    check(
        "3b",
        "exact mean at n = 1e4 within 1e-3 of the limit 4",
        gap <= 1e-3,
        f"exact {exact:.6f}, gap {gap:.2e} (analysis: gap ~ 4.51 n^-0.5)",
    )


def test_criterion_04_critical_mean_is_harmonic():
    pms = ModelParams(0.5, 1.0)
    worst = 0.0
    for n in (1, 10, 1000, 10**5, 10**6):
        h_n = math.fsum(1.0 / k for k in range(1, n + 1))
        worst = max(worst, abs(exact_mean_xi(n, pms) / h_n - 1.0))
    ratio = exact_mean_xi(10**6, pms) / math.log(10**6)
    ok = worst <= 1e-12 and 0.95 <= ratio <= 1.10
    check(
        "4",
        "critical mean equals harmonic numbers; log-growth ratio in band",
        ok,
        f"worst harmonic deviation {worst:.2e}, mean/log n = {ratio:.4f} at n = 1e6",
    )


@pytest.mark.parametrize("p,beta", [(0.5, 0.0), (0.5, 0.5), (0.7, -0.5)])
def test_criterion_05_growth_exponent(p, beta):
    pms = ModelParams(p, beta)
    target = pms.growth_exponent
    ns = np.unique(np.geomspace(10**3, 10**5, 25).astype(np.int64))
    means = np.array([exact_mean_xi(int(n), pms) for n in ns])
    fit = fit_exponent(ns, means)
    amp = asymptotic_constant(pms)
    ratio = exact_mean_xi(10**5, pms) / (amp * (10**5) ** target)
    ok = abs(fit.slope - target) <= 0.05 and 0.9 <= ratio <= 1.1
    check(
        "5",
        f"growth exponent and amplitude at (p, beta) = ({p}, {beta})",
        ok,
        f"slope {fit.slope:.4f} vs {target:.2f}; amplitude ratio {ratio:.4f}",
    )


def test_criterion_06a_l2_bounded_branch_flattens():
    """Expected to fail: the second moment converges only like n^(-0.15).

    At beta = p/(1-p) - 0.3 the increments of E[M_n^2] decay as
    n^(beta - rate - 1) = n^(-1.15), so the [1e4, 1e5] window still adds
    ~0.43; an increase below 1e-3 would need n ~ 4e22.  Threshold kept as
    stated.  The product's own boundedness verdict (criterion 6d in spirit)
    classifies this regime correctly via the increment exponent.
    """
    diag = l2_diagnostic(ModelParams(0.5, 0.7), 10**5)
    check(
        "6a",
        "bounded regime: last-decade increase of E[M_n^2] below 1e-3",
        diag.last_decade_increase < 1e-3,
        f"increase {diag.last_decade_increase:.4f} (bounded verdict: {diag.bounded})",
    )


def test_criterion_06b_l2_critical_diverges():
    diag = l2_diagnostic(ModelParams(0.5, 1.0), 10**5)
    ok = diag.last_decade_increase > 1e-2 and not diag.bounded
    check(
        "6b",
        "critical regime: E[M_n^2] keeps increasing (log divergence)",
        ok,
        f"last-decade increase {diag.last_decade_increase:.4f}",
    )


def test_criterion_06c_l2_supercritical_diverges():
    diag = l2_diagnostic(ModelParams(0.5, 1.3), 10**5)
    ok = diag.last_decade_increase > 1e-2 and not diag.bounded
    check(
        "6c",
        "beyond-boundary regime: E[M_n^2] increases without flattening",
        ok,
        f"last-decade increase {diag.last_decade_increase:.4f}",
    )


def test_criterion_07_critical_mixed_moment_ratios():
    pms = ModelParams(0.5, 1.0)
    beta = pms.beta
    tables = {t.n: t for t in propagate_moments(pms, 10**6, 3, checkpoints=[10**5, 10**6])}
    worst = 0.0
    details = []
    for k in (1, 2, 3):
        for ell in range(k + 1):
            vals = []
            for n in (10**5, 10**6):
                t = tables[n]
                denom = n ** (ell * beta) * math.log(n) ** (2 * k - 1 - ell)
                vals.append(float(t.m[k - ell, ell]) / denom)
            rel = abs(vals[1] - vals[0]) / abs(vals[0])
            worst = max(worst, rel)
            details.append(f"({k},{ell}):{rel:.1%}")
    check(
        "7",
        "critical scaled moment ratios stabilize within 10%",
        worst < 0.10,
        " ".join(details),
    )


@pytest.mark.parametrize(
    "p,beta,direction",
    [(0.5, -0.5, "ge"), (0.4, 1.0, "le")],
)
def test_criterion_08_pathwise_coupling_order(p, beta, direction):
    pms = ModelParams(p, beta)
    # the engine asserts the order at every one of the 1e5 steps; any
    # violation raises before results come back
    res = run_ensemble(pms, 10**5, 10**3, seed=88001, checkpoints=[10**5],
                       mode="collapsed", record=("xi", "xi_lerw"))
    xi, xi_lerw = res.arrays["xi"], res.arrays["xi_lerw"]
    if direction == "ge":
        violations = int(np.sum(xi < xi_lerw))
    else:
        violations = int(np.sum(xi > xi_lerw))
    check(
        "8",
        f"pathwise order ({direction}) at (p, beta) = ({p}, {beta})",
        violations == 0,
        f"violations {violations} over 1e3 paths to n = 1e5",
    )


def test_criterion_09_branching_mean_offspring():
    bp = BranchingParams(0.5, 1.0, epsilon=1e-8)
    rng = np.random.default_rng(99001)
    details = []
    ok = True
    for k in (1, 5, 50):
        counts = np.array(
            [len(sample_offspring(k, bp, rng)[0]) for _ in range(10**5)],
            dtype=np.float64,
        )
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        dev = abs(counts.mean() - bp.mean_offspring)
        ok &= dev <= 4.0 * se + bp.epsilon
        details.append(f"k={k}: mean {counts.mean():.4f} ({dev / se:.2f} se)")
    check(
        "9",
        "branching mean offspring equals p(beta+1)/beta",
        ok,
        "; ".join(details),
    )


def test_criterion_10_branching_extinction():
    rng = np.random.default_rng(10001)
    # subcritical: mean offspring m = 0.75, so survival to generation 40 is at
    # most E[Z_40] = m^39 = 1.34e-5 (the bound; the survival itself is nearer
    # 5.0e-6)
    bp = BranchingParams(0.5, 2.0, max_gen=40)
    runs = [simulate(bp, rng) for _ in range(10**4)]
    extinct_frac = sum(r.extinct for r in runs) / len(runs)
    # critical: survival probability strictly decreasing along generations
    bp_crit = BranchingParams(0.5, 1.0, max_gen=40)
    alive = {g: 0 for g in (5, 10, 20, 40)}
    for _ in range(10**4):
        res = simulate(bp_crit, rng)
        sizes = res.generation_sizes
        for g in alive:
            if len(sizes) >= g and sizes[g - 1] > 0:
                alive[g] += 1
    survival = [alive[g] / 10**4 for g in (5, 10, 20, 40)]
    strictly_decreasing = all(a > b for a, b in zip(survival, survival[1:]))
    ok = extinct_frac >= 0.99 and strictly_decreasing
    check(
        "10",
        "branching extinction: subcritical dies out, critical survival decays",
        ok,
        f"extinct {extinct_frac:.4f}; critical survival {survival}",
    )


def test_criterion_11_localization_probability():
    pms = ModelParams(0.5, 1.0)
    bound = lower_bound_prob_one(pms, 10**6).certified_lower
    res = run_ensemble(pms, 10**4, 10**5, seed=11101, checkpoints=[10**4],
                       record=("xi",))
    freq = float(np.mean(res.arrays["xi"][:, -1] == 1))
    se = math.sqrt(freq * (1 - freq) / 10**5)
    ok = freq >= bound - 4.0 * se
    check(
        "11",
        "frequency of never moving again exceeds the certified bound",
        ok,
        f"freq {freq:.5f} vs certified {bound:.5f} (se {se:.1e})",
    )


@pytest.mark.parametrize("mode", ["collapsed", "full"])
def test_criterion_12_differential_simulators(mode):
    pms = ModelParams(0.5, 1.0)
    n = 12
    res = run_ensemble(pms, n, 10**6, seed=12001, checkpoints=[n], mode=mode,
                       record=("xi",))
    law, _ = enumerate_law(pms, n)
    p_val = chi_square_vs_law(res.arrays["xi"][:, -1], law)
    check(
        "12",
        f"{mode} simulator law matches enumeration at n = 12",
        p_val > 1e-3,
        f"chi-square p = {p_val:.4f} over 1e6 replicates",
    )
