"""Monte Carlo vs exact: the collapsed simulator against the moment engine.

The conditional step law depends on the history only through the weighted
sum Sigma_n, so the pair (Xi_n, Sigma_n) is simulated directly: one uniform
per replicate and step is still drawn, but each replicate's next up-step is
found by a tiled search over its row of draws, so the work goes per tile
and per up-step.
Ensembles use one counter-based RNG stream per replicate: identical output
for any batching or worker count.  Replicate j of seed s (both in
[0, 2**64)) is Philox4x64-10 under the key (s, j), and its draw d is lane
d % 4 of Philox block d // 4 + 1, so any draw can be read directly.
"""

import numpy as np

from erwalk import (
    ModelParams,
    build_report,
    compare_mc_exact,
    exact_mean_xi,
    run_ensemble,
    run_walk,
    stagnation_profile,
)

print("=== a single trajectory, checkpointed geometrically ===")
pms = ModelParams(0.5, 0.5)
traj = run_walk(pms, 10**4, seed=42)
print("       n        xi        sigma          M_n         A_n")
for i in range(0, len(traj.n), 8):
    print(f"{traj.n[i]:>8,d}  {traj.xi[i]:>8,d}  {traj.sigma[i]:>11.2f}"
          f"  {traj.m[i]:>11.4f}  {traj.a[i]:>10.2f}")
print("M_n is the martingale normalization of sigma; it converges a.s.\n")

print("=== ensemble means audited against the exact engine ===")
for p, beta in [(0.5, 0.0), (0.5, 1.0), (0.5, 2.0)]:
    pms = ModelParams(p, beta)
    res = run_ensemble(pms, 2000, 20000, seed=7, checkpoints=[2000])
    rep = build_report(res)
    exact = exact_mean_xi(2000, pms)
    gate = compare_mc_exact(rep, exact, 2000)
    print(f"beta = {beta:+.1f}: mc {rep.mean_xi[-1]:9.4f}  exact {exact:9.4f}  "
          f"z = {gate.z:+.2f}  {'ok' if gate.passed else 'FAIL'}")
print()

print("=== reproducibility: same seed, different worker counts ===")
a = run_ensemble(pms, 500, 2000, seed=3, checkpoints=[500], workers=1)
b = run_ensemble(pms, 500, 2000, seed=3, checkpoints=[500], workers=4,
                 block_size=128)
same = np.array_equal(a.arrays["xi"], b.arrays["xi"])
print(f"xi matrices identical across worker counts: {same}\n")

print("=== stagnation: the localized walk freezes, the negative-beta walk never ===")
for beta, story in [(2.0, "localized"), (-0.5, "growing")]:
    pms = ModelParams(0.5, beta)
    res = run_ensemble(pms, 8000, 5000, seed=5,
                       checkpoints=[1000, 2000, 4000, 8000], record=("xi",))
    prof = stagnation_profile(res, [(1000, 2000), (4000, 8000)])
    fr = ", ".join(f"[{w.n_lo},{w.n_hi}]: {w.fraction:.3f}" for w in prof)
    print(f"beta = {beta:+.1f} ({story:>9}): frozen fraction {fr}")
