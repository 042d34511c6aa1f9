"""Monte Carlo vs exact: the simulators against the moment engine.

The conditional step law depends on the history only through the weighted
sum Sigma_n, so the pair (Xi_n, Sigma_n) is simulated directly, by one of
two engines.  `collapsed` reads one uniform per replicate and step and
makes one numpy pass per time step, whether or not any replicate steps up.
`events` draws the next up-step itself: a geometric gap under an envelope
of pi_n, thinned to the true pi_n, so its work goes per candidate up-step
and it is far faster where up-steps are sparse.  The simulators' default
mode, "auto", picks between them from the expected up-steps per step.  The
two agree in law, not in bits, so this demo names `collapsed` in every
call to keep the bits it prints.
Ensembles read counter-based RNG streams, so the output is identical for
any batching or worker count.  Stream (s, k) of seed s (both in [0, 2**64))
is Philox4x64-10 under that key, and its draw d is lane d % 4 of Philox
block d // 4 + 1, so any draw can be read directly.  `collapsed` keys a
stream per time step: transition n of replicate j reads draw j of stream
(s, n).  `events` keys one per replicate: candidate k of replicate j reads
draws 2k and 2k + 1 of stream (s, j).
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
traj = run_walk(pms, 10**4, seed=42, mode="collapsed")
print("       n        xi        sigma          M_n         A_n")
for i in range(0, len(traj.n), 8):
    print(f"{traj.n[i]:>8,d}  {traj.xi[i]:>8,d}  {traj.sigma[i]:>11.2f}"
          f"  {traj.m[i]:>11.4f}  {traj.a[i]:>10.2f}")
print("M_n is the martingale normalization of sigma; it converges a.s.\n")

print("=== ensemble means audited against the exact engine ===")
for p, beta in [(0.5, 0.0), (0.5, 1.0), (0.5, 2.0)]:
    pms = ModelParams(p, beta)
    exact = exact_mean_xi(2000, pms)
    for mode in ("collapsed", "events"):
        res = run_ensemble(pms, 2000, 20000, seed=7, checkpoints=[2000], mode=mode)
        rep = build_report(res)
        gate = compare_mc_exact(rep, exact, 2000)
        print(f"beta = {beta:+.1f} {mode:>9}: mc {rep.mean_xi[-1]:9.4f}  "
              f"exact {exact:9.4f}  z = {gate.z:+.2f}  {'ok' if gate.passed else 'FAIL'}")
print()

print("=== reproducibility: same seed, different worker counts ===")
# 5000 replicates make three blocks of at most 2048, one task each
a = run_ensemble(pms, 500, 5000, seed=3, checkpoints=[500], mode="collapsed", workers=1)
b = run_ensemble(pms, 500, 5000, seed=3, checkpoints=[500], mode="collapsed", workers=4)
same = np.array_equal(a.arrays["xi"], b.arrays["xi"])
print(f"xi matrices identical across worker counts: {same}\n")

print("=== stagnation: the localized walk freezes, the negative-beta walk never ===")
for beta, story in [(2.0, "localized"), (-0.5, "growing")]:
    pms = ModelParams(0.5, beta)
    res = run_ensemble(pms, 8000, 5000, seed=5,
                       checkpoints=[1000, 2000, 4000, 8000], mode="collapsed",
                       record=("xi",))
    prof = stagnation_profile(res, [(1000, 2000), (4000, 8000)])
    fr = ", ".join(f"[{w.n_lo},{w.n_hi}]: {w.fraction:.3f}" for w in prof)
    print(f"beta = {beta:+.1f} ({story:>9}): frozen fraction {fr}")
