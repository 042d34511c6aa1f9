"""Monotone couplings: sandwiching the walk between uniform-memory walks.

Driving the walk and a uniform-memory walk of retention rate p(beta+1)
with one shared uniform per step yields a pathwise order: the power-law
walk dominates for beta < 0 and is dominated for beta > 0.  The collapsed
engine, recording the comparison walk `xi_lerw`, asserts the order at
every step; a single violation would raise.
"""

import numpy as np

from erwalk import ModelParams, run_ensemble


def coupled(p, beta, n_steps, n_replicates, seed):
    """Checkpoints and the (walk, uniform-memory walk) xi matrices."""
    res = run_ensemble(ModelParams(p, beta), n_steps, n_replicates, seed,
                       mode="collapsed", record=("xi", "xi_lerw"))
    return res.checkpoints, res.arrays["xi"], res.arrays["xi_lerw"]


print("=== one coupled pair, beta = -0.5 (early-time memory) ===")
n, xi, xi_lerw = coupled(0.5, -0.5, 10**4, 1, seed=21)  # replicate 0 alone
print("       n     walk   uniform-memory")
for i in range(0, len(n), 10):
    print(f"{n[i]:>8,d} {xi[0, i]:>8,d} {xi_lerw[0, i]:>10,d}")
print("early-memory recall keeps re-finding the guaranteed first step,\n"
      "so the walk stays ahead of its uniform-memory twin.\n")

print("=== ensemble order checks (every step, every path) ===")
for p, beta, rel in [(0.5, -0.5, ">="), (0.4, 1.0, "<=")]:
    _, xi, xi_lerw = coupled(p, beta, 10**4, 200, seed=9)
    ok = bool(np.all(xi >= xi_lerw if rel == ">=" else xi <= xi_lerw))
    final_gap = np.mean(xi[:, -1] - xi_lerw[:, -1])
    print(f"(p, beta) = ({p}, {beta:+.1f}): walk {rel} twin on all paths: {ok}; "
          f"mean final gap {final_gap:+.1f}")
print()

print("=== beta = 0: the two processes coincide under shared randomness ===")
_, xi, xi_lerw = coupled(0.5, 0.0, 2000, 100, seed=9)
print("identical trajectories:", bool(np.array_equal(xi, xi_lerw)))
