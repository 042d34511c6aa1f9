"""How the walk remembers: power-law recall weights and their closed forms.

The recalled time at history length n follows P(recall = k) proportional to
mu_k = c_k(beta), where c_n(xi) = Gamma(n+xi)/(Gamma(n)Gamma(xi+1)) grows
like n^xi.  Positive beta favors recent times, negative beta early times.
This script walks through the weight sequence, the closed-form CDF that
makes O(log n) sampling possible at absurd history lengths, and the
telescoping identities everything else is built on.
"""

import math

import numpy as np

from erwalk import MemoryLaw, c_values, gamma_ratio_sum, poch_ratio

print("=== weight sequence c_n(xi) ===")
for xi in (-0.5, 0.0, 1.0, 2.0):
    row = [f"{poch_ratio(n, xi):9.4f}" for n in (1, 2, 5, 10, 100)]
    print(f"xi = {xi:+.1f}:  n = 1, 2, 5, 10, 100 ->", " ".join(row))
print("c_n(0) is identically 1; c_n(1) = n; growth is ~ n^xi / Gamma(xi+1).\n")

print("=== recall distribution at history length 12 ===")
for beta in (-0.6, 0.0, 1.5):
    law = MemoryLaw(beta, 12)
    pmf = law.pmf(np.arange(1, 13))
    bars = ["#" * int(round(60 * p)) for p in pmf]
    print(f"beta = {beta:+.1f}")
    for k in (1, 4, 8, 12):
        print(f"  k = {k:>2}: {pmf[k - 1]:.4f} {bars[k - 1]}")
print("beta > 0 piles mass on recent times; beta < 0 on the distant past.\n")

print("=== closed-form CDF: sampling without materializing weights ===")
law = MemoryLaw(0.5, 10**8)
for u in (0.001, 0.25, 0.75, 0.999):
    k = law.sample(u)
    print(f"u = {u:>6}: recalled time {k:>12,d}  (history length 1e8)")
print("each draw costs O(log n) closed-form CDF evaluations, O(1) memory.\n")

print("=== the telescoping identity behind the normalization ===")
a, b, lo, hi = 0.5, 2.5, 2, 50
closed = gamma_ratio_sum(a, b, lo, hi)
direct = sum(math.exp(math.lgamma(k + a) - math.lgamma(k + b)) for k in range(lo, hi + 1))
print(f"sum Gamma(k+{a})/Gamma(k+{b}), k={lo}..{hi}:")
print(f"  closed form {closed:.12f}  vs  direct loop {direct:.12f}")

mu = c_values(1.0, 21)  # mu_1, ..., mu_21 at beta = 1
total = sum(mu[:20])
print(f"\nsum of mu_k (beta = 1) for k = 1..20: {total:.1f}")
print(f"identity n*mu_(n+1)/(beta+1) gives:   {20 * mu[20] / 2:.1f}")
