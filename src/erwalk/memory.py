"""The power-law memory distribution of the walk.

At history length n the recalled time is drawn from {1, ..., n} with

    P(recall = k) = (beta + 1)/n * mu_k / mu_{n+1},   mu_k = c_k(beta),

so recall is biased toward recent steps for beta > 0, early steps for
beta < 0, and uniform at beta = 0.  The CDF has the closed form
m * mu_{m+1} / (n * mu_{n+1}), which makes O(log n) inverse-transform
sampling possible with O(1) memory even at n = 1e8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gammaratio import log_poch

__all__ = ["MemoryLaw"]


@dataclass(frozen=True)
class MemoryLaw:
    """Distribution of the recalled index given memory exponent and history length."""

    beta: float
    n: int

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ValueError(f"beta must be > -1, got {self.beta}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"history length must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def pmf(self, k):
        """P(recall = k); k scalar or integer array, zero off {1, ..., n}.

        Values lie in [0, 1]: n = 1 is the point mass at 1, exactly, and
        rounding in the Gamma ratios is clamped so it never exceeds 1.
        """
        if isinstance(k, (int, np.integer)):
            if not 1 <= k <= self.n:
                return 0.0
            if self.n == 1:
                return 1.0
            lz = log_poch(float(self.n + 1), self.beta)
            lw = log_poch(float(k), self.beta)
            return min((self.beta + 1.0) / self.n * math.exp(lw - lz), 1.0)
        k = np.atleast_1d(np.asarray(k)).astype(np.int64)
        out = np.zeros(k.shape, dtype=np.float64)
        ok = (k >= 1) & (k <= self.n)
        if ok.any():
            if self.n == 1:
                out[ok] = 1.0
                return out
            lw = log_poch(k[ok].astype(np.float64), self.beta)
            lz = log_poch(float(self.n + 1), self.beta)
            out[ok] = np.minimum((self.beta + 1.0) / self.n * np.exp(lw - lz), 1.0)
        return out

    def cdf(self, m):
        """P(recall <= m) via the telescoped partial sum, in [0, 1]; exact 0 at 0, 1 at n."""
        if isinstance(m, (int, np.integer)):
            if not 0 <= m <= self.n:
                raise ValueError("cdf argument must lie in {0, ..., n}")
            if m == 0:
                return 0.0
            lz = log_poch(float(self.n + 1), self.beta)
            return min(m / self.n * math.exp(log_poch(float(m + 1), self.beta) - lz), 1.0)
        m = np.atleast_1d(np.asarray(m)).astype(np.int64)
        if (m < 0).any() or (m > self.n).any():
            raise ValueError("cdf argument must lie in {0, ..., n}")
        out = np.zeros(m.shape, dtype=np.float64)
        pos = m >= 1
        if pos.any():
            mp = m[pos].astype(np.float64)
            lz = log_poch(float(self.n + 1), self.beta)
            out[pos] = np.minimum(mp / self.n * np.exp(log_poch(mp + 1.0, self.beta) - lz), 1.0)
        return out

    def sample(self, u: float) -> int:
        """Smallest m with cdf(m) > u; deterministic in u, O(log n) cdf calls."""
        if not 0.0 <= u < 1.0:
            raise ValueError(f"u must lie in [0, 1), got {u}")
        lo, hi = 0, self.n          # invariant: cdf(lo) <= u < cdf(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.cdf(mid) > u:
                hi = mid
            else:
                lo = mid
        return hi

    def sample_many(self, u) -> np.ndarray:
        """Vectorized `sample` over an array of uniforms."""
        u = np.asarray(u, dtype=np.float64)
        if ((u < 0.0) | (u >= 1.0)).any():
            raise ValueError("uniforms must lie in [0, 1)")
        lo = np.zeros(u.shape, dtype=np.int64)
        hi = np.full(u.shape, self.n, dtype=np.int64)
        while True:
            active = hi - lo > 1
            if not active.any():
                break
            mid = (lo + hi) // 2
            above = self.cdf(mid) > u
            hi = np.where(above & active, mid, hi)
            lo = np.where(~above & active, mid, lo)
        return hi
