"""The power-law memory distribution of the walk.

At history length n the recalled time is drawn from {1, ..., n} with

    P(recall = k) = (beta + 1)/n * mu_k / mu_{n+1},   mu_k = c_k(beta),

so recall is biased toward recent steps for beta > 0, early steps for
beta < 0, and uniform at beta = 0.  The CDF has the closed form
m * mu_{m+1} / (n * mu_{n+1}), which makes O(log n) inverse-transform
sampling possible with O(1) memory even at n = 1e8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gammaratio import _check_direct_xi, log_poch

__all__ = ["MemoryLaw"]


@dataclass(frozen=True)
class MemoryLaw:
    """Distribution of the recalled index given memory exponent and history length.

    beta must lie in (-1, 1e6]: its Gamma ratios take the direct
    path of `gammaratio`, which loses its digits past that.
    """

    beta: float
    n: int

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ValueError(f"beta must be > -1, got {self.beta}")
        _check_direct_xi(self.beta)
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"history length must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @cached_property
    def _log_norm(self) -> float:
        """log Gamma(n + 1 + beta) / Gamma(n + 1), by the array path of
        `log_poch` that the numerators take, so that cdf(n) is exactly 1."""
        return log_poch(np.asarray(self.n + 1.0), self.beta)

    def pmf(self, k):
        """P(recall = k); k scalar or integer array, zero off {1, ..., n}.

        Values lie in [0, 1]: n = 1 is the point mass at 1, exactly, and
        rounding in the Gamma ratios is clamped so it never exceeds 1.  A
        scalar k gives the float that the array [k] gives.  Each k must be an
        integer, of any dtype (2.0 gives the value of 2); 2.5 raises.
        """
        scalar = np.ndim(k) == 0
        k = _integers(k, "pmf")
        out = np.zeros(k.shape, dtype=np.float64)
        ok = (k >= 1) & (k <= self.n)
        if self.n == 1:
            out[ok] = 1.0
        elif ok.any():
            lw = log_poch(k[ok].astype(np.float64), self.beta)
            out[ok] = np.minimum(
                (self.beta + 1.0) / self.n * np.exp(lw - self._log_norm), 1.0
            )
        return float(out[0]) if scalar else out

    def cdf(self, m):
        """P(recall <= m) via the telescoped partial sum, in [0, 1]; exact 0 at 0,
        1 at n.  A scalar m gives the float that the array [m] gives; each m
        must be an integer, of any dtype."""
        scalar = np.ndim(m) == 0
        m = _integers(m, "cdf")
        if (m < 0).any() or (m > self.n).any():
            raise ValueError("cdf argument must lie in {0, ..., n}")
        mp = m.astype(np.float64)  # m = 0 gives 0 * exp(...) = 0 exactly
        lw = log_poch(mp + 1.0, self.beta)
        out = np.minimum(mp / self.n * np.exp(lw - self._log_norm), 1.0)
        return float(out[0]) if scalar else out

    def sample(self, u):
        """Smallest m with cdf(m) > u, for one uniform (an int) or an array of
        them; deterministic in u, O(log n) cdf calls on the whole array."""
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if not ((u >= 0.0) & (u < 1.0)).all():
            raise ValueError("uniforms must lie in [0, 1)")
        lo = np.zeros(u.shape, dtype=np.int64)  # invariant: cdf(lo) <= u < cdf(hi)
        hi = np.full(u.shape, self.n, dtype=np.int64)
        while True:
            active = hi - lo > 1
            if not active.any():
                break
            mid = (lo + hi) // 2
            above = self.cdf(mid) > u
            hi = np.where(above & active, mid, hi)
            lo = np.where(~above & active, mid, lo)
        return int(hi[0]) if scalar else hi


def _integers(x, name: str) -> np.ndarray:
    """`x` as a 1-d array; a non-integral entry (2.5, nan, inf) raises."""
    x = np.atleast_1d(np.asarray(x))
    if x.dtype.kind not in "biu" and not np.all(np.isfinite(x) & (np.trunc(x) == x)):
        raise ValueError(f"{name} argument must be integral, got {x}")
    return x
