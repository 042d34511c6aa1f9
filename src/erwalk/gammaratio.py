"""Numerically stable Gamma-ratio sequences and telescoping summation identities.

Everything in this package is built on the normalized rising factorial

    c_n(xi) = Gamma(n + xi) / (Gamma(n) * Gamma(xi + 1)),   n >= 1, xi > -1,

which satisfies c_1 = 1 and c_{n+1}/c_n = (n + xi)/n.  The memory weights of
the walk are mu_n = c_n(beta).  Two evaluation paths are provided:

* a recurrence path (`RatioSeq`, `poch_ratio`) that multiplies the one-step
  ratios, switching to log-space accumulation past a threshold so that large
  exponents cannot overflow, and
* a direct path (`log_poch`, `log_poch_ratio`) that forms the log-Gamma
  difference through a cancellation-free Stirling expansion, O(1) per call.

Both paths are accurate to ~1e-13 relative for n <= 1e7, |xi| <= 10; the test
suite pins them against an arbitrary-precision oracle.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import gammaln

__all__ = [
    "RatioSeq",
    "ratio_seq",
    "poch_ratio",
    "log_poch",
    "log_poch_ratio",
    "gamma_ratio_sum",
    "poch_ratio_sum",
]

# Below this argument the plain gammaln difference is already cancellation-free.
_DIRECT_MIN = 32.0

# Stirling tail J(z) = sum B_2k / (2k(2k-1) z^{2k-1}); five terms give ~1e-16
# absolute error for z >= 32.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


def _check_xi(xi: float) -> float:
    xi = float(xi)
    if not xi > -1.0:
        raise ValueError(f"exponent must be > -1, got {xi}")
    return xi


def _check_n(n) -> int:
    m = int(n)
    if m != n or m < 1:
        raise ValueError(f"index must be a positive integer, got {n!r}")
    return m


def _stirling_tail(z):
    zi = 1.0 / z
    z2 = zi * zi
    s = 0.0
    for coef in reversed(_STIRLING):
        s = s * z2 + coef
    return s * zi


def log_poch(n, xi: float):
    """log of the rising-factorial ratio Gamma(n + xi) / Gamma(n).

    `n` may be a scalar or ndarray of values >= 1 (floats allowed); `xi` is
    passed separately so the sum n + xi is never rounded before use.  Stable
    for n up to at least 1e8.
    """
    if isinstance(n, (int, float)):
        n = float(n)
        if n < _DIRECT_MIN:
            return math.lgamma(n + xi) - math.lgamma(n)
        return (
            xi * math.log(n)
            + (n + (xi - 0.5)) * math.log1p(xi / n)
            - xi
            + _stirling_tail(n + xi)
            - _stirling_tail(n)
        )
    n = np.asarray(n, dtype=np.float64)
    scalar = n.ndim == 0
    n = np.atleast_1d(n)
    out = np.empty(n.shape, dtype=np.float64)
    small = n < _DIRECT_MIN
    if small.any():
        ns = n[small]
        out[small] = gammaln(ns + xi) - gammaln(ns)
    big = ~small
    if big.any():
        nb = n[big]
        out[big] = (
            xi * np.log(nb)
            + (nb + (xi - 0.5)) * np.log1p(xi / nb)
            - xi
            + _stirling_tail(nb + xi)
            - _stirling_tail(nb)
        )
    return float(out[0]) if scalar else out


def log_poch_ratio(n, xi: float):
    """log c_n(xi): direct (non-recurrent) evaluation via log-Gamma differences."""
    xi = _check_xi(xi)
    return log_poch(n, xi) - gammaln(xi + 1.0)


class RatioSeq:
    """Lazily extendable sequence c_1(xi), c_2(xi), ... built by recurrence.

    Values up to `linear_threshold` are accumulated by direct multiplication;
    beyond it the recurrence runs in log space (the one-step ratio becomes
    log1p(xi/n)) with an extended-precision carry so that no error builds up
    over millions of terms.  Extension is synchronized; reads of already
    materialized entries are safe from concurrent threads.
    """

    #: entries beyond this are computed on the fly instead of cached
    MAX_CACHE = 1 << 23

    def __init__(self, xi: float, linear_threshold: int = 10_000):
        self.xi = _check_xi(xi)
        self.linear_threshold = int(linear_threshold)
        self._lock = threading.Lock()
        self._lin = np.ones(1)              # c_1 = 1
        self._log = np.zeros(1)
        self._acc = np.longdouble(0.0)      # exact log c at cache end

    def __len__(self) -> int:
        return len(self._log)

    def _extend(self, n: int) -> None:
        # Each extension rebuilds the tables from c_1.  cumprod and cumsum
        # run in order, so the entries have the bits of a cold `values(n)`
        # whatever lengths earlier callers asked for; chaining a new chunk
        # onto the last entry would not.  Doubling keeps the total work linear.
        with self._lock:
            have = len(self._log)
            if have >= n:
                return
            target = min(max(2 * have, n), self.MAX_CACHE)
            k = np.arange(1, target, dtype=np.float64)
            klin = k[: max(self.linear_threshold, 1) - 1]
            self._lin = np.concatenate([[1.0], np.cumprod((klin + self.xi) / klin)])
            cum = np.cumsum(np.log1p(self.xi / k).astype(np.longdouble))
            self._acc = cum[-1]
            self._log = np.concatenate([[0.0], cum.astype(np.float64)])

    def _tail_log(self, n: int) -> float:
        # stream past the cache cap without storing
        acc = self._acc
        pos = len(self._log)
        chunk = 1 << 20
        while pos < n:
            hi = min(pos + chunk, n)
            k = np.arange(pos, hi, dtype=np.float64)
            acc = acc + np.log1p(self.xi / k).astype(np.longdouble).sum()
            pos = hi
        return float(acc)

    def log_value(self, n) -> float:
        n = _check_n(n)
        if n > self.MAX_CACHE:
            self._extend(self.MAX_CACHE)
            return self._tail_log(n)
        if n > len(self._log):
            self._extend(n)
        return float(self._log[n - 1])

    def value(self, n) -> float:
        n = _check_n(n)
        if n <= self.linear_threshold:
            if n > len(self._lin):
                self._extend(n)
            return float(self._lin[n - 1])
        return math.exp(self.log_value(n))

    def values(self, n) -> np.ndarray:
        """Array [c_1, ..., c_n] (copy)."""
        n = _check_n(n)
        if n > self.MAX_CACHE:
            raise ValueError(f"bulk extraction capped at {self.MAX_CACHE} entries")
        self._extend(n)
        if n <= len(self._lin):
            return self._lin[:n].copy()
        out = np.exp(self._log[:n])
        out[: len(self._lin)] = self._lin
        return out

    def log_values(self, n) -> np.ndarray:
        n = _check_n(n)
        if n > self.MAX_CACHE:
            raise ValueError(f"bulk extraction capped at {self.MAX_CACHE} entries")
        self._extend(n)
        return self._log[:n].copy()


_seq_cache: dict[float, RatioSeq] = {}
_seq_cache_lock = threading.Lock()
_SEQ_CACHE_MAX = 64


def ratio_seq(xi: float) -> RatioSeq:
    """Shared RatioSeq for `xi`, created on first use."""
    xi = _check_xi(xi)
    with _seq_cache_lock:
        seq = _seq_cache.get(xi)
        if seq is None:
            if len(_seq_cache) >= _SEQ_CACHE_MAX:
                _seq_cache.clear()
            seq = RatioSeq(xi)
            _seq_cache[xi] = seq
    return seq


def poch_ratio(n, xi: float) -> float:
    """c_n(xi) = Gamma(n+xi) / (Gamma(n) Gamma(xi+1)), by cached recurrence.

    Relative error <= 1e-12 for n <= 1e7 and |xi| <= 10.  Raises ValueError
    for xi <= -1 or n < 1.
    """
    return ratio_seq(xi).value(n)


def gamma_ratio_sum(a: float, b: float, n_lo: int, n_hi: int) -> float:
    """Closed form of  sum_{k=n_lo}^{n_hi} Gamma(k+a) / Gamma(k+b).

    Telescopes to
        [Gamma(n_hi+1+a)/Gamma(n_hi+b) - Gamma(n_lo+a)/Gamma(n_lo-1+b)] / (a-b+1)
    with the convention 1/Gamma(0) = 0 (the lower term vanishes when
    n_lo - 1 + b == 0).  Requires a > -1, b >= 0, b != a + 1.
    """
    a = float(a)
    b = float(b)
    if not a > -1.0:
        raise ValueError(f"need a > -1, got {a}")
    if b < 0.0:
        raise ValueError(f"need b >= 0, got {b}")
    if b == a + 1.0:
        raise ValueError("telescoping denominator a - b + 1 vanishes for b = a + 1")
    n_lo = _check_n(n_lo)
    n_hi = _check_n(n_hi)
    if n_hi < n_lo:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo} > {n_hi}")
    upper = math.exp(log_poch(n_hi, 1.0 + a) - log_poch(n_hi, b))
    if (n_lo - 1) + b == 0.0:
        lower = 0.0
    elif n_lo == 1:
        # Gamma(1+a)/Gamma(b); keep b away from forming b - 1 in floats,
        # which would absorb tiny b onto the Gamma pole
        lower = math.exp(math.lgamma(1.0 + a) - math.lgamma(b))
    else:
        log_lower = (
            log_poch(n_lo, a)
            + math.log(n_lo - 1.0)
            - log_poch(n_lo - 1.0, b)
        )
        lower = math.exp(log_lower)
    return (upper - lower) / (a - b + 1.0)


def poch_ratio_sum(x: float, y: float, n: int) -> float:
    """sum_{k=1}^{n-1} c_k(x) / (k * c_{k+1}(y)), in closed form.

    For x != y the sum telescopes to (c_n(x)/c_n(y) - 1) / (x - y); for x == y
    it is the shifted harmonic sum of 1/(k+x).  This is the summation behind
    the exact mean of the walk (x = p(beta+1), y = beta).
    """
    x = _check_xi(x)
    y = _check_xi(y)
    n = _check_n(n)
    if n == 1:
        return 0.0
    if x == y:
        k = np.arange(1, n, dtype=np.float64)
        return float(np.sum(1.0 / (k + x)))
    log_ratio = (
        log_poch(n, x) - log_poch(n, y) + gammaln(y + 1.0) - gammaln(x + 1.0)
    )
    return math.expm1(log_ratio) / (x - y)
