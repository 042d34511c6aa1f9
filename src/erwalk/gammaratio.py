"""Numerically stable Gamma-ratio sequences and telescoping summation identities.

Everything in this package is built on the normalized rising factorial

    c_n(xi) = Gamma(n + xi) / (Gamma(n) * Gamma(xi + 1)),   n >= 1, xi > -1,

which satisfies c_1 = 1 and c_{n+1}/c_n = (n + xi)/n.  The memory weights of
the walk are mu_n = c_n(beta).  Two evaluation paths are provided:

* a recurrence path (`c_values`, `poch_ratio`) that multiplies the one-step
  ratios, switching to log-space accumulation past a threshold so that large
  exponents cannot overflow; it is stateless, so callers that need the
  weights more than once (the walkers) compute the array once and pass it
  on, and
* a direct path (`log_poch`, `log_poch_ratio`) that forms the log-Gamma
  difference through a cancellation-free Stirling expansion, O(1) per call.

Both paths are accurate to ~1e-13 relative for n <= 1e7, |xi| <= 10; the test
suite pins them against an arbitrary-precision oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "c_values",
    "poch_ratio",
    "log_poch",
    "log_poch_ratio",
    "gamma_ratio_sum",
    "poch_ratio_sum",
]

# c_values multiplies the one-step ratios up to this index, then sums logs
# in chunks of _LOG_CHUNK terms (2^15: 20 ms at n = 1e6 on a 2-core Xeon VM,
# against 33 ms for one whole-array pass)
_LINEAR_MAX = 10_000
_LOG_CHUNK = 1 << 15

# Below this argument the plain gammaln difference is already cancellation-free.
_DIRECT_MIN = 32.0

# Stirling tail J(z) = sum B_2k / (2k(2k-1) z^{2k-1}); five terms give ~1e-16
# absolute error for z >= 32.
_S1, _S2, _S3, _S4, _S5 = (
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
    # Horner from the last coefficient, one multiply-add per term
    zi = 1.0 / z
    z2 = zi * zi
    return ((((_S5 * z2 + _S4) * z2 + _S3) * z2 + _S2) * z2 + _S1) * zi


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


def _c_carried(c_first, xi: float, k: np.ndarray) -> np.ndarray:
    """c_n(xi) for n = k[0], ..., k[-1] + 1, scanned on from c_first = c_{k[0]}.

    One multiply by (j + xi)/j per j in the float array k, in order: the
    start of `c_values`, and how a chunked scan carries its last value on.
    """
    return np.cumprod(np.concatenate(([c_first], (k + xi) / k)))


def c_values(xi: float, n) -> np.ndarray:
    """Array [c_1(xi), ..., c_n(xi)] by recurrence from c_1 = 1.

    Entries up to _LINEAR_MAX multiply the one-step ratios (k + xi)/k; later
    ones are exp of the extended-precision running sum of log1p(xi/k), also
    from k = 1, so no error builds up over millions of terms.  Both scans
    run in order, so every entry depends on (xi, its index) alone, not on n.
    The sum runs in chunks of _LOG_CHUNK terms, each adding the carry to its
    first term: the same additions in the same order as one whole-array
    cumsum, in cache-sized scratch.
    """
    xi = _check_xi(xi)
    n = _check_n(n)
    out = np.empty(n)
    m = min(n, _LINEAR_MAX)
    out[:m] = _c_carried(1.0, xi, np.arange(1, m, dtype=np.float64))
    if n <= _LINEAR_MAX:
        return out
    log_c = np.longdouble(0.0)  # log c_1
    for lo in range(1, n, _LOG_CHUNK):
        hi = min(lo + _LOG_CHUNK, n)
        k = np.arange(lo, hi, dtype=np.float64)
        s = np.log1p(xi / k).astype(np.longdouble)
        s[0] += log_c
        np.cumsum(s, out=s)  # s[i] = log c_{lo+i+1}
        log_c = s[-1]
        if hi > _LINEAR_MAX:
            a = max(lo, _LINEAR_MAX)
            out[a:hi] = np.exp(s[a - lo :].astype(np.float64))
    return out


def poch_ratio(n, xi: float) -> float:
    """c_n(xi) = Gamma(n+xi) / (Gamma(n) Gamma(xi+1)), by recurrence (`c_values`).

    Relative error <= 1e-12 for n <= 1e7 and |xi| <= 10; the work and memory
    are O(n).  Raises ValueError for xi <= -1 or n < 1.
    """
    return float(c_values(xi, n)[-1])


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
    """sum_{k=1}^{n-1} c_k(x) / (k * c_{k+1}(y)), in closed form unless x is near y.

    For x != y the sum telescopes to (c_n(x)/c_n(y) - 1) / (x - y).  That
    difference cancels as x nears y: against a 60-digit sum at n <= 1e5 its
    relative error is about 1e-15 / |x - y|, 1e-10 at |x - y| = 1e-5.  So
    below |x - y| = 1e-3 the terms c_k(x)/c_k(y) / (k + y), with c_k(x)/c_k(y)
    = prod_{j<k} (1 + (x-y)/(j+y)), are summed directly, each product as exp
    of a running sum of log1p (error about 1e-16).  At x == y every product is
    exactly 1, which leaves the shifted harmonic sum of 1/(k+x).  This is the
    summation behind the exact mean of the walk (x = p(beta+1), y = beta).
    """
    x = _check_xi(x)
    y = _check_xi(y)
    n = _check_n(n)
    if n == 1:
        return 0.0
    if abs(x - y) < 1e-3:
        inv = 1.0 / (np.arange(1, n, dtype=np.float64) + y)
        log_w = np.cumsum(np.log1p((x - y) * inv[:-1]))
        return float(np.sum(np.exp(np.concatenate(([0.0], log_w))) * inv))
    log_ratio = (
        log_poch(n, x) - log_poch(n, y) + gammaln(y + 1.0) - gammaln(x + 1.0)
    )
    return math.expm1(log_ratio) / (x - y)
