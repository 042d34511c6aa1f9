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
suite pins them against an arbitrary-precision oracle.  The direct path's
log-Gamma difference cancels as xi grows (`MemoryLaw.pmf` is off by 4.4e-10
relative at xi = 1e6, 3e-8 at 1e7 and 3.3e-3 at 1e12), so `log_poch_ratio`,
the closed form of `poch_ratio_sum` and `memory.MemoryLaw` refuse an
exponent above _DIRECT_MAX_XI; `log_poch` itself does not check.  Its
scalar path is one closure per exponent, `_log_poch_scalar(xi)`, cached;
the branching sampler, the hot scalar caller, holds that closure and calls
it directly (about ten times a particle), without `log_poch`'s dispatch.

log Gamma is mostly `_lgam`, a port of Cephes `lgam` (Moshier, *Methods and
Programs for Mathematical Functions*, 1989) for positive arguments: the
function that `scipy.special.gammaln` evaluates, giving the same bits (the
tests check both on a pinned grid), without loading `scipy.special`, which
was most of every command's start-up.  Two places still call
`math.lgamma`, whose bits differ: `log_poch` on a scalar n below 32, and
`gamma_ratio_sum` at n_lo = 1.  So a scalar n and the array [n] can give
`log_poch` different bits (above 32 too, where `math.log` and `np.log`
can differ); a caller that divides one by the other takes one path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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

# Below this argument the plain log-Gamma difference is already cancellation-free.
_DIRECT_MIN = 32.0
#: the largest exponent the direct path takes (module docstring)
_DIRECT_MAX_XI = 1e6

# Stirling tail J(z) = sum B_2k / (2k(2k-1) z^{2k-1}); five terms give ~1e-16
# absolute error for z >= 32.
_S1, _S2, _S3, _S4, _S5 = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


# Cephes lgam: A is the Stirling series in 1/x^2 above 13, B/C the rational
# function of log Gamma on [2, 3); LS2PI = log sqrt(2 pi)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,  # Cephes p1evl's implied leading coefficient; 1.0 * x is exact
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305


def _polevl(x: float, coef) -> float:
    """Cephes polevl: the polynomial with coefficients `coef`, highest power
    first, by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


@lru_cache(maxsize=1024)  # the array callers repeat their arguments call after call
def _lgam(x: float) -> float:
    """log Gamma(x) for x > 0, Cephes `lgam` operation for operation.

    Below 13 the argument is shifted into [2, 3) by the recurrence, whose
    product z is carried apart, and log z is added to the B/C rational
    function there; above, the Stirling series with the A coefficients
    (two terms from 1000 on, none past 1e8).  x <= 0 and NaN raise; +inf
    gives inf, as Cephes does.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log Gamma is ported for x > 0 only, got {x}")
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    return q + _polevl(p, _LGAM_A) / x


def _check_xi(xi: float) -> float:
    xi = float(xi)
    if not xi > -1.0:
        raise ValueError(f"exponent must be > -1, got {xi}")
    return xi


def _check_direct_xi(xi: float) -> None:
    """Raise unless the direct path keeps its digits at exponent xi."""
    if xi > _DIRECT_MAX_XI:
        raise ValueError(
            f"exponent {xi:g} exceeds {_DIRECT_MAX_XI:g}, the largest the direct"
            " Gamma-ratio path takes before its log-Gamma difference loses digits"
        )


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


@lru_cache(maxsize=64)  # the branching sampler asks for one exponent per call
def _log_poch_scalar(xi: float):
    """`log_poch`'s scalar path at exponent xi, as a closure lp(n) for a float n.

    Below _DIRECT_MIN it is the `math.lgamma` difference; above, the Stirling
    expression with both tails (`_stirling_tail`) inlined, operation for
    operation, so lp(n) and log_poch(n, xi) are the same bits.  Callers that
    evaluate one exponent many times (the branching sampler) hold the closure
    and skip the per-call dispatch.
    """
    xi = float(xi)
    xi_half = xi - 0.5
    direct_min = _DIRECT_MIN
    s1, s2, s3, s4, s5 = _S1, _S2, _S3, _S4, _S5
    lgamma, log, log1p = math.lgamma, math.log, math.log1p

    def lp(n: float) -> float:
        if n < direct_min:
            return lgamma(n + xi) - lgamma(n)
        z = n + xi
        zi = 1.0 / z
        z2 = zi * zi
        ni = 1.0 / n
        n2 = ni * ni
        return (
            xi * log(n)
            + (n + xi_half) * log1p(xi / n)
            - xi
            + ((((s5 * z2 + s4) * z2 + s3) * z2 + s2) * z2 + s1) * zi
            - ((((s5 * n2 + s4) * n2 + s3) * n2 + s2) * n2 + s1) * ni
        )

    return lp


def log_poch(n, xi: float):
    """log of the rising-factorial ratio Gamma(n + xi) / Gamma(n).

    `n` may be a scalar or ndarray of values >= 1 (floats allowed); `xi` is
    passed separately so the sum n + xi is never rounded before use.  Stable
    for n up to at least 1e8.  A scalar n goes through `_log_poch_scalar`.
    """
    if isinstance(n, (int, float)):
        return _log_poch_scalar(float(xi))(float(n))
    n = np.asarray(n, dtype=np.float64)
    scalar = n.ndim == 0
    n = np.atleast_1d(n)
    out = np.empty(n.shape, dtype=np.float64)
    small = n < _DIRECT_MIN
    if small.any():
        # a scalar loop: the package's callers pass at most 31 such entries
        out[small] = [_lgam(v + xi) - _lgam(v) for v in n[small].tolist()]
    big = ~small
    if big.any():
        out[big] = _log_poch_array(n[big], xi)
    return float(out[0]) if scalar else out


def _log_poch_array(x: np.ndarray, xi: float) -> np.ndarray:
    """`log_poch`'s Stirling expression over a float array x >= _DIRECT_MIN,
    summed term by term in the order `_log_poch_scalar`'s closure sums it."""
    out = xi * np.log(x)
    out += (x + (xi - 0.5)) * np.log1p(xi / x)
    out -= xi
    out += _stirling_tail(x + xi)
    out -= _stirling_tail(x)
    return out


def log_poch_ratio(n, xi: float):
    """log c_n(xi): direct (non-recurrent) evaluation via log-Gamma differences,
    for -1 < xi <= _DIRECT_MAX_XI."""
    xi = _check_xi(xi)
    _check_direct_xi(xi)
    return log_poch(n, xi) - _lgam(xi + 1.0)


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
    k = np.arange(1, m, dtype=np.float64)
    out[:m] = np.cumprod(np.concatenate(([1.0], (k + xi) / k)))
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
    exactly 1, which leaves the shifted harmonic sum of 1/(k+x).  The closed
    form takes x and y up to _DIRECT_MAX_XI; the direct sum takes any.  This
    is the summation behind the exact mean of the walk (x = p(beta+1),
    y = beta).
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
    _check_direct_xi(max(x, y))
    log_ratio = (
        log_poch(n, x) - log_poch(n, y) + _lgam(y + 1.0) - _lgam(x + 1.0)
    )
    return math.expm1(log_ratio) / (x - y)
