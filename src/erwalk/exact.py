"""Exact moment theory: closed-form means, a mixed-moment propagator, and an
exhaustive small-horizon enumeration oracle.

The mean of the walk has an exact finite-n expression: with rate = p(beta+1),

    E[Xi_n] = 1 + rate * sum_{k=1}^{n-1} c_k(rate) / (k c_{k+1}(beta)),

which telescopes off the critical line beta = p/(1-p) and reduces to a
shifted harmonic sum on it.  Joint moments E[Xi_n^a Sigma_n^b] obey linear
one-step recursions that close over total degree, so a single propagator
reproduces every moment up to degree d exactly (up to rounding); each
recursion x_{n+1} = (1 + xi/n) x_n + f_n is solved in scaled space
x_n / c_n(xi), where the update is a plain cumulative sum.

The propagator streams over n in chunks of `_CHUNK` steps through buffers
allocated once per pass, so it holds O(_CHUNK) doubles whatever the
horizon.  Each sequential scan (the cumprods behind mu_n and c_n(xi), and
every moment's cumulative sum) has its own buffer: the carry, the last value
of the previous chunk, sits in slot 0 and the chunk's terms after it, and
the scan accumulates in place.  That keeps each add and multiply in the
order of a whole-array scan, so the streamed moments are bit-identical to
those of `_propagate_vectors`, which builds the full trajectories at once
and is kept as the oracle the pass is tested against.  The pass skips only
work whose result IEEE arithmetic makes exact: c_n(0) is 1 for every n, a
multiply by 1 (a weight of 1, or mu^0) is the identity, a sum of positive
terms started at 0 equals its first term, and moment (0, 1), which has no
inhomogeneous term, equals c_n(rate).  One pass serves both the moment
tables and the L2 diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .gammaratio import _lgam, c_values, log_poch, poch_ratio_sum
from .walkers import ModelParams, _check_checkpoints, _is_int, _sorted_unique

__all__ = [
    "MomentTable",
    "ExactLaw",
    "exact_mean_xi",
    "asymptotic_constant",
    "propagate_moments",
    "L2Diagnostic",
    "l2_diagnostic",
    "enumerate_law",
    "ProductBound",
    "lower_bound_prob_one",
    "ENUMERATION_MAX_STEPS",
]

ENUMERATION_MAX_STEPS = 16

# steps per chunk of the streamed propagator, which works on ~25 buffers of
# this length.  Three critical p at degree 3 with the L2 diagnostic, n = 1e6,
# best of 15 on a 2-core VM: 2^13 0.264 s, 2^14 0.248 s, 2^15 0.273 s,
# 2^16 0.305 s (per-chunk overhead below, cache misses above)
_CHUNK = 1 << 14


def exact_mean_xi(n: int, params: ModelParams) -> float:
    """Exact E[Xi_n], choosing the critical or telescoped branch."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if params.is_critical:
        # sum_{k=0}^{n-1} beta/(k+beta) = 1 + beta * sum_{k=1}^{n-1} 1/(k+beta)
        return 1.0 + params.beta * poch_ratio_sum(params.beta, params.beta, n)
    return 1.0 + params.rate * poch_ratio_sum(params.rate, params.beta, n)


def _mean_table(params: ModelParams, cps) -> np.ndarray:
    """exact_mean_xi at each checkpoint in `cps`.

    On the critical line every mean is a prefix of one harmonic sum, so the
    reciprocals 1/(k+beta) are formed once up to max(cps) and each checkpoint
    sums its prefix slice, with the bits of the per-call sum.
    """
    if not params.is_critical:
        return np.array([exact_mean_xi(int(c), params) for c in cps])
    beta = params.beta
    inv = np.arange(1, int(max(cps)), dtype=np.float64)
    inv += beta
    np.divide(1.0, inv, out=inv)  # in place: one array of max(cps) doubles
    return np.array([1.0 + beta * float(np.sum(inv[: int(c) - 1])) for c in cps])


def limit_mean_xi(params: ModelParams) -> float:
    """lim E[Xi_n] = beta/(beta - p(beta+1)) in the localized phase."""
    if not params.is_localized:
        raise ValueError("the mean has a finite limit only for beta > p/(1-p), off the line")
    return params.beta / (params.beta - params.rate)


def asymptotic_constant(params: ModelParams) -> float:
    """Amplitude C(p, beta) of the mean-growth law E[Xi_n] ~ C n^{p(beta+1)-beta}.

    C = Gamma(beta+1) / ((p(beta+1) - beta) * Gamma(p(beta+1))); defined for
    beta < p/(1-p), where the growth exponent is positive.
    """
    if params.is_critical or params.is_localized:
        raise ValueError(
            "amplitude is defined only below the critical line beta < p/(1-p)"
        )
    return math.exp(_lgam(params.beta + 1.0) - _lgam(params.rate)) / (
        params.rate - params.beta
    )


@dataclass
class MomentTable:
    """Joint moments m[a, b] = E[Xi_n^a Sigma_n^b] for a + b <= degree."""

    degree: int
    n: int
    m: np.ndarray  # (degree+1, degree+1), NaN outside the triangle

    @property
    def mean_xi(self) -> float:
        return float(self.m[1, 0])

    @property
    def mean_sigma(self) -> float:
        return float(self.m[0, 1])

    def scaled(self, a: int, b: int, beta: float) -> float:
        """m[a, b] / n^{b*beta}, the overflow-safe normalization of Sigma powers."""
        return float(self.m[a, b] * math.exp(-b * beta * math.log(self.n)))


def _moment_order(degree: int):
    # total degree ascending; within a degree, larger b first, since the
    # inhomogeneous part of (a, b) references (a-1, b+1) of the same degree
    return [
        (d - b, b) for d in range(1, degree + 1) for b in range(d, -1, -1)
    ]


def _check_moment_args(params: ModelParams, n_max: int, degree: int) -> None:
    for name, value in (("degree", degree), ("n_max", n_max)):
        if not (_is_int(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    # raw moments reach ~n^{degree*beta}; refuse inputs that cannot be held
    if degree * max(params.beta, params.rate, 1.0) * math.log10(max(n_max, 2)) > 290:
        raise OverflowError(
            "requested moments exceed double range; lower degree or n_max"
        )


def _propagate_vectors(params: ModelParams, n_max: int, degree: int):
    """Full moment trajectories: dict (a, b) -> array of E[Xi_n^a Sigma_n^b], n = 1..n_max."""
    _check_moment_args(params, n_max, degree)
    rate = params.rate
    k = np.arange(1, n_max, dtype=np.float64)
    mu_next = np.cumprod((k + params.beta) / k)  # mu_{n+1} for n = 1..n_max-1
    mu_pow = {0: np.ones(n_max - 1), 1: mu_next}
    for e in range(2, degree + 1):
        mu_pow[e] = mu_pow[e - 1] * mu_next
    pref = rate / (k * mu_next)  # pi_n / Sigma_n, n = 1..n_max-1

    cvec_cache: dict[float, np.ndarray] = {}

    def cvec(xi: float) -> np.ndarray:
        arr = cvec_cache.get(xi)
        if arr is None:
            arr = np.concatenate([[1.0], np.cumprod((k + xi) / k)])
            cvec_cache[xi] = arr
        return arr

    moments = {(0, 0): np.ones(n_max)}
    if n_max == 1:
        for (a, b) in _moment_order(degree):
            moments[(a, b)] = np.ones(1)
        return moments
    for (a, b) in _moment_order(degree):
        # one-step update: m_{n+1} = (1 + b*rate/n) m_n + f_n with f_n built
        # from the binomial expansion of (Xi+1)^a (Sigma+mu)^b
        f = np.zeros(n_max - 1)
        for i in range(a + 1):
            for j in range(b + 1):
                if (i, j) == (a, b) or (i, j) == (a, b - 1):
                    continue  # cancelled term / homogeneous term
                w = comb(a, i) * comb(b, j)
                f += w * mu_pow[b - j] * moments[(i, j + 1)][:-1]
        f *= pref
        cx = cvec(b * rate)
        z = 1.0 + np.concatenate([[0.0], np.cumsum(f / cx[1:])])
        vals = z * cx
        if not np.isfinite(vals[-1]):
            raise OverflowError(
                f"moment ({a},{b}) overflowed at n = {n_max}; lower degree or n_max"
            )
        moments[(a, b)] = vals
    return moments


def _stream_moments(params: ModelParams, n_max: int, degree: int, picks):
    """Every moment of `_propagate_vectors` at the 0-based indices `picks`.

    Walks the n_max - 1 steps in chunks of `_CHUNK` over buffers allocated
    once.  A chunk of L steps fills slots 0..L of each scan buffer: slot 0
    holds the carry (the previous chunk's last value, or the value at n = 1),
    slots 1..L the chunk's terms, and the scan accumulates in place.
    Returns (moments, cvals, sup_m2): moments maps (a, b) to its values at
    `picks`, cvals maps b to c_n(b rate) at `picks`, and sup_m2 is the
    maximum over all n of E[Sigma_n^2] / c_n(rate)^2 (None below degree 2).
    """
    _check_moment_args(params, n_max, degree)
    rate = params.rate
    order = _moment_order(degree)
    # f_n of (a, b) = pi_n/Sigma_n * sum of w mu_{n+1}^e m_n[key], from the
    # binomial expansion of (Xi+1)^a (Sigma+mu)^b, less the cancelled term
    # (a, b) and the homogeneous one (a, b-1)
    terms = {
        (a, b): [
            (comb(a, i) * comb(b, j), b - j, (i, j + 1))
            for i in range(a + 1)
            for j in range(b + 1)
            if (i, j) != (a, b) and (i, j) != (a, b - 1)
        ]
        for (a, b) in order
    }
    picks = np.asarray(picks, dtype=np.int64)
    by_index = np.argsort(picks, kind="stable")
    sorted_picks = picks[by_index]
    # every value at n = 1 is 1; each later index is written by one chunk
    moments = {key: np.ones(len(picks)) for key in [(0, 0), *order]}
    cvals = {b: np.ones(len(picks)) for b in range(degree + 1)}
    maxima = [1.0]

    size = min(_CHUNK, n_max - 1) + 1
    k_all = np.arange(1, size, dtype=np.float64)
    pref_all, tmp_all = np.empty(size - 1), np.empty(size - 1)
    pow_all = {e: np.empty(size - 1) for e in range(2, degree + 1)}
    # scan buffers: mu_n, c_n(b rate) for b >= 1 (c_n(0) is 1 for every n,
    # as (k + 0)/k is 1.0), and each moment's scaled partial sums, turned in
    # place into its values.  (0, 1) has no f-term, so its values are c_n(rate).
    mu_all = np.ones(size)
    c_all = {b: np.ones(size) for b in range(1, degree + 1)}
    m_all = {key: c_all[1] if key == (0, 1) else np.ones(size) for key in order}
    ratio_scans = [(mu_all, params.beta), *((c_all[b], b * rate) for b in c_all)]
    sum_carry = dict.fromkeys(order, 0.0)
    length = 0
    for s in range(0, n_max - 1, _CHUNK):
        length = min(_CHUNK, n_max - 1 - s)
        if s:  # the previous chunk was full, its last value in slot -1
            k_all += _CHUNK  # exact: integers below 2^53
            for buf, _ in ratio_scans:
                buf[0] = buf[-1]
        k = k_all[:length]
        for buf, xi in ratio_scans:
            scan = buf[: length + 1]
            np.add(k, xi, out=scan[1:])
            np.divide(scan[1:], k, out=scan[1:])
            np.cumprod(scan, out=scan)  # c_n(xi), one (k + xi)/k per step
        mu_next = mu_all[1 : length + 1]
        mu_pow = {1: mu_next}
        for e in range(2, degree + 1):
            mu_pow[e] = np.multiply(mu_pow[e - 1], mu_next, out=pow_all[e][:length])
        pref = pref_all[:length]  # pi_n / Sigma_n = rate / (k mu_{n+1})
        np.multiply(k, mu_next, out=pref)
        np.divide(rate, pref, out=pref)
        cx = {b: buf[: length + 1] for b, buf in c_all.items()}
        ext = {key: buf[: length + 1] for key, buf in m_all.items()}
        tmp = tmp_all[:length]
        for key in order:
            if not terms[key]:
                continue
            b = key[1]
            z = ext[key]
            f = z[1:]  # a sum of positive terms: it starts at the first
            for t, (w, e, src_key) in enumerate(terms[key]):
                out = tmp if t else f
                src = ext[src_key][:-1]
                # w * mu^e * src, skipping the exact factors w = 1 and mu^0
                if e and w != 1:
                    np.multiply(mu_pow[e], w, out=out)
                    np.multiply(out, src, out=out)
                elif e:
                    np.multiply(mu_pow[e], src, out=out)
                elif w != 1:
                    np.multiply(src, w, out=out)
                else:
                    np.copyto(out, src)
                if t:
                    f += tmp
            f *= pref
            if b:
                f /= cx[b][1:]
            z[0] = sum_carry[key]
            np.cumsum(z, out=z)
            sum_carry[key] = z[-1]
            z += 1.0
            if b:
                z *= cx[b]
        if degree >= 2:
            np.multiply(cx[1][1:], cx[1][1:], out=tmp)
            np.divide(ext[(0, 2)][1:], tmp, out=tmp)
            maxima.append(np.max(tmp))
        lo = np.searchsorted(sorted_picks, s + 1)
        hi = np.searchsorted(sorted_picks, s + length, side="right")
        dest, src = by_index[lo:hi], sorted_picks[lo:hi] - s
        for key in order:
            moments[key][dest] = ext[key][src]
        for b in cx:
            cvals[b][dest] = cx[b][src]
    for (a, b) in order:
        if not np.isfinite(m_all[(a, b)][length]):
            raise OverflowError(
                f"moment ({a},{b}) overflowed at n = {n_max}; lower degree or n_max"
            )
    sup_m2 = float(np.max(maxima)) if degree >= 2 else None
    return moments, cvals, sup_m2


def _moment_tables(moments, degree: int, cps) -> list[MomentTable]:
    """MomentTables at `cps` from moment values picked at cps - 1."""
    tables = []
    for t, cp in enumerate(cps):
        m = np.full((degree + 1, degree + 1), np.nan)
        for (a, b), vals in moments.items():
            if a + b <= degree:
                m[a, b] = vals[t]
        tables.append(MomentTable(degree=degree, n=int(cp), m=m))
    return tables


def propagate_moments(
    params: ModelParams, n_max: int, degree: int, checkpoints=None
) -> list[MomentTable]:
    """Exact joint moments for all a + b <= degree at the given checkpoints."""
    cps = _check_checkpoints(checkpoints, n_max)
    moments, _, _ = _stream_moments(params, n_max, degree, cps - 1)
    return _moment_tables(moments, degree, cps)


@dataclass
class L2Diagnostic:
    """Boundedness diagnostic of the normalized memory-sum martingale."""

    params: ModelParams
    n_max: int
    sup_m2: float
    bounded: bool
    last_decade_increase: float
    increment_exponent: float
    expected_exponent: float
    checkpoints: np.ndarray
    m2: np.ndarray


def l2_diagnostic(params: ModelParams, n_max: int) -> L2Diagnostic:
    """Compute E[M_n^2] up to n_max and classify the martingale as L2-bounded.

    E[M_n^2] = E[Sigma_n^2] / c_n(rate)^2 comes from the degree-2 propagator.
    The verdict compares the fitted log-log slope of the increments of
    E[Sigma_n^2 / c_n(2 rate)] against the summability boundary -1: the
    increments decay like n^{beta - rate - 1}, so slopes below -1 (with a
    0.02 resolution margin) mean a bounded martingale.  That reproduces the
    phase criterion beta < p/(1-p).
    """
    return _moments_and_l2(params, n_max, 2, np.empty(0, dtype=np.int64))[1]


def _moments_and_l2(params: ModelParams, n_max: int, degree: int, cps):
    """`propagate_moments(params, n_max, degree, cps)` and
    `l2_diagnostic(params, n_max)` from one streamed pass of degree
    max(degree, 2), whose first six moments are the degree-2 ones."""
    if n_max < 100:
        raise ValueError("n_max must be >= 100 for a meaningful diagnostic")
    l2_cps = _check_checkpoints(None, n_max)
    # tail increments of E[L_n] = E[Sigma_n^2]/c_n(2 rate), fitted over the
    # last two decades
    lo = max(2, n_max // 100)
    ns = _sorted_unique(np.geomspace(lo, n_max - 1, 64).astype(np.int64))
    decade_lo = max(1, n_max // 10)
    parts = [cps - 1, l2_cps - 1, ns, ns - 1, np.array([decade_lo - 1, n_max - 1])]
    moments, cvals, sup_m2 = _stream_moments(
        params, n_max, max(degree, 2), np.concatenate(parts)
    )
    bounds = np.cumsum([len(part) for part in parts])[:-1]
    m02 = np.split(moments[(0, 2)], bounds)
    c1 = np.split(cvals[1], bounds)
    c2 = np.split(cvals[2], bounds)
    tables = _moment_tables(
        {key: vals[: len(cps)] for key, vals in moments.items()}, degree, cps
    )
    inc = m02[2] / c2[2] - m02[3] / c2[3]
    valid = inc > 0
    slope = float(
        np.polyfit(np.log(ns[valid].astype(float)), np.log(inc[valid]), 1)[0]
    )
    decade = m02[4] / c1[4] ** 2
    diag = L2Diagnostic(
        params=params,
        n_max=n_max,
        sup_m2=sup_m2,
        bounded=slope < -1.0 - 0.02,
        last_decade_increase=float(decade[1] - decade[0]),
        increment_exponent=slope,
        expected_exponent=params.beta - params.rate - 1.0,
        checkpoints=l2_cps,
        m2=m02[1] / c1[1] ** 2,
    )
    return tables, diag


@dataclass
class ExactLaw:
    """Exact distribution of Xi_n on {1, ..., n}; probs[k] = P(Xi_n = k)."""

    n: int
    probs: np.ndarray  # length n+1, probs[0] = 0

    @property
    def mean(self) -> float:
        return float(np.dot(np.arange(self.n + 1), self.probs))


def enumerate_law(params: ModelParams, n: int):
    """Exhaustive path enumeration: exact law of Xi_n and exact joint moments
    to degree 3.

    Iterates all 2^(n-1) step histories, accumulating each path probability
    as the product of its one-step conditionals.  Capped at n = 16 (32768
    paths); this is the ground truth for differential tests.
    """
    if not 2 <= n <= ENUMERATION_MAX_STEPS:
        raise ValueError(f"enumeration supports 2 <= n <= {ENUMERATION_MAX_STEPS}")
    n_paths = 1 << (n - 1)
    # bits[:, t-1] = X_{t+1} for t = 1..n-1
    path_ids = np.arange(n_paths, dtype=np.uint32)
    rate = params.rate
    mu = c_values(params.beta, n + 1)  # mu_1..mu_{n+1}

    prob = np.ones(n_paths)
    xi = np.ones(n_paths, dtype=np.int64)
    sigma = np.ones(n_paths)
    for t in range(1, n):
        x = ((path_ids >> (t - 1)) & 1).astype(np.float64)
        pi = rate * sigma / (t * mu[t])  # mu[t] = mu_{t+1}
        prob *= np.where(x == 1.0, pi, 1.0 - pi)
        xi += x.astype(np.int64)
        sigma += x * mu[t]
    probs = np.bincount(xi, weights=prob, minlength=n + 1)
    law = ExactLaw(n=n, probs=probs)
    degree = 3
    m = np.full((degree + 1, degree + 1), np.nan)
    xif = xi.astype(np.float64)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            m[a, b] = np.sum(prob * xif**a * sigma**b)
    return law, MomentTable(degree=degree, n=n, m=m)


@dataclass
class ProductBound:
    """Certified bounds on P(the walk never moves again after its first step)."""

    params: ModelParams
    n_terms: int
    truncated: float  # product over times 2..n_terms
    certified_lower: float  # lower bound on the infinite product
    tail_mass: float  # exact sum of recall-to-time-1 probabilities beyond n_terms


def lower_bound_prob_one(params: ModelParams, n_terms: int) -> ProductBound:
    """Certified lower bound on P(Xi stays at 1 forever), beta > 0 only.

    P(Xi stays at 1) equals prod_{k>=2} (1 - p P(recall_k = 1)).  The factors
    up to n_terms are multiplied directly; the remainder is bounded below
    through the exact telescoped tail sum of P(recall_k = 1), which is
    summable only for beta > 0.
    """
    if not params.beta > 0.0:
        raise ValueError("the product bound needs beta > 0 (summable tail)")
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    beta = params.beta
    lg = _lgam(beta + 1.0)
    ks = np.arange(2, n_terms + 1, dtype=np.float64)
    # P(recall_k = 1) = (beta+1) / ((k-1) mu_k)
    log_pk = math.log(beta + 1.0) - np.log(ks - 1.0) - (log_poch(ks, beta) - lg)
    p_hit = params.p * np.exp(log_pk)
    log_trunc = float(np.log1p(-p_hit).astype(np.longdouble).sum())
    # exact tail: sum_{k>n} P(recall_k = 1) = (beta+1) Gamma(beta+1) Gamma(n) /
    # (beta Gamma(n+beta)), by the telescoping identity
    tail = (beta + 1.0) / beta * math.exp(lg - log_poch(float(n_terms), beta))
    t_star = params.p * float(np.exp(log_pk[-1]))  # largest remaining factor
    c_env = -math.log1p(-t_star) / t_star if t_star > 0 else 1.0
    certified = math.exp(log_trunc - c_env * params.p * tail)
    return ProductBound(
        params=params,
        n_terms=n_terms,
        truncated=math.exp(log_trunc),
        certified_lower=certified,
        tail_mass=tail,
    )
