"""Multi-type branching process that dominates the walk's set of occupied times.

A particle of type k independently begets at most one child of each type
y > k, with probability q(k, y) = p(beta+1)/(y-1) * mu_k/mu_y.  The expected
number of children is the type-independent constant m = p(beta+1)/beta, so
the process is (sub)critical exactly when beta >= p/(1-p).  The type space
is unbounded; sampling truncates at a certified tail mass epsilon using the
closed-form partial sums, and realizes the independent Bernoulli field by
exact skip sampling (geometric jumps under the running envelope
q(k, pos+1) >= q(k, y) for y > pos), which has the same law as scanning
every type.  The cutoff is solved from the Stirling form of log mu_K rather
than searched for, so a particle costs O(children) skip steps plus a handful
of scalar log_poch evaluations (one for log mu_k, shared with the sampler,
and about two for the cutoff, whatever its size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammaratio import log_poch
from .memory import MemoryLaw

__all__ = [
    "BranchingParams",
    "Population",
    "BranchingResult",
    "offspring_rate",
    "offspring_partial_sum",
    "offspring_cutoff",
    "sample_offspring",
    "simulate",
    "ModifiedWalkResult",
    "simulate_modified_walk",
]


@dataclass(frozen=True)
class BranchingParams:
    """Branching configuration; beta > 0 is required for a finite mean."""

    p: float
    beta: float
    epsilon: float = 1e-8
    max_gen: int = 200
    max_pop: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        for cap in (self.max_gen, self.max_pop):
            if not isinstance(cap, (int, np.integer)) or cap < 1:
                raise ValueError(f"max_gen and max_pop must be integers >= 1, got {cap!r}")

    @property
    def rate(self) -> float:
        return self.p * (1.0 + self.beta)

    @property
    def mean_offspring(self) -> float:
        """m = p(beta+1)/beta, the expected children per particle."""
        return self.rate / self.beta


def _log_q(k: int, y, params: BranchingParams):
    """log q(k, y) for y scalar or array > k."""
    lmu_k = log_poch(float(k), params.beta)
    if isinstance(y, (int, float)):
        return (
            math.log(params.rate)
            - math.log(y - 1.0)
            + lmu_k
            - log_poch(float(y), params.beta)
        )
    y = np.asarray(y, dtype=np.float64)
    return (
        math.log(params.rate)
        - np.log(y - 1.0)
        + lmu_k
        - log_poch(y, params.beta)
    )


def offspring_rate(k: int, y: int, params: BranchingParams) -> float:
    """q(k, y) = p(beta+1)/(y-1) * mu_k/mu_y, the chance of a type-y child."""
    if not 1 <= k < y:
        raise ValueError(f"need 1 <= k < y, got k={k}, y={y}")
    return math.exp(_log_q(k, float(y), params))


def offspring_partial_sum(k: int, upto: int, params: BranchingParams) -> float:
    """Closed form of sum_{y=k+1}^{upto} q(k, y); increases to m as upto grows."""
    if upto <= k:
        raise ValueError(f"need upto > k, got k={k}, upto={upto}")
    log_ratio = log_poch(float(k), params.beta) - log_poch(float(upto), params.beta)
    return -params.mean_offspring * math.expm1(log_ratio)


def _offspring_tail(k: int, upto, params: BranchingParams):
    """m - partial sum: expected offspring mass on types > upto."""
    if isinstance(upto, (int, float)):
        log_ratio = log_poch(float(k), params.beta) - log_poch(float(upto), params.beta)
        return params.mean_offspring * math.exp(log_ratio)
    upto = np.asarray(upto, dtype=np.float64)
    log_ratio = log_poch(float(k), params.beta) - log_poch(upto, params.beta)
    return params.mean_offspring * np.exp(log_ratio)


#: largest representable particle type; for very small beta the certified
#: cutoff can exceed any integer horizon, in which case sampling truncates
#: here and the (larger) discarded mass is still recorded per draw
MAX_TYPE = 1 << 62

# below this the float tail is monotone in K and the Stirling guess is close
# to the cutoff; from here up the search starts after two Newton steps
_NEWTON_MIN = float(1 << 43)


def _particle_type(k) -> int:
    """Particle type k as a Python int; numpy integers pass, anything else raises."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return int(k)


def offspring_cutoff(k: int, params: BranchingParams) -> int:
    """Certified truncation point K for a type-k particle (at most MAX_TYPE).

    The expected discarded mass is tail(K) = m * mu_k/mu_K.  The result is
    certified, tail(K) <= epsilon, and locally minimal, tail(K-1) > epsilon
    when K > k+1; or it is MAX_TYPE with tail(MAX_TYPE) > epsilon.  It is the
    smallest such K wherever the float tail is monotone in K, which holds
    for K well below about 1e13.  Beyond that log_poch(K) moves by
    rounding-level amounts, and another certified K within a few float
    spacings of it may be returned.

    K solves log_poch(K, beta) >= log_poch(k, beta) + log(m/epsilon) in closed
    form: the guess exp(target/beta) - (beta-1)/2 from log Gamma(K+beta)/Gamma(K)
    ~ beta log(K + (beta-1)/2), then a gallop and bisection on the integers
    with the exact predicate tail(K) > epsilon.  Below 2**43, where the float
    tail is monotone, the search starts from the guess itself.  Only from
    2**43 up do two Newton steps refine the guess first; they fix which
    certified K the search settles on where the tail is not monotone.
    """
    k = _particle_type(k)
    return _cutoff_search(params)(k, log_poch(float(k), params.beta))[0]


def _cutoff_search(params: BranchingParams):
    """offspring_cutoff's search as cutoff(k, log_poch(k)) -> (K, log_poch(K))."""
    beta = params.beta
    m = params.mean_offspring
    eps = params.epsilon
    log_m_eps = math.log(m / eps)
    shift = 0.5 * (beta - 1.0)
    lp, exp = log_poch, math.exp

    def probe(K: int, lmu_k: float):  # tail(K) > epsilon, as _offspring_tail forms it
        lp_K = lp(float(K), beta)
        return m * exp(lmu_k - lp_K) > eps, lp_K

    def cutoff(k: int, lmu_k: float):
        target = lmu_k + log_m_eps
        if target / beta > 44.0:  # exp(44) > 2**62: the cutoff is past the cap
            return MAX_TYPE, lp(float(MAX_TYPE), beta)
        x = min(max(exp(target / beta) - shift, float(k + 1)), float(MAX_TYPE))
        if x >= _NEWTON_MIN:
            for _ in range(2):
                # d/dK log_poch(K, beta) ~ beta / (K + (beta-1)/2)
                x -= (lp(x, beta) - target) * (x + shift) / beta
                x = min(max(x, float(k + 1)), float(MAX_TYPE))
        guess = max(math.ceil(x), k + 1)  # float(k + 1) may round below k + 1
        # bracket: too short at lo - 1 and not at hi, whose log_poch is lp_hi
        step = 1
        short, lp_hi = probe(guess, lmu_k)
        if short:
            lo = guess + 1
            hi = min(guess + step, MAX_TYPE)
            while True:
                short, lp_hi = probe(hi, lmu_k)
                if not short:
                    break
                if hi >= MAX_TYPE:
                    return MAX_TYPE, lp_hi
                lo = hi + 1
                step *= 2
                hi = min(guess + step, MAX_TYPE)
        else:
            hi = guess
            lo = max(guess - step, k + 1)
            while lo < hi:
                short, lp_lo = probe(lo, lmu_k)
                if short:
                    break
                hi, lp_hi = lo, lp_lo
                step *= 2
                lo = max(guess - step, k + 1)
            if lo == hi:  # hi = k + 1 is not too short, so it is the cutoff
                return hi, lp_hi
            lo += 1
        while lo < hi:
            mid = (lo + hi) // 2
            short, lp_mid = probe(mid, lmu_k)
            if short:
                lo = mid + 1
            else:
                hi, lp_hi = mid, lp_mid
        return hi, lp_hi

    return cutoff


def _kernel(params: BranchingParams, rng: np.random.Generator):
    """Per-particle draw for params on rng: draw(k) -> (children, discarded, K).

    The children are a list of types in increasing order, K is the certified
    cutoff and discarded = tail(K) reuses the search's log_poch(K).
    """
    cutoff = _cutoff_search(params)
    beta = params.beta
    m = params.mean_offspring
    log_rate = math.log(params.rate)
    lp, exp, log, log1p, ceil = log_poch, math.exp, math.log, math.log1p, math.ceil
    random = rng.random

    def draw(k: int):
        lmu_k = lp(float(k), beta)
        K, lp_K = cutoff(k, lmu_k)
        log_pref = log_rate + lmu_k  # log q(k, y) = log_pref - log(y-1) - log mu_y
        children = []
        pos = k
        while pos < K:
            y = pos + 1
            q_env = exp(log_pref - log(y - 1.0) - lp(float(y), beta))
            u = random()
            if u == 0.0:
                break  # inverse transform puts the next candidate at +infinity
            # geometric gap by inversion, compared in real arithmetic so that
            # beyond-cutoff jumps never overflow an integer
            gap_real = log(u) / log1p(-q_env)
            if gap_real > K - pos:
                break
            gap = max(1, ceil(gap_real))
            cand = pos + gap
            if gap == 1 or random() < exp(
                log_pref - log(cand - 1.0) - lp(float(cand), beta)
            ) / q_env:
                children.append(cand)
            pos = cand
        return children, m * exp(lmu_k - lp_K), K

    return draw


def sample_offspring(
    k: int, params: BranchingParams, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Children types of one type-k particle, plus the discarded tail mass.

    Realizes independent Bernoulli(q(k, y)) outcomes for every y in
    (k, cutoff] by skip sampling: from position pos, types up to the next
    candidate are ruled out by one geometric draw under the envelope
    q(k, pos+1), and the candidate is accepted with probability
    q(k, cand)/envelope.  Identical in law to a type-by-type scan.
    """
    children, discarded, _ = _kernel(params, rng)(_particle_type(k))
    return np.array(children, dtype=np.int64), discarded


def _offspring_cutoff_bisect(k: int, params: BranchingParams) -> int:
    """Cutoff by doubling then bisection on the tail; reference used in tests."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hi = k + 1
    while _offspring_tail(k, float(hi), params) > params.epsilon:
        if hi >= MAX_TYPE:
            return MAX_TYPE
        hi = min(hi * 2, MAX_TYPE)
    lo = max(k + 1, hi // 2)
    while hi - lo > 0 and _offspring_tail(k, float(lo), params) > params.epsilon:
        mid = (lo + hi) // 2
        if _offspring_tail(k, float(mid), params) > params.epsilon:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _sample_offspring_scan(
    k: int, cutoff: int, params: BranchingParams, rng: np.random.Generator
) -> np.ndarray:
    """Literal Bernoulli scan over (k, cutoff]; reference used in tests."""
    ys = np.arange(k + 1, cutoff + 1, dtype=np.int64)
    q = np.exp(_log_q(k, ys.astype(np.float64), params))
    return ys[rng.random(len(ys)) < q]


@dataclass
class Population:
    """One generation: particle types and the truncation mass spent so far."""

    generation: int
    types: np.ndarray
    truncation_mass: float


@dataclass
class BranchingResult:
    params: BranchingParams
    generation_sizes: np.ndarray  # N_1, N_2, ...
    extinct: bool
    censored: bool  # a resource cap ended the run before extinction
    distinct_types: int  # types seen anywhere in the realized generations
    distinct_by_generation: np.ndarray  # distinct types within the first g generations
    truncation_mass: float
    cap_hits: int = 0  # draws whose certified cutoff exceeded MAX_TYPE
    generations: list[Population] = field(default_factory=list)


def simulate(
    params: BranchingParams,
    rng: np.random.Generator,
    keep_generations: bool = False,
) -> BranchingResult:
    """Run the branching process until extinction or a resource cap.

    Hitting max_gen or max_pop reports a censored (non-extinct) outcome
    rather than an error.  This is the bit-pinned reference: for a given
    Generator state the realized trees are fixed by the golden digests in
    the tests, so a faster path must draw the same numbers in the same order.
    """
    current = np.array([1], dtype=np.int64)
    sizes = [1]
    gens = []
    seen: set[int] = {1}
    cum_distinct = [1]
    trunc = 0.0
    cap_hits = 0
    censored = False
    if keep_generations:
        gens.append(Population(1, current.copy(), 0.0))
    draw = _kernel(params, rng)
    for gen in range(2, params.max_gen + 1):
        kids = []
        for k in current.tolist():
            ch, disc, cutoff = draw(k)
            if cutoff >= MAX_TYPE:
                cap_hits += 1
            trunc += disc
            kids += ch
        if not kids:
            current = np.array([], dtype=np.int64)
            sizes.append(0)
            cum_distinct.append(len(seen))
            if keep_generations:
                gens.append(Population(gen, current.copy(), trunc))
            return BranchingResult(
                params=params,
                generation_sizes=np.array(sizes, dtype=np.int64),
                extinct=True,
                censored=False,
                distinct_types=len(seen),
                distinct_by_generation=np.array(cum_distinct, dtype=np.int64),
                truncation_mass=trunc,
                cap_hits=cap_hits,
                generations=gens,
            )
        current = np.sort(np.array(kids, dtype=np.int64))
        sizes.append(len(current))
        seen.update(current.tolist())
        cum_distinct.append(len(seen))
        if keep_generations:
            gens.append(Population(gen, current.copy(), trunc))
        if len(current) > params.max_pop:
            censored = True
            break
    else:
        censored = True
    return BranchingResult(
        params=params,
        generation_sizes=np.array(sizes, dtype=np.int64),
        extinct=False,
        censored=censored,
        distinct_types=len(seen),
        distinct_by_generation=np.array(cum_distinct, dtype=np.int64),
        truncation_mass=trunc,
        cap_hits=cap_hits,
        generations=gens,
    )


@dataclass
class ModifiedWalkResult:
    """Trajectory of the independent-field variant of the walk."""

    params: BranchingParams
    xi: np.ndarray  # xi[t-1] = number of unit steps by time t, t = 1..n_steps


def simulate_modified_walk(
    params: BranchingParams, n_steps: int, rng: np.random.Generator
) -> ModifiedWalkResult:
    """Walk variant whose recall is an independent Bernoulli field per time pair.

    The next step is 1 (given the retention coin succeeds) when the field
    fires at any currently occupied time, which happens with probability
    1 - prod_{i occupied} (1 - P(recall = i)).  Only occupied times can
    contribute, so each step costs O(#occupied).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    active = [1]
    xi = np.empty(n_steps, dtype=np.int64)
    xi[0] = 1
    for t in range(1, n_steps):
        coin = rng.random()
        y = 0
        if coin < params.p:
            pmf = MemoryLaw(params.beta, t).pmf(np.array(active, dtype=np.int64))
            if (pmf == 1.0).any():  # a sure recall; log1p(-1) would be -inf
                p_any = 1.0
            else:
                p_any = -math.expm1(float(np.log1p(-pmf).sum()))
            if rng.random() < p_any:
                y = 1
        if y:
            active.append(t + 1)
        xi[t] = len(active)
    return ModifiedWalkResult(params=params, xi=xi)
