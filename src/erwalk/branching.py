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
of scalar log_poch evaluations (about six for the cutoff, whatever its size).
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
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_gen < 1 or self.max_pop < 1:
            raise ValueError("max_gen and max_pop must be >= 1")

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
    ~ beta log(K + (beta-1)/2), two Newton steps, then a gallop and bisection
    on the integers with the exact predicate tail(K) > epsilon.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    beta = params.beta
    m = params.mean_offspring
    eps = params.epsilon
    lmu_k = log_poch(float(k), beta)

    def too_short(K: int) -> bool:  # tail(K) > epsilon, as _offspring_tail forms it
        return m * math.exp(lmu_k - log_poch(float(K), beta)) > eps

    if not too_short(k + 1):
        return k + 1
    if k + 1 >= MAX_TYPE:
        return MAX_TYPE
    target = lmu_k + math.log(m / eps)
    if target / beta > 44.0:  # exp(44) > 2**62: the cutoff is past the cap
        return MAX_TYPE
    shift = 0.5 * (beta - 1.0)
    lo_f, hi_f = float(k + 1), float(MAX_TYPE)
    x = min(max(math.exp(target / beta) - shift, lo_f), hi_f)
    for _ in range(2):
        # d/dK log_poch(K, beta) ~ beta / (K + (beta-1)/2)
        x -= (log_poch(x, beta) - target) * (x + shift) / beta
        x = min(max(x, lo_f), hi_f)
    guess = max(math.ceil(x), k + 1)  # float(k + 1) may round below k + 1
    # bracket: too_short(lo - 1) and not too_short(hi)
    step = 1
    if too_short(guess):
        lo = guess + 1
        hi = min(guess + step, MAX_TYPE)
        while too_short(hi):
            if hi >= MAX_TYPE:
                return MAX_TYPE
            lo = hi + 1
            step *= 2
            hi = min(guess + step, MAX_TYPE)
    else:
        hi = guess
        lo = max(guess - step, k + 1)
        while lo > k + 1 and not too_short(lo):
            hi = lo
            step *= 2
            lo = max(guess - step, k + 1)
        lo += 1  # too_short(lo), known for k + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if too_short(mid):
            lo = mid + 1
        else:
            hi = mid
    return hi


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
    if k < 1:
        raise ValueError("k must be >= 1")
    return _sample_below(k, offspring_cutoff(k, params), params, rng)


def _sample_below(
    k: int, cutoff: int, params: BranchingParams, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """sample_offspring with the cutoff of type k already computed."""
    beta = params.beta
    lmu_k = log_poch(float(k), beta)
    discarded = params.mean_offspring * math.exp(lmu_k - log_poch(float(cutoff), beta))
    log_pref = math.log(params.rate) + lmu_k

    def q(y: int) -> float:
        return math.exp(log_pref - math.log(y - 1.0) - log_poch(float(y), beta))

    children = []
    pos = k
    while pos < cutoff:
        q_env = q(pos + 1)
        u = rng.random()
        if u == 0.0:
            break  # inverse transform puts the next candidate at +infinity
        # geometric gap by inversion, compared in real arithmetic so that
        # beyond-cutoff jumps never overflow an integer
        gap_real = math.log(u) / math.log1p(-q_env)
        if gap_real > cutoff - pos:
            break
        gap = max(1, math.ceil(gap_real))
        cand = pos + gap
        if gap == 1 or rng.random() < q(cand) / q_env:
            children.append(cand)
        pos = cand
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
    rather than an error.
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
    for gen in range(2, params.max_gen + 1):
        kids = []
        for k in current.tolist():
            cutoff = offspring_cutoff(k, params)
            if cutoff >= MAX_TYPE:
                cap_hits += 1
            ch, disc = _sample_below(k, cutoff, params, rng)
            trunc += disc
            if len(ch):
                kids.append(ch)
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
        current = np.sort(np.concatenate(kids))
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
