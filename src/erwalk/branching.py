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
than searched for, so a particle costs O(children) skip steps plus about two
scalar log_poch evaluations for the cutoff, whatever its size.  log mu_k
itself costs none: each child inherits it from the draw that accepted it,
whose acceptance test (or envelope, at gap 1) has already formed it.  Every
evaluation goes through the exponent's one scalar closure
(`gammaratio._log_poch_scalar`), the same bits as `log_poch`.  `simulate`
reads its uniforms from blocks of the Generator (`_uniforms`): the same
doubles in the same order as one `random()` call each, and on return the
Generator is rewound to where those calls would have left it.

`simulate_ensemble` runs many runs of `simulate`'s law in lockstep.  A
generation of every run is one set of flat arrays (run, type, log mu_type),
sorted by run and type; each cutoff search and each skip-sampling round is
one numpy pass over the particles still drawing.  Its uniforms are keyed
through `streams` rather than drawn from a Generator.  Key layout: the
particle of rank i (0-based) in the sorted generation g of run r reads the
stream of master seed `seed` and replicate index

    r << 36 | g << 24 | i,    r < 2**28, 1 <= g < 2**12, i < 2**24,

and its skip-sampling round t reads draws 2t (the geometric gap) and 2t + 1
(the thinning coin; unread when the gap is 1).  So every draw is a function
of (seed, run, generation, rank, round), and run r's outcome depends on
(seed, r) alone, whatever n_runs or the grouping of runs.  More runs, or a
max_gen or max_pop that would let a generation or rank overflow its bits,
are refused.  `simulate` stays the bit-pinned reference, and the ensemble's
law is tested against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammaratio import _DIRECT_MIN, _log_poch_array, _log_poch_scalar, log_poch
from .memory import MemoryLaw
from .streams import _check_key, _is_int, uniform_rows

__all__ = [
    "BranchingParams",
    "Population",
    "BranchingResult",
    "offspring_rate",
    "offspring_partial_sum",
    "offspring_cutoff",
    "sample_offspring",
    "simulate",
    "BranchingEnsemble",
    "simulate_ensemble",
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
            if not (_is_int(cap) and cap >= 1):
                raise ValueError(f"max_gen and max_pop must be integers >= 1, got {cap!r}")

    @property
    def rate(self) -> float:
        return self.p * (1.0 + self.beta)

    @property
    def mean_offspring(self) -> float:
        """m = p(beta+1)/beta, the expected children per particle."""
        return self.rate / self.beta


def _log_q(k: int, y, params: BranchingParams) -> np.ndarray:
    """log q(k, y) for an array of types y > k."""
    y = np.asarray(y, dtype=np.float64)
    return (
        math.log(params.rate)
        - np.log(y - 1.0)
        + log_poch(float(k), params.beta)
        - log_poch(y, params.beta)
    )


def offspring_rate(k: int, y: int, params: BranchingParams) -> float:
    """q(k, y) = p(beta+1)/(y-1) * mu_k/mu_y, the chance of a type-y child."""
    if not 1 <= k < y:
        raise ValueError(f"need 1 <= k < y, got k={k}, y={y}")
    return float(np.exp(_log_q(k, [y], params))[0])


def offspring_partial_sum(k: int, upto: int, params: BranchingParams) -> float:
    """Closed form of sum_{y=k+1}^{upto} q(k, y); increases to m as upto grows."""
    if upto <= k:
        raise ValueError(f"need upto > k, got k={k}, upto={upto}")
    log_ratio = log_poch(float(k), params.beta) - log_poch(float(upto), params.beta)
    return -params.mean_offspring * math.expm1(log_ratio)


def _offspring_tail(k: int, upto: int, params: BranchingParams) -> float:
    """m - partial sum: expected offspring mass on types > upto."""
    log_ratio = log_poch(float(k), params.beta) - log_poch(float(upto), params.beta)
    return params.mean_offspring * math.exp(log_ratio)


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
    """offspring_cutoff's search as cutoff(k, log_poch(k)) -> (K, log_poch(K)).

    It evaluates log_poch through the exponent's cached scalar closure, the
    one `_kernel` holds too.
    """
    beta = params.beta
    m = params.mean_offspring
    eps = params.epsilon
    log_m_eps = math.log(m / eps)
    shift = 0.5 * (beta - 1.0)
    lp, exp = _log_poch_scalar(beta), math.exp

    def probe(K: int, lmu_k: float):  # tail(K) > epsilon, as _offspring_tail forms it
        lp_K = lp(float(K))
        return m * exp(lmu_k - lp_K) > eps, lp_K

    def cutoff(k: int, lmu_k: float):
        target = lmu_k + log_m_eps
        if target / beta > 44.0:  # exp(44) > 2**62: the cutoff is past the cap
            return MAX_TYPE, lp(float(MAX_TYPE))
        x = min(max(exp(target / beta) - shift, float(k + 1)), float(MAX_TYPE))
        if x >= _NEWTON_MIN:
            for _ in range(2):
                # d/dK log_poch(K, beta) ~ beta / (K + (beta-1)/2)
                x -= (lp(x) - target) * (x + shift) / beta
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


def _kernel(params: BranchingParams, random):
    """Per-particle draw: draw(k, log_poch(k)) -> (children, discarded, K).

    `random` is a Generator's `random` method, or `_uniforms`' reader of it.

    The children are a list of (type, log_poch(type)) pairs in increasing
    type order, each log_poch the value the draw formed for that type (the
    acceptance test's, or the envelope's at gap 1), so that a child's own
    draw needs no evaluation for it.  K is the certified cutoff and
    discarded = tail(K) reuses the search's log_poch(K).
    """
    cutoff = _cutoff_search(params)
    m = params.mean_offspring
    log_rate = math.log(params.rate)
    lp = _log_poch_scalar(params.beta)
    exp, log, log1p, ceil = math.exp, math.log, math.log1p, math.ceil

    def draw(k: int, lmu_k: float):
        K, lp_K = cutoff(k, lmu_k)
        log_pref = log_rate + lmu_k  # log q(k, y) = log_pref - log(y-1) - log mu_y
        children = []
        pos = k
        while pos < K:
            y = pos + 1
            lp_y = lp(float(y))
            q_env = exp(log_pref - log(y - 1.0) - lp_y)
            u = random()
            if u == 0.0:
                break  # inverse transform puts the next candidate at +infinity
            # geometric gap by inversion, compared in real arithmetic so that
            # beyond-cutoff jumps never overflow an integer
            gap_real = log(u) / log1p(-q_env)
            if gap_real > K - pos:
                break
            if gap_real <= 1.0:  # gap 1: the candidate is y, accepted outright
                children.append((y, lp_y))
                pos = y
                continue
            cand = pos + ceil(gap_real)
            lp_c = lp(float(cand))
            if random() < exp(log_pref - log(cand - 1.0) - lp_c) / q_env:
                children.append((cand, lp_c))
            pos = cand
        return children, m * exp(lmu_k - lp_K), K

    return draw


#: doubles per block of `_uniforms`: the first, and the largest it grows to
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024


def _uniforms(rng: np.random.Generator, last: list):
    """rng.random() one double at a time, drawn from rng in blocks.

    Yields the doubles that successive rng.random() calls return, in order: a
    Generator fills an array with the same next_double calls that its scalar
    draw makes.  A block costs one numpy call, and each double a generator
    step, against a numpy call per scalar draw.  last[0] is (the bit
    generator's state before the current block, the block's size, its
    iterator), from which `_rewind` puts rng where the scalar draws would
    have left it.
    """
    size = _FIRST_BLOCK
    while True:
        state = rng.bit_generator.state
        block = iter(rng.random(size).tolist())
        last[:] = [(state, size, block)]
        yield from block
        size = min(2 * size, _MAX_BLOCK)


def _rewind(rng: np.random.Generator, last: list) -> None:
    """Leave rng as if only the doubles `_uniforms` handed out were drawn."""
    if last:
        state, size, block = last[0]
        rng.bit_generator.state = state
        rng.random(size - block.__length_hint__())


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
    k = _particle_type(k)
    children, discarded, _ = _kernel(params, rng.random)(k, log_poch(float(k), params.beta))
    return np.array([c for c, _ in children], dtype=np.int64), discarded


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
    Its uniforms come in blocks (`_uniforms`), and it rewinds the Generator
    before it returns or raises, so the Generator's state afterwards is that
    of one `random()` call per uniform used.
    """
    current = [(1, log_poch(1.0, params.beta))]  # (type, log_poch(type)) pairs
    sizes = [1]
    gens = []
    seen: set[int] = {1}
    cum_distinct = [1]
    trunc = 0.0
    cap_hits = 0
    extinct = False
    if keep_generations:
        gens.append(Population(1, np.array([1], dtype=np.int64), 0.0))
    last = []
    draw = _kernel(params, _uniforms(rng, last).__next__)
    try:
        for gen in range(2, params.max_gen + 1):
            kids = []
            for k, lmu_k in current:
                ch, disc, cutoff = draw(k, lmu_k)
                if cutoff >= MAX_TYPE:
                    cap_hits += 1
                trunc += disc
                kids += ch
            kids.sort()  # equal types carry equal log_poch, so by type alone
            current = kids
            types = [k for k, _ in kids]
            sizes.append(len(types))
            seen.update(types)
            cum_distinct.append(len(seen))
            if keep_generations:
                gens.append(Population(gen, np.array(types, dtype=np.int64), trunc))
            extinct = not kids
            if extinct or len(kids) > params.max_pop:
                break
    finally:
        _rewind(rng, last)
    # a run that did not die out was stopped by max_gen or max_pop
    return BranchingResult(
        params=params,
        generation_sizes=np.array(sizes, dtype=np.int64),
        extinct=extinct,
        censored=not extinct,
        distinct_by_generation=np.array(cum_distinct, dtype=np.int64),
        truncation_mass=trunc,
        cap_hits=cap_hits,
        generations=gens,
    )


#: the most particles a lockstep group of `simulate_ensemble` draws at once:
#: runs start in groups of this many, and a group whose next generation is
#: larger is split between its runs
_GROUP_PARTICLES = 1 << 16
#: rounds of uniforms in a generation's first fill, and in each later fill;
#: most particles finish within the first, and 24 rounds is the 48-draw row
#: that the streams' array kernel takes
_FIRST_ROUNDS = 8
_FILL_ROUNDS = 24
#: bits of a particle's stream index: run, generation, rank (module docstring)
_RANK_BITS = 24
_GEN_BITS = 12
_RUN_BITS = 64 - _GEN_BITS - _RANK_BITS


@dataclass
class BranchingEnsemble:
    """Per-run outcomes of `simulate_ensemble`, one row or entry per run."""

    generation_sizes: np.ndarray  # (runs, generations): N_1, N_2, ..., zero once a run stops
    extinct: np.ndarray
    censored: np.ndarray  # a resource cap ended the run before extinction
    truncation_mass: np.ndarray
    cap_hits: np.ndarray  # draws whose certified cutoff exceeded MAX_TYPE


class _Lockstep:
    """`simulate_ensemble`'s generation step for one (params, seed).

    Particles are flat arrays, each in the order of its run and rank; every
    method makes one pass of numpy operations over the particles it is given.
    """

    def __init__(self, params: BranchingParams, seed: int):
        self.params, self.seed = params, seed
        beta = params.beta
        lp = _log_poch_scalar(beta)
        # log mu_n below 32, as `log_poch` gives a scalar n there (math.lgamma)
        self.small = np.array([0.0] + [lp(float(n)) for n in range(1, int(_DIRECT_MIN))])
        self.lp_max = lp(float(MAX_TYPE))
        self.cutoff = _cutoff_search(params)
        self.log_rate = math.log(params.rate)
        self.log_m_eps = math.log(params.mean_offspring / params.epsilon)

    def log_mu(self, n: np.ndarray) -> np.ndarray:
        """log mu_n of int64 types n >= 1, each a function of n alone: the
        table below 32, `log_poch`'s array expression above."""
        out = _log_poch_array(n.astype(np.float64), self.params.beta)
        if n.size and n.min() < _DIRECT_MIN:
            out = np.where(n < _DIRECT_MIN, self.small[np.minimum(n, len(self.small) - 1)], out)
        return out

    def cutoffs(self, k: np.ndarray, lmu: np.ndarray):
        """Certified cutoffs K of types k with log mu lmu, and log mu_K.

        The closed-form guess of `offspring_cutoff` is taken where it is the
        locally minimal certified K (tail(K) <= epsilon < tail(K-1), or K = k+1).
        The rest go to the scalar search: guesses from 2**43 up, which it
        refines by Newton steps first, and guesses that miss.  Cutoffs past
        the cap are MAX_TYPE, as there.
        """
        p = self.params
        beta, m, eps = p.beta, p.mean_offspring, p.epsilon
        reach = (lmu + self.log_m_eps) / beta
        capped = reach > 44.0  # exp(44) > 2**62
        x = np.exp(np.minimum(reach, 44.0)) - 0.5 * (beta - 1.0)
        x = np.minimum(np.maximum(x, (k + 1).astype(np.float64)), float(MAX_TYPE))
        K = np.maximum(np.ceil(x).astype(np.int64), k + 1)
        lp_K = self.log_mu(K)
        lp_below = lp_K - np.log1p(beta / (K - 1).astype(np.float64))  # log mu_{K-1}
        certified = m * np.exp(lmu - lp_K) <= eps
        minimal = (K == k + 1) | (m * np.exp(lmu - lp_below) > eps)
        K[capped], lp_K[capped] = MAX_TYPE, self.lp_max
        for i in np.flatnonzero(~capped & ((x >= _NEWTON_MIN) | ~(certified & minimal))).tolist():
            K[i], lp_K[i] = self.cutoff(int(k[i]), float(lmu[i]))
        return K, lp_K

    def offspring(self, keys: np.ndarray, k: np.ndarray, lmu: np.ndarray, K: np.ndarray):
        """Children of particles with stream indices `keys`, types k, log mu
        lmu and cutoffs K, as (parent position, child type) arrays.

        `_kernel`'s skip sampling, one round per pass over the particles still
        drawing: round t of a particle reads draws 2t (the geometric gap) and
        2t + 1 (the thinning coin) of its stream.
        """
        beta = self.params.beta
        # the drawing particles' integers (position in the generation, skip
        # position, cutoff, line of the fill) and floats (log mu at the skip
        # position, log q(k, y) + log(y-1) + log mu_y), filtered together
        ints = np.stack([np.arange(k.size), k, K, np.zeros_like(k)])
        floats = np.stack([lmu, self.log_rate + lmu])
        parents, kids = [], []
        t = fill_end = 0
        while ints.shape[1]:
            at, pos, cut, row = ints
            lp_pos, log_pref = floats
            if t == fill_end:
                rounds = _FIRST_ROUNDS if t == 0 else _FILL_ROUNDS
                buf = uniform_rows(self.seed, keys[at], 2 * t, 2 * rounds)
                row[:] = np.arange(at.size)
                fill_start, fill_end = t, t + rounds
            col = 2 * (t - fill_start)
            x = pos.astype(np.float64)
            lp_env = lp_pos + np.log1p(beta / x)  # log mu_{pos+1}
            q_env = np.exp(log_pref - np.log(x) - lp_env)
            # u = 0 (or an underflowed envelope) puts the candidate at
            # +infinity; below 2**62 (> cut - pos) the ceiling is an exact
            # int64, and exceeds cut - pos exactly when the real gap does
            with np.errstate(divide="ignore"):
                gap = np.log(buf[row, col]) / np.log1p(-q_env)
            gap = np.ceil(np.fmin(gap, 2.0**62)).astype(np.int64)
            go = gap <= cut - pos
            cand = pos + np.maximum(gap, 1)  # gap 1 is the candidate y = pos + 1
            lp_c = self.log_mu(cand)
            q_c = np.exp(log_pref - np.log((cand - 1).astype(np.float64)) - lp_c)
            accept = go & ((gap <= 1) | (buf[row, col + 1] * q_env < q_c))
            parents.append(at[accept])
            kids.append(cand[accept])
            pos[:], lp_pos[:] = cand, lp_c
            keep = np.flatnonzero(go & (cand < cut))
            ints, floats = ints[:, keep], floats[:, keep]
            t += 1
        return np.concatenate(parents), np.concatenate(kids)


def _group_starts(run: np.ndarray) -> np.ndarray:
    """Positions where a new run starts in a run-sorted particle array."""
    return np.flatnonzero(np.concatenate(([run.size > 0], run[1:] != run[:-1])))


def simulate_ensemble(params: BranchingParams, n_runs: int, seed: int) -> BranchingEnsemble:
    """Runs 0, ..., n_runs - 1 of the branching process, all in lockstep.

    Each run has `simulate`'s law: the same certified cutoffs, skip sampling
    and thinning, MAX_TYPE cap and max_gen / max_pop censoring.  All runs
    advance one generation at a time, and a particle's uniforms are keyed
    through `streams` (module docstring), so run r's outcome depends on
    (seed, r) alone, whatever n_runs or however the runs are grouped.
    Inputs the key layout cannot address raise ValueError: more than 2**28
    runs, max_gen above 2**12 or max_pop above 2**24.
    """
    if isinstance(n_runs, bool) or not isinstance(n_runs, (int, np.integer)) or not (
        1 <= n_runs <= 1 << _RUN_BITS
    ):
        raise ValueError(f"n_runs must be an integer in [1, 2**{_RUN_BITS}], got {n_runs!r}")
    _check_key(seed, 0)
    if params.max_gen > 1 << _GEN_BITS or params.max_pop > 1 << _RANK_BITS:
        raise ValueError(
            f"max_gen must be at most 2**{_GEN_BITS} and max_pop at most 2**{_RANK_BITS}"
            f" to key every particle's stream, got {params.max_gen} and {params.max_pop}"
        )
    n_runs, seed = int(n_runs), int(seed)
    step = _Lockstep(params, seed)
    sizes = np.zeros((n_runs, params.max_gen), dtype=np.int64)
    sizes[:, 0] = 1
    extinct = np.zeros(n_runs, dtype=bool)
    trunc = np.zeros(n_runs)
    cap_hits = np.zeros(n_runs, dtype=np.int64)
    width = 1
    stack = []  # groups (generation, run, type, log mu, rank), each sorted by run and type
    if params.max_gen > 1:
        for start in range(0, n_runs, _GROUP_PARTICLES):
            run = np.arange(start, min(start + _GROUP_PARTICLES, n_runs))
            stack.append((1, run, np.ones_like(run), np.full(run.size, step.small[1]),
                          np.zeros_like(run)))
    while stack:
        gen, run, k, lmu, rank = stack.pop()
        keys = (run.astype(np.uint64) << np.uint64(_GEN_BITS + _RANK_BITS)) | np.uint64(
            gen << _RANK_BITS
        ) | rank.astype(np.uint64)
        K, lp_K = step.cutoffs(k, lmu)
        first = _group_starts(run)
        runs = run[first]
        trunc[runs] += np.add.reduceat(params.mean_offspring * np.exp(lmu - lp_K), first)
        cap_hits[runs] += np.add.reduceat((K >= MAX_TYPE).astype(np.int64), first)
        parent, kid = step.offspring(keys, k, lmu, K)
        kid_run = run[parent]
        order = np.lexsort((kid, kid_run))
        run, k = kid_run[order], kid[order]
        gen += 1
        first = _group_starts(run)
        counts = np.diff(np.append(first, run.size))
        born = run[first]
        sizes[born, gen - 1] = counts
        width = max(width, gen)
        extinct[runs[~np.isin(runs, born, assume_unique=True)]] = True
        over = counts > params.max_pop  # censored: the run stops here
        if over.any():
            keep = np.repeat(~over, counts)
            run, k = run[keep], k[keep]
            first, counts = _group_starts(run), counts[~over]
        if not run.size or gen == params.max_gen:
            continue
        group = (run, k, step.log_mu(k), np.arange(run.size) - np.repeat(first, counts))
        if run.size > _GROUP_PARTICLES and first.size > 1:
            # split at the run boundary nearest the middle
            half = first[max(1, min(np.searchsorted(first, run.size // 2), first.size - 1))]
            stack.append((gen, *(a[half:] for a in group)))
            group = tuple(a[:half] for a in group)
        stack.append((gen, *group))
    return BranchingEnsemble(
        generation_sizes=sizes[:, :width].copy(),
        extinct=extinct,
        censored=~extinct,
        truncation_mass=trunc,
        cap_hits=cap_hits,
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
