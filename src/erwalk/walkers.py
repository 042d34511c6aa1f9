"""Simulators for the power-law-memory walk and its comparison processes.

The walk takes steps X_k in {0, 1} with X_1 = 1; at time n the next step
copies the step at a power-law-recalled past time with probability p, else
is 0.  Conditionally on the history,

    P(X_{n+1} = 1) = pi_n = p(beta+1) * Sigma_n / (n * mu_{n+1}),

where Sigma_n = sum X_k mu_k, so (Xi_n, Sigma_n) is Markov.  That collapsed
chain is what the production simulators run, with two engines:

* `events` jumps from up-step to up-step.  Between two up-steps pi_n is
  Sigma times a decreasing sequence, so a geometric gap under an envelope,
  thinned to the true pi_n, draws the next up-step directly: the work goes
  per candidate up-step, whatever the horizon.  It wins where up-steps are
  sparse (the critical and localized phases).
* `collapsed` reads one uniform per replicate and step; it searches each
  replicate's row of uniforms a tile of steps at a time for its next
  up-step, so the work goes per tile and per up-step.  It wins on dense
  walks and short horizons, and it is the bit-pinned reference.

The two read their streams differently, so they agree in law, not in bits.
The full-history simulator draws the recalled time explicitly and serves
as a differential oracle.  Ensembles run one counter-based RNG stream per
replicate, so results are reproducible under any batching or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gammaratio import log_poch_ratio, ratio_seq
from .memory import MemoryLaw
from .streams import _check_key, uniform_rows, uniforms

__all__ = [
    "ModelParams",
    "CollapsedState",
    "FullState",
    "LerwState",
    "collapsed_step_prob",
    "step_collapsed",
    "step_full",
    "step_lerw",
    "geometric_checkpoints",
    "Trajectory",
    "run_walk",
    "EnsembleResult",
    "run_ensemble",
    "CoupledTrajectory",
    "coupled_run",
    "run_coupled_ensemble",
]

#: slack for the pi_n <= p internal-consistency guard
_GUARD_EPS = 1e-9
#: |beta - p/(1-p)| below this counts as exactly critical
CRITICAL_TOL = 1e-12
#: the full-history simulator is an oracle; cap its quadratic cost
_FULL_MODE_MAX_STEPS = 4096

_BLOCK_SIZE = 2048
#: draws per replicate and segment fill; rows this long are re-keyed one at
#: a time (short ones go to the streams' array kernel), so each fill pays a
#: fixed cost per row, and 2000 still fills a 4000-step run in two
_SEG_LEN = 2000
#: draws per replicate and fill of the events engine, two per candidate; the
#: streams' array kernel takes rows of up to 48
_EVENT_FILL = 48
#: time steps per tile of the collapsed engine's up-step search
_TILE = 64
#: a tile is searched when its rows expect at most this many up-steps each;
#: denser tiles run the per-step loop, which is then as fast, and the
#: search's scratch grows with the share of rows that step
_SEARCH_MAX_HITS = 0.25


@dataclass(frozen=True)
class ModelParams:
    """Memory parameter p in (0,1) and power-law exponent beta > -1."""

    p: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not self.beta > -1.0:
            raise ValueError(f"beta must be > -1, got {self.beta}")

    @property
    def rate(self) -> float:
        """p * (beta + 1), the drift rate of the memory-weighted sum."""
        return self.p * (1.0 + self.beta)

    @property
    def critical_beta(self) -> float:
        """Phase boundary p / (1 - p)."""
        return self.p / (1.0 - self.p)

    @property
    def is_critical(self) -> bool:
        return abs(self.beta - self.critical_beta) <= CRITICAL_TOL

    @property
    def growth_exponent(self) -> float:
        """p(beta+1) - beta, the mean-growth exponent below the boundary."""
        return self.rate - self.beta


@dataclass
class CollapsedState:
    """Markov state (n, Xi_n, Sigma_n) plus the running conditional-mean sum A_n."""

    n: int
    xi: int
    sigma: float
    a: float
    mu_next: float  # mu_{n+1}, carried so each step is O(1)

    @classmethod
    def initial(cls, params: ModelParams) -> "CollapsedState":
        # X_1 = 1 deterministically: Sigma_1 = mu_1 = 1, A_1 = 1, mu_2 = 1 + beta
        return cls(n=1, xi=1, sigma=1.0, a=1.0, mu_next=1.0 + params.beta)


@dataclass
class FullState:
    """Explicit history of steps; xi and sigma are kept in sync incrementally."""

    history: np.ndarray
    xi: int
    sigma: float
    a: float

    @classmethod
    def initial(cls) -> "FullState":
        return cls(history=np.array([1], dtype=np.uint8), xi=1, sigma=1.0, a=1.0)

    @property
    def n(self) -> int:
        return len(self.history)


@dataclass
class LerwState:
    """State of the uniform-memory comparison walk."""

    n: int
    xi: int

    @classmethod
    def initial(cls) -> "LerwState":
        return cls(n=1, xi=1)


def collapsed_step_prob(state: CollapsedState, params: ModelParams) -> float:
    """Conditional step probability pi_n; aborts if it exceeds p (impossible state)."""
    pi = params.rate * state.sigma / (state.n * state.mu_next)
    if not pi <= params.p + _GUARD_EPS:  # a NaN fails too
        raise RuntimeError(
            f"internal consistency violated: pi_n = {pi} > p = {params.p} at n = {state.n}"
        )
    return pi


def step_collapsed(
    state: CollapsedState, params: ModelParams, rng: np.random.Generator
) -> CollapsedState:
    """One transition of the collapsed (Xi, Sigma) chain."""
    pi = collapsed_step_prob(state, params)
    x = 1 if rng.random() < pi else 0
    n1 = state.n + 1
    return CollapsedState(
        n=n1,
        xi=state.xi + x,
        sigma=state.sigma + x * state.mu_next,
        a=state.a + pi,
        mu_next=state.mu_next * (n1 + params.beta) / n1,
    )


def step_full(
    state: FullState, params: ModelParams, rng: np.random.Generator
) -> FullState:
    """One transition of the full-history walk.

    Consumes two uniforms in fixed order: the memory draw, then the
    retention coin.
    """
    n = state.n
    law = MemoryLaw(params.beta, n)
    k = law.sample(rng.random())
    coin = rng.random()
    x = 1 if (coin < params.p and state.history[k - 1]) else 0
    mu_next = ratio_seq(params.beta).value(n + 1)
    pi = params.rate * state.sigma / (n * mu_next)
    return FullState(
        history=np.append(state.history, np.uint8(x)),
        xi=state.xi + x,
        sigma=state.sigma + x * mu_next,
        a=state.a + pi,
    )


def step_lerw(state: LerwState, rate: float, rng: np.random.Generator) -> LerwState:
    """One transition of the uniform-memory walk with retention rate `rate`."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must lie in (0, 1), got {rate}")
    pi = rate * state.xi / state.n
    x = 1 if rng.random() < pi else 0
    return LerwState(n=state.n + 1, xi=state.xi + x)


def geometric_checkpoints(n_max: int, ratio: float = 1.2) -> np.ndarray:
    """Geometrically spaced checkpoint times 1, ..., n_max (inclusive, unique)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    pts = [1]
    x = 1.0
    while True:
        x *= ratio
        v = math.ceil(x)
        if v >= n_max:
            break
        if v > pts[-1]:
            pts.append(v)
    if n_max > pts[-1]:
        pts.append(n_max)
    return np.array(pts, dtype=np.int64)


def _check_checkpoints(checkpoints, n_steps: int) -> np.ndarray:
    if checkpoints is None:
        return geometric_checkpoints(n_steps)
    cps = np.unique(np.asarray(checkpoints, dtype=np.int64))
    if len(cps) == 0 or cps[0] < 1 or cps[-1] > n_steps:
        raise ValueError("checkpoints must be integers in [1, n_steps]")
    return cps


def _row_pitch(cols: int) -> int:
    """Row length of a segment buffer that holds `cols` doubles per row.

    An odd number of 64-byte lines: the per-step loops read the buffer a
    column at a time, and an even count (16 KiB rows, say) maps those reads
    onto a fraction of the cache sets.
    """
    return 8 * (-(-cols // 8) | 1)


def _mu_array(beta: float, upto: int) -> np.ndarray:
    """mu_1, ..., mu_upto as a 0-based array (mu[i] = mu_{i+1}).

    The shared `ratio_seq(beta)` rebuilds its table from mu_1 whenever it
    grows, so these bits depend on (beta, upto) alone, not on the lengths
    earlier callers asked for.
    """
    return ratio_seq(beta).values(upto)


def _dense_tile(u, coef, mu, t, xi, sigma, a, guard):
    """The per-step loop over the columns of `u`, the draws of times t, t + 1, ...

    At time t + i, coef[i] = rate / ((t + i) mu_{t+i+1}) and mu[i] = mu_{t+i+1}.
    `a` is None when A_n is not recorded.
    """
    for col in range(u.shape[1]):
        pi = coef[col] * sigma
        if not pi.max() <= guard:  # a NaN fails too
            raise RuntimeError(
                f"internal consistency violated: pi_n > p at n = {t + col}"
            )
        x = u[:, col] < pi
        xi += x
        sigma += x * mu[col]
        if a is not None:
            a += pi


def _search_tile(u, coef, mu, sigma, guard, h_flat):
    """The up-steps of one tile, found by comparing whole rows of draws with pi_n.

    Between two up-steps of a replicate its sigma is constant, so its pi_n
    over the rest of the tile is sigma * coef, and its next up-step is the
    first column where the draw is below it.  A first pass compares each row
    with sigma * max(coef), the largest pi_n it has before its first step,
    to find the few rows that may step at all; then each round searches
    those rows, and after that the rows that stepped, in the columns after
    their last step.  Returns the steps as (rows, cols) pairs, one per
    round, or None if some pi_n of the tile fails the guard; `sigma` is not
    changed.  `h_flat` is bool scratch of at least u.size entries.
    """
    count, w = u.shape
    top = sigma * coef.max()
    # rounding is monotone, so top.max() is the largest pi_n of the tile
    # at the current sigma; a step only raises sigma, so a failure here is
    # a failure of the true pi_n
    if not top.max() <= guard:  # a NaN fails too
        return None
    h = np.less(u, top[:, None], out=h_flat[: count * w].reshape(count, w))
    rows = np.unique(np.flatnonzero(h) // w)  # rows with a draw below their bound
    cols = np.full(rows.size, -1)  # no column spent yet
    s = sigma[rows]
    span = np.arange(w)
    rounds = []
    while rows.size:
        p = s[:, None] * coef
        p[span <= cols[:, None]] = 0.0  # spent columns: p = 0 takes no step
        if not p.max() <= guard:
            return None
        h = u[rows] < p
        hit = np.flatnonzero(h.any(axis=1))
        rows, cols = rows[hit], h.argmax(axis=1)[hit]
        s = s[hit] + mu[cols]
        if rows.size:
            rounds.append((rows, cols))
    return rounds


def _tile_a(a, sigma, coef, mu, rounds):
    """A_n at the end of a searched tile, summed in the per-step loop's order."""
    count, w = len(a), len(coef)
    # sigma before each step: the start value, then 0 or mu_{n+1} per step
    s = np.zeros((count, w + 1))
    s[:, 0] = sigma
    for rows, cols in rounds:
        s[rows, cols + 1] = mu[cols]
    np.cumsum(s, axis=1, out=s)
    terms = np.empty((count, w + 1))
    terms[:, 0] = a
    np.multiply(s[:, :w], coef, out=terms[:, 1:])
    return np.cumsum(terms, axis=1)[:, w]


def _collapsed_block(params, n_steps, seed, start, count, checkpoints, record):
    """Advance `count` replicates of the collapsed chain; returns checkpoint arrays.

    Time is cut into tiles of up to _TILE steps that end at every checkpoint
    and segment end.  A tile whose mean pi_n at its start predicts at most
    _SEARCH_MAX_HITS up-steps per row is searched (`_search_tile`); a denser
    tile, one whose mu is not finite, or one where the search meets a pi_n
    that fails the guard runs the per-step loop.  Both read the same
    uniforms and give the same bits.
    """
    mu = _mu_array(params.beta, n_steps + 1)
    cps = checkpoints
    cp_set = {int(c): i for i, c in enumerate(cps)}
    out = {}
    if "xi" in record:
        out["xi"] = np.empty((count, len(cps)), dtype=np.int64)
    if "sigma" in record:
        out["sigma"] = np.empty((count, len(cps)), dtype=np.float64)
    if "a" in record:
        out["a"] = np.empty((count, len(cps)), dtype=np.float64)

    xi = np.ones(count, dtype=np.int64)
    sigma = np.ones(count, dtype=np.float64)
    a = np.ones(count, dtype=np.float64) if "a" in out else None

    def snapshot(t):
        i = cp_set.get(t)
        if i is None:
            return
        if "xi" in out:
            out["xi"][:, i] = xi
        if "sigma" in out:
            out["sigma"][:, i] = sigma
        if "a" in out:
            out["a"][:, i] = a

    snapshot(1)
    if n_steps == 1:
        return out
    guard = params.p + _GUARD_EPS
    stops = iter([int(c) for c in cps if c > 1])
    stop = next(stops, n_steps)
    seg_len = min(_SEG_LEN, n_steps - 1)
    # one allocation holds the segment's draws and the tile scratch after them
    pitch = _row_pitch(seg_len)
    flat = np.empty(count * (pitch + _TILE // 8), dtype=np.float64)
    buf = flat[: count * pitch].reshape(count, pitch)
    h_flat = flat[count * pitch :].view(np.bool_)
    t = 1  # current time; transition t -> t+1 consumes draw t-1 of each replicate
    while t < n_steps:
        t0 = t
        seg = min(seg_len, n_steps - t)
        uniforms(seed, start, count, t - 1, seg, out=buf)
        mu_seg = mu[t : t + seg]  # mu_seg[i] = mu_{t+i+1}
        coef_seg = params.rate / (np.arange(t, t + seg) * mu_seg)
        # an infinite mu_n turns every sigma into NaN in the per-step loop
        # (0 * inf), which the search would not reproduce
        finite = bool(np.isfinite(mu_seg).all())
        while t < t0 + seg:
            e = min(t + _TILE, t0 + seg, stop)
            u = buf[:, t - t0 : e - t0]
            coef, m = coef_seg[t - t0 : e - t0], mu_seg[t - t0 : e - t0]
            rounds = None
            if finite and coef[0] * sigma.mean() * _TILE <= _SEARCH_MAX_HITS:
                rounds = _search_tile(u, coef, m, sigma, guard, h_flat)
            if rounds is None:
                _dense_tile(u, coef, m, t, xi, sigma, a, guard)
            else:
                if a is not None:
                    a = _tile_a(a, sigma, coef, m, rounds)
                for rows, cols in rounds:
                    xi[rows] += 1
                    sigma[rows] += m[cols]
            t = e
            if t == stop:
                snapshot(t)
                stop = next(stops, n_steps)
    return out


def _events_block(params, n_steps, seed, start, count, checkpoints, record):
    """Advance `count` replicates of the collapsed chain from up-step to up-step.

    Between two up-steps of a replicate its pi_n is sigma * coef[n], with
    coef[n] = rate / (n mu_{n+1}), and coef strictly decreases for every
    beta > -1: (n+1) mu_{n+2} / (n mu_{n+1}) = (n+1+beta)/n.  So from time t
    the envelope lam = sigma * env[t], with env the suffix maximum of coef,
    bounds every pi_n until the next up-step.  A geometric gap G with
    parameter lam proposes the time j = t + G, which is an up-step with
    probability pi_j / lam (thinning; Lewis and Shedler 1979, Devroye 1986
    ch. VI), and either way the replicate goes on from t = j + 1 under a
    tighter envelope.  A replicate is done when its candidate reaches n.

    Candidate k of replicate r reads draws 2k (the gap) and 2k + 1 (the
    acceptance) of its stream, so its output depends on (seed, r) alone.
    Every replicate still running is at the same candidate, so one fill of
    _EVENT_FILL draws for the running rows serves half as many rounds.
    Checkpoint values are summed from per-checkpoint deltas, and A_n from
    suffix sums of coef, which stay accurate where the terms are small.
    """
    cps = checkpoints
    width = len(cps) + 1  # up-steps after the last checkpoint land in the extra column
    d_xi = np.zeros((count, width), dtype=np.int64)
    d_sigma = np.zeros((count, width))
    d_w = np.zeros((count, width)) if "a" in record else None
    n = n_steps
    mu = _mu_array(params.beta, n)  # mu[j] = mu_{j+1}, the weight of an up-step at j
    coef = np.zeros(n)  # coef[j] at the times j = 1, ..., n - 1 of a transition
    coef[1:] = params.rate / (np.arange(1, n) * mu[1:])
    coef[1:][~np.isfinite(mu[1:])] = np.nan  # fails the guard, as in the step loop
    env = np.maximum.accumulate(coef[::-1])[::-1]  # a NaN spreads to earlier times
    tail = np.zeros(n + 1)  # tail[s] = sum of coef[s:n]
    tail[:n] = np.cumsum(coef[::-1])[::-1]
    first_cp = np.searchsorted(cps, np.arange(n + 1))  # the first checkpoint >= s
    guard = params.p + _GUARD_EPS
    rows = np.arange(count) if n > 1 else np.arange(0)
    t = np.ones(count, dtype=np.int64)
    sigma = np.ones(count)
    buf = np.empty((count, _EVENT_FILL))
    k = k_end = 0  # the current candidate, and the first one past the fill
    while rows.size:
        if k == k_end:
            # no row needs more candidates than it has times left
            rounds = min(_EVENT_FILL // 2, n - int(t.min()))
            keys = np.uint64(start) + rows.astype(np.uint64)
            uniform_rows(seed, keys, 2 * k, 2 * rounds, out=buf[: rows.size])
            pos = np.arange(rows.size)  # each row's line of `buf`
            k0, k_end = k, k + rounds
        col = 2 * (k - k0)
        e = env[t]
        lam = sigma * e
        if not lam.max() <= guard:  # a NaN fails too
            # name the first time at which the first failing row's pi_n fails
            i = np.flatnonzero(~(lam <= guard))[0]
            at = t[i] + np.flatnonzero(~(sigma[i] * coef[t[i]:] <= guard))[0]
            raise RuntimeError(f"internal consistency violated: pi_n > p at n = {at}")
        # lam = 0 (an underflowed coef) gives an infinite gap
        gap = np.full(rows.size, np.inf)
        np.divide(np.log1p(-buf[pos, col]), np.log1p(-lam), out=gap, where=lam > 0)
        j = t + np.floor(gap)
        go = j < n
        rows, pos, sigma, e = rows[go], pos[go], sigma[go], e[go]
        j = j[go].astype(np.int64)
        up = buf[pos, col + 1] * e < coef[j]
        if up.any():
            r, s = rows[up], j[up] + 1  # up-step X_s = 1
            m = mu[j[up]]
            b = first_cp[s]
            d_xi[r, b] += 1
            d_sigma[r, b] += m
            if d_w is not None:
                d_w[r, b] += m * tail[s]
            sigma[up] += m
        t = j + 1
        go = t < n
        rows, pos, t, sigma = rows[go], pos[go], t[go], sigma[go]
        k += 1
    out = {}
    xi = 1 + np.cumsum(d_xi[:, :-1], axis=1)
    sigma = 1.0 + np.cumsum(d_sigma[:, :-1], axis=1)
    if "xi" in record:
        out["xi"] = xi
    if "sigma" in record:
        out["sigma"] = sigma
    if d_w is not None:
        # A_c = 1 + sum_{s<c} sigma_s coef[s]; with sigma_s = 1 + the weights of
        # the up-steps at times <= s this is 1 + tail[1] - sigma_c tail[c] + W_c,
        # W_c the sum of mu_s tail[s] over the up-steps at times s <= c
        out["a"] = 1.0 + (tail[1] - sigma * tail[cps] + np.cumsum(d_w[:, :-1], axis=1))
    return out


def _full_block(params, n_steps, seed, start, count, checkpoints, record):
    """Full-history engine: explicit memory draws, two uniforms per step."""
    if n_steps > _FULL_MODE_MAX_STEPS:
        raise ValueError(
            f"full-history mode is an oracle, capped at {_FULL_MODE_MAX_STEPS} steps"
        )
    mu = _mu_array(params.beta, n_steps + 1)
    # cdf_rows[t] = closed-form memory CDF over {1..t} at history length t
    cdf_rows = [None, None] + [
        MemoryLaw(params.beta, t).cdf(np.arange(1, t + 1)) for t in range(2, n_steps)
    ]
    cps = checkpoints
    cp_set = {int(c): i for i, c in enumerate(cps)}
    out = {}
    if "xi" in record:
        out["xi"] = np.empty((count, len(cps)), dtype=np.int64)
    if "sigma" in record:
        out["sigma"] = np.empty((count, len(cps)), dtype=np.float64)
    if "a" in record:
        out["a"] = np.empty((count, len(cps)), dtype=np.float64)

    hist = np.zeros((count, n_steps), dtype=np.uint8)
    hist[:, 0] = 1
    xi = np.ones(count, dtype=np.int64)
    sigma = np.ones(count, dtype=np.float64)
    a = np.ones(count, dtype=np.float64)
    rows = np.arange(count)

    def snapshot(t):
        i = cp_set.get(t)
        if i is None:
            return
        if "xi" in out:
            out["xi"][:, i] = xi
        if "sigma" in out:
            out["sigma"][:, i] = sigma
        if "a" in out:
            out["a"][:, i] = a

    snapshot(1)
    if n_steps == 1:
        return out
    seg_len = min(_SEG_LEN // 2, n_steps - 1)
    buf = np.empty((count, _row_pitch(2 * seg_len) // 2, 2), dtype=np.float64)
    t = 1
    while t < n_steps:
        seg = min(seg_len, n_steps - t)
        # memory draw then retention coin: draws 2(t-1) and 2(t-1)+1
        uniforms(seed, start, count, 2 * (t - 1), 2 * seg, out=buf.reshape(count, -1))
        for col in range(seg):
            if t == 1:
                k = np.ones(count, dtype=np.int64)  # recall can only hit time 1
            else:
                k = np.searchsorted(cdf_rows[t], buf[:, col, 0], side="right") + 1
            x_mem = hist[rows, k - 1]
            x = ((buf[:, col, 1] < params.p) & (x_mem == 1)).astype(np.uint8)
            a += params.rate / (t * mu[t]) * sigma  # pi_t, before sigma updates
            hist[:, t] = x
            xi += x
            sigma += x * mu[t]
            t += 1
            snapshot(t)
    return out


def _coupled_block(params, n_steps, seed, start, count, checkpoints):
    """Collapsed chain and comparison walk driven by one shared uniform per step."""
    rate = params.rate
    if not 0.0 < rate < 1.0:
        raise ValueError(
            f"coupling needs p(beta+1) in (0, 1) to be a probability, got {rate}"
        )
    mu = _mu_array(params.beta, n_steps + 1)
    cps = checkpoints
    cp_set = {int(c): i for i, c in enumerate(cps)}
    xi_out = np.empty((count, len(cps)), dtype=np.int64)
    lerw_out = np.empty((count, len(cps)), dtype=np.int64)

    xi = np.ones(count, dtype=np.int64)
    sigma = np.ones(count, dtype=np.float64)
    xi_l = np.ones(count, dtype=np.int64)

    def snapshot(t):
        i = cp_set.get(t)
        if i is not None:
            xi_out[:, i] = xi
            lerw_out[:, i] = xi_l

    def check_order(t):
        if params.beta < 0.0:
            ok = bool(np.all(xi >= xi_l))
        elif params.beta > 0.0:
            ok = bool(np.all(xi <= xi_l))
        else:
            ok = bool(np.all(xi == xi_l))
        if not ok:
            raise AssertionError(f"pathwise coupling order violated at n = {t}")

    snapshot(1)
    if n_steps == 1:
        return xi_out, lerw_out
    guard = params.p + _GUARD_EPS
    seg_len = min(_SEG_LEN, n_steps - 1)
    buf = np.empty((count, _row_pitch(seg_len)), dtype=np.float64)
    t = 1
    while t < n_steps:
        seg = min(seg_len, n_steps - t)
        uniforms(seed, start, count, t - 1, seg, out=buf)
        for col in range(seg):
            u = buf[:, col]
            pi = rate / (t * mu[t]) * sigma
            if not pi.max() <= guard:  # a NaN fails too
                raise RuntimeError(
                    f"internal consistency violated: pi_n > p at n = {t}"
                )
            pi_l = rate / t * xi_l
            x = u < pi
            x_l = u < pi_l
            xi += x
            sigma += x * mu[t]
            xi_l += x_l
            t += 1
            check_order(t)
            snapshot(t)
    return xi_out, lerw_out


_ENGINES = {"collapsed": _collapsed_block, "events": _events_block, "full": _full_block}


def _engine(mode: str):
    try:
        return _ENGINES[mode]
    except KeyError:
        raise ValueError(f"mode must be one of {sorted(_ENGINES)}, got {mode!r}") from None


@dataclass
class Trajectory:
    """Checkpoint records (n, xi, sigma, m, a) of a single walk."""

    params: ModelParams
    seed: int
    replicate_index: int
    mode: str
    n: np.ndarray
    xi: np.ndarray
    sigma: np.ndarray
    m: np.ndarray
    a: np.ndarray


def _martingale_values(sigma: np.ndarray, n: np.ndarray, rate: float) -> np.ndarray:
    """M_n = Sigma_n / c_n(rate) at checkpoint times."""
    log_c = log_poch_ratio(n.astype(np.float64), rate)
    return sigma * np.exp(-log_c)


def run_walk(
    params: ModelParams,
    n_steps: int,
    seed: int,
    checkpoints=None,
    mode: str = "collapsed",
    replicate_index: int = 0,
) -> Trajectory:
    """Simulate one walk; deterministic given (seed, replicate_index).

    The walk is replicate `replicate_index` of the ensemble with master seed
    `seed`, so single runs and ensemble members can be compared directly.
    """
    _check_key(seed, replicate_index)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    cps = _check_checkpoints(checkpoints, n_steps)
    out = _engine(mode)(params, n_steps, seed, replicate_index, 1, cps, ("xi", "sigma", "a"))
    sigma = out["sigma"][0]
    return Trajectory(
        params=params,
        seed=seed,
        replicate_index=replicate_index,
        mode=mode,
        n=cps,
        xi=out["xi"][0],
        sigma=sigma,
        m=_martingale_values(sigma, cps, params.rate),
        a=out["a"][0],
    )


@dataclass
class EnsembleResult:
    """Per-replicate checkpoint arrays for an ensemble run."""

    params: ModelParams
    seed: int
    n_replicates: int
    mode: str
    checkpoints: np.ndarray
    arrays: dict = field(default_factory=dict)

    def martingale(self) -> np.ndarray:
        """Per-replicate M_n matrix (requires sigma to have been recorded)."""
        sigma = self.arrays["sigma"]
        log_c = log_poch_ratio(self.checkpoints.astype(np.float64), self.params.rate)
        return sigma * np.exp(-log_c)[None, :]


def _run_blocks(block_fn, args_common, n_replicates, workers, block_size):
    blocks = [
        (start, min(block_size, n_replicates - start))
        for start in range(0, n_replicates, block_size)
    ]
    if workers is None or workers <= 1 or len(blocks) == 1:
        return [block_fn(*args_common[:3], start, count, *args_common[3:])
                for start, count in blocks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(block_fn, *args_common[:3], start, count, *args_common[3:])
            for start, count in blocks
        ]
        return [f.result() for f in futures]


def run_ensemble(
    params: ModelParams,
    n_steps: int,
    n_replicates: int,
    seed: int,
    checkpoints=None,
    mode: str = "collapsed",
    record=("xi", "sigma"),
    workers: int = 1,
    block_size: int = _BLOCK_SIZE,
) -> EnsembleResult:
    """Simulate an ensemble; bit-reproducible for any `workers`/`block_size`.

    `record` selects which per-replicate checkpoint arrays to keep, from
    {"xi", "sigma", "a"}.
    """
    _check_key(seed, 0, n_replicates)
    if n_steps < 1 or n_replicates < 1:
        raise ValueError("n_steps and n_replicates must be >= 1")
    cps = _check_checkpoints(checkpoints, n_steps)
    record = tuple(record)
    unknown = set(record) - {"xi", "sigma", "a"}
    if unknown:
        raise ValueError(f"unknown record fields: {sorted(unknown)}")
    parts = _run_blocks(
        _engine(mode), (params, n_steps, seed, cps, record), n_replicates, workers, block_size
    )
    arrays = {
        name: np.concatenate([p[name] for p in parts], axis=0) for name in record
    }
    return EnsembleResult(
        params=params,
        seed=seed,
        n_replicates=n_replicates,
        mode=mode,
        checkpoints=cps,
        arrays=arrays,
    )


@dataclass
class CoupledTrajectory:
    """Paired checkpoint records of the walk and its comparison process."""

    params: ModelParams
    seed: int
    n: np.ndarray
    xi: np.ndarray
    xi_lerw: np.ndarray


def coupled_run(
    params: ModelParams,
    n_steps: int,
    seed: int,
    checkpoints=None,
    replicate_index: int = 0,
) -> CoupledTrajectory:
    """Run the walk and the rate-p(beta+1) uniform-memory walk on shared uniforms.

    The induced pathwise order (walk >= comparison for beta < 0, <= for
    beta > 0, equality at beta = 0) is asserted at every step.
    """
    _check_key(seed, replicate_index)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    cps = _check_checkpoints(checkpoints, n_steps)
    xi, xi_l = _coupled_block(params, n_steps, seed, replicate_index, 1, cps)
    return CoupledTrajectory(
        params=params, seed=seed, n=cps, xi=xi[0], xi_lerw=xi_l[0]
    )


@dataclass
class CoupledEnsembleResult:
    params: ModelParams
    seed: int
    n_replicates: int
    checkpoints: np.ndarray
    xi: np.ndarray
    xi_lerw: np.ndarray


def run_coupled_ensemble(
    params: ModelParams,
    n_steps: int,
    n_replicates: int,
    seed: int,
    checkpoints=None,
    workers: int = 1,
    block_size: int = _BLOCK_SIZE,
) -> CoupledEnsembleResult:
    """Coupled ensemble; raises AssertionError on any pathwise order violation."""
    _check_key(seed, 0, n_replicates)
    if n_steps < 1 or n_replicates < 1:
        raise ValueError("n_steps and n_replicates must be >= 1")
    cps = _check_checkpoints(checkpoints, n_steps)
    parts = _run_blocks(
        _coupled_block, (params, n_steps, seed, cps), n_replicates, workers, block_size
    )
    return CoupledEnsembleResult(
        params=params,
        seed=seed,
        n_replicates=n_replicates,
        checkpoints=cps,
        xi=np.concatenate([p[0] for p in parts], axis=0),
        xi_lerw=np.concatenate([p[1] for p in parts], axis=0),
    )
