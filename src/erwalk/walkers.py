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
* `collapsed` reads one uniform per replicate and step and makes one numpy
  pass per time step, so the work goes per step.  It wins on dense walks
  and short horizons, and it is the bit-pinned reference.

The two read their streams differently, so they agree in law, not in bits.
Every simulator call defaults to mode "auto", which picks one of the two
from the inputs; a call that pins bits names its engine.
With "xi_lerw" recorded, the collapsed engine also runs the uniform-memory
walk of rate p(beta+1) (Harbola, Kumar and Lindenberg 2014) on the same
uniform per step, and asserts their pathwise order.  The full-history
simulator draws the recalled time explicitly, by inverting the memory
law's closed-form CDF on the run's own weights, and serves as a
differential oracle.
Every draw is a pure function of (seed, stream, position) in the
counter-based streams of `streams`, so results are bit-identical under any
block size or worker count.  The per-step engines key a stream per time
step: transition n of replicate r reads draw r (collapsed) or draws 2r and
2r + 1 (full) of stream (seed, n), so a block's draws for one step are one
contiguous row.  The events engine keys a stream per replicate: candidate k
of replicate r reads draws 2k and 2k + 1 of stream (seed, r).  It fills
the draws of the rows still running a few candidates at a time, the first
fill shorter than the later ones, and scatter-adds each round's up-steps
into per-checkpoint deltas, held in its rows of the result.

`run_walk` and `run_ensemble` both go through `_run`: it checks the key,
worker count, horizon (at most MAX_STEPS, and short enough that
n mu_{n+1} is a finite double; _FULL_MODE_MAX_STEPS in mode "full"), the
coupling's rate, checkpoints, mode and recorded fields before
any work, resolves mode "auto" (`_resolve_mode`, the one place that picks
an engine: events when the walk expects at most AUTO_EVENTS_MAX_RATE
up-steps per step, else collapsed; the result records the engine that
ran), and builds one `_Plan` of what every block reads:
mu = c_values(beta, n_steps + 1), coef and the guard, O(n) doubles.
`_run` allocates the result once, zeroed, and every engine is
`engine(plan, start, count, out)`: it writes replicates start, ...,
start + count - 1 into `out`, its rows of the result, and returns None.
The blocks of replicates that `_run` sizes run in this process or as
tasks of `_fan_out`, the package's one process pool; on its forked
workers the result is one shared anonymous mapping, which each worker
writes in place.  The per-step engines (collapsed and full) are a
set-up plus a kernel that
advances their state one step at a time from one time to a later one;
`_drive` owns the draws, fills them a tile of steps at a time, cuts time
at tile ends and checkpoints, and writes the checkpoints into `out`.
A single walk is a one-replicate run.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from .gammaratio import _DIRECT_MAX_XI, c_values, log_poch_ratio
from .streams import _check_key, _is_int, uniform_rows

__all__ = [
    "MAX_STEPS",
    "ModelParams",
    "geometric_checkpoints",
    "Trajectory",
    "run_walk",
    "EnsembleResult",
    "run_ensemble",
]

#: slack for the pi_n <= p internal-consistency guard
_GUARD_EPS = 1e-9
#: |beta - p/(1-p)| below this counts as exactly critical
CRITICAL_TOL = 1e-12
#: the longest horizon a simulator takes; each run holds mu_1..mu_{n+1} and a
#: few more arrays of n doubles per block
MAX_STEPS = 1 << 23
#: log of the largest double; n mu_{n+1}, the largest number a run forms,
#: must stay below it
_LOG_DBL_MAX = math.log(sys.float_info.max)
#: `_longest_horizon` sums log1p(beta/k) over this many k before it turns to
#: `log_poch_ratio`, which refuses beta past 1e6; a beta that has not
#: overflowed by then is below about 300
_HORIZON_SCAN = 1024
#: the full-history simulator is an oracle; it holds a byte of history per
#: replicate and step (8 MiB for a block of _BLOCK_SIZE at the cap)
_FULL_MODE_MAX_STEPS = 4096
#: mode "auto" runs the events engine up to this many expected up-steps
#: per step, else the collapsed engine; README has the timings behind it
AUTO_EVENTS_MAX_RATE = 0.04

#: replicates per call of a per-step engine (collapsed, full), and so the
#: draws per step of its fill (twice that in full mode); each block is one
#: task when workers > 1
_BLOCK_SIZE = 2048
#: draws per fill of a per-step engine, a row of draws * count per step (1
#: MiB): a 2048-replicate collapsed block fills tiles of 64 steps, one
#: re-keyed row a step, that stay in L2 while its kernel reads them; a
#: block of a few replicates fills thousands of steps at once, whose short
#: rows go to the streams' array kernel
_TILE_DRAWS = 1 << 17
#: draws per running replicate of each fill of the events engine after the
#: first, two per candidate; the streams' array kernel takes rows of up to
#: 48.  The fill buffer is part of what an events block holds per row
#: (`_events_row_bytes`)
_EVENT_FILL = 48
#: draws per replicate of the events engine's first fill, which every row
#: gets; at most _EVENT_FILL.  At (0.5, 1), 1e4 steps, seed 3, 53% of rows
#: stop within 8 candidates, so the 1e4-replicate run fills 475k draws,
#: where fills of 48 filled 606k for the 304k it reads.  Fastest of 15
#: interleaved runs (2-core Xeon VM, numpy 2.4), first fills of 8, 16, 24,
#: 32 and 48 draws took 40.3, 37.5, 39.8, 45.0 and 45.3 ms there, and 13.5,
#: 9.9, 12.0, 15.2 and 15.3 ms at (0.5, 2), 1e4 steps, 4000 replicates
_EVENT_FIRST_FILL = 16
#: bytes an events block may hold by its rows (`_events_row_bytes`): its
#: rows of the result, where it sums its deltas, and its per-row scratch;
#: 26,214 rows of a 1e4-step run recording xi and sigma at its 48
#: geometric checkpoints.  The events engine pays per round, fill and tail
#: round whatever the rows, so it runs the fewest blocks this allows
_EVENTS_SCRATCH = 32 << 20
#: per-row vectors of the events engine's rounds (the running rows, their
#: times, sigmas, fill lines, gaps, envelopes and the filtered copies)
_EVENT_ROW_WORDS = 16
#: multiplies per pass of `geometric_checkpoints`
_CHECKPOINT_CHUNK = 1 << 15


@dataclass(frozen=True)
class ModelParams:
    """Memory parameter p in (0,1) and finite power-law exponent beta > -1."""

    p: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not -1.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > -1, got {self.beta}")

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
    def is_localized(self) -> bool:
        """beta above the phase boundary, and not within CRITICAL_TOL of it."""
        return self.beta > self.critical_beta and not self.is_critical

    @property
    def growth_exponent(self) -> float:
        """p(beta+1) - beta, the mean-growth exponent below the boundary."""
        return self.rate - self.beta


def geometric_checkpoints(n_max: int, ratio: float = 1.2) -> np.ndarray:
    """Geometrically spaced checkpoint times 1, ..., n_max (inclusive, unique).

    The times are 1, the distinct ceil(ratio^j) below n_max, and n_max, with
    ratio^j formed by one multiply per j.  When (ratio - 1) n_max <= 1 no
    step of ratio^j below n_max exceeds 1, so every integer is a time.
    """
    if not (_is_int(n_max) and n_max >= 1):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    if not 1.0 < ratio < math.inf:
        raise ValueError(f"ratio must be finite and exceed 1, got {ratio}")
    if (ratio - 1.0) * n_max <= 1.0:
        return np.arange(1, n_max + 1, dtype=np.int64)
    parts, x = [[1.0, n_max]], 1.0
    while True:
        # about enough multiplies to pass n_max, so x stays finite
        count = min(_CHECKPOINT_CHUNK, int(math.log(n_max / x) / math.log(ratio)) + 1)
        xs = np.cumprod(np.concatenate(([x], np.full(count, ratio))))[1:]
        v = np.ceil(xs)  # nondecreasing
        parts.append(_sorted_unique(v[v < n_max]))
        if v[-1] >= n_max:
            return _sorted_unique(np.concatenate(parts)).astype(np.int64)
        x = xs[-1]


def _check_checkpoints(checkpoints, n_steps: int) -> np.ndarray:
    if checkpoints is None:
        return geometric_checkpoints(n_steps)
    raw = np.ravel(checkpoints)
    if not (
        raw.size
        and raw.dtype.kind in "iuf"
        and np.all((raw >= 1) & (raw <= n_steps) & (raw == np.floor(raw)))
    ):
        raise ValueError("checkpoints must be integers in [1, n_steps]")
    return _sorted_unique(raw.astype(np.int64))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-d array `a`, ascending: np.unique without
    its masked-array check, which imports numpy.ma on first call."""
    a = np.sort(a)
    keep = np.ones(a.shape, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


@dataclass(frozen=True)
class _Plan:
    """What every block of one simulator call reads; engines write nothing to it.

    mu[n] = mu_{n+1}, and coef[n] = rate / (n mu_{n+1}) (coef[0] = 0), so
    pi_n = coef[n] sigma_n, which must stay at or below `guard`.
    """

    params: ModelParams
    n_steps: int
    seed: int
    checkpoints: np.ndarray
    record: tuple
    mu: np.ndarray
    coef: np.ndarray
    guard: float


def _plan(params, n_steps, seed, checkpoints, record) -> _Plan:
    """The plan of a checked call."""
    mu = c_values(params.beta, n_steps + 1)
    coef = np.zeros(n_steps)
    coef[1:] = params.rate / (np.arange(1, n_steps) * mu[1:n_steps])
    return _Plan(params, n_steps, seed, checkpoints, record, mu, coef, params.p + _GUARD_EPS)


def _drive(plan, kernel, state, draws, start, count, out):
    """Run a per-step engine over one block of `plan` into its rows `out`.

    `state` maps names to the per-replicate arrays that `kernel(u, t, e)`
    advances in place from time t to time e; u holds the draws of the
    transitions t, ..., e - 1, one row per step: shape (e - t, count) at
    `draws` = 1, (e - t, count, 2) at 2.  Transition n of replicate r reads
    draws draws * r, ... of the stream keyed (seed, n), so each step's draws
    for the block are one contiguous row, filled by one `uniform_rows` call
    per tile of steps.  A tile holds at most _TILE_DRAWS draws (one step at
    least); the driver cuts it at the checkpoints and at each one copies
    every state array named in `out` into its column there.  It runs on to
    n_steps after the last checkpoint, so every step meets its guard.
    """
    n_steps, checkpoints = plan.n_steps, plan.checkpoints
    cp_index = {int(c): i for i, c in enumerate(checkpoints)}

    def snapshot(t):
        i = cp_index.get(t)
        if i is not None:
            for name, rows in out.items():
                rows[:, i] = state[name]

    snapshot(1)
    if n_steps == 1:
        return
    width = draws * count
    tile = max(1, min(_TILE_DRAWS // width, n_steps - 1))
    buf = np.empty((tile, width))
    rows = buf if draws == 1 else buf.reshape(tile, count, draws)
    stops = iter([int(c) for c in checkpoints if c > 1])
    stop = next(stops, n_steps)
    t = 1
    while t < n_steps:
        t0 = t
        seg = min(tile, n_steps - t)
        steps = np.arange(t0, t0 + seg, dtype=np.uint64)
        uniform_rows(plan.seed, steps, draws * start, width, out=buf[:seg])
        while t < t0 + seg:
            e = min(t0 + seg, stop)
            kernel(rows[t - t0 : e - t0], t, e)
            t = e
            if t == stop:
                snapshot(t)
                stop = next(stops, n_steps)


def _collapsed_block(plan, start, count, out):
    """Advance `count` replicates of the collapsed chain, recording into `out`.

    One numpy pass per time step: pi_n = coef[n] sigma is checked against the
    guard, then every replicate whose draw v is below its pi_n steps up.  This
    is the bit-pinned reference of the Monte Carlo engines.  With "xi_lerw"
    recorded, the comparison walk xi_l steps up on the same draw when
    v < rate / n * xi_l, and the pathwise order (xi >= xi_l for beta < 0,
    <= for beta > 0, equality at beta = 0) is asserted after every step.
    """
    rate, mu, coef, guard = plan.params.rate, plan.mu, plan.coef, plan.guard
    xi = np.ones(count, dtype=np.int64)
    sigma = np.ones(count)
    a = np.ones(count) if "a" in plan.record else None
    xi_l = np.ones(count, dtype=np.int64) if "xi_lerw" in plan.record else None
    if plan.params.beta < 0.0:
        in_order = np.greater_equal
    elif plan.params.beta > 0.0:
        in_order = np.less_equal
    else:
        in_order = np.equal

    def kernel(u, t, e):
        for n in range(t, e):
            v = u[n - t]
            pi = coef[n] * sigma
            if not pi.max() <= guard:  # a NaN fails too
                raise RuntimeError(f"internal consistency violated: pi_n > p at n = {n}")
            x = v < pi
            np.add(xi, x, out=xi)
            np.add(sigma, x * mu[n], out=sigma)
            if a is not None:
                np.add(a, pi, out=a)
            if xi_l is not None:
                np.add(xi_l, v < rate / n * xi_l, out=xi_l)
                if not in_order(xi, xi_l).all():
                    raise AssertionError(f"pathwise coupling order violated at n = {n + 1}")

    state = {"xi": xi, "sigma": sigma, "a": a, "xi_lerw": xi_l}
    _drive(plan, kernel, state, 1, start, count, out)


def _events_block(plan, start, count, out):
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
    acceptance) of its stream, so its output depends on (seed, r) alone,
    however the draws are filled.  Every replicate still running is at the
    same candidate, so one fill of the running rows serves a run of rounds:
    the first gives every row _EVENT_FIRST_FILL draws, as most rows of a
    sparse walk stop within a few candidates, and each later one gives the
    rows still running _EVENT_FILL; no fill reaches past the candidates a
    row has times left for.  Each round scatter-adds its up-steps
    (np.add.at) into flat views of per-checkpoint deltas: the zeroed rows
    `out` of the result, and a scratch array for sigma's when sigma is not
    recorded.  A row steps up at most once a round, so each cell receives
    its additions in round order, whatever the fills.  Checkpoint values
    are summed in place from the deltas, and A_n from suffix sums of coef,
    which stay accurate where the terms are small.
    """
    cps, n = plan.checkpoints, plan.n_steps
    width = len(cps)
    d_xi, d_w = out.get("xi"), out.get("a")
    d_sigma = out["sigma"] if "sigma" in out else np.zeros((count, width))
    # flat views of the deltas: row r's delta at checkpoint b is cell r *
    # width + b; assigning the shape raises where reshape would copy
    xi_cells, sigma_cells, w_cells = (
        None if d is None else d.view() for d in (d_xi, d_sigma, d_w)
    )
    for cells in (xi_cells, sigma_cells, w_cells):
        if cells is not None:
            cells.shape = -1
    past = cps[-1] < n  # up-steps after the last checkpoint are recorded nowhere
    mu = plan.mu[:n]  # mu[j] = mu_{j+1}, the weight of an up-step at j
    coef = plan.coef  # coef[j] at the times j = 1, ..., n - 1 of a transition
    if not np.isfinite(mu).all():  # NaN fails the guard, as in the step loop
        coef = np.where(np.isfinite(mu), coef, np.nan)  # a copy: the plan's stays
    env = np.maximum.accumulate(coef[::-1])[::-1]  # a NaN spreads to earlier times
    tail = np.zeros(n + 1)  # tail[s] = sum of coef[s:n]
    tail[:n] = np.cumsum(coef[::-1])[::-1]
    # first_cp[s] = the first checkpoint >= s, for s = 0, ..., n
    first_cp = np.repeat(np.arange(width + 1), np.diff(cps, prepend=-1, append=n))
    rows = np.arange(count) if n > 1 else np.arange(0)
    t = np.ones(count, dtype=np.int64)
    sigma = np.ones(count)
    buf = np.empty(count * _EVENT_FILL)  # the first fill is no longer
    fill = _EVENT_FIRST_FILL
    k = k_end = 0  # the current candidate, and the first one past the fill
    while rows.size:
        if k == k_end:
            # no row needs more candidates than it has times left
            rounds = min(fill // 2, n - int(t.min()))
            keys = np.uint64(start) + rows.astype(np.uint64)
            lines = buf[: rows.size * 2 * rounds].reshape(rows.size, 2 * rounds)
            uniform_rows(plan.seed, keys, 2 * k, 2 * rounds, out=lines)
            pos = np.arange(rows.size)  # each row's line of `lines`
            k0, k_end, fill = k, k + rounds, _EVENT_FILL
        col = 2 * (k - k0)
        e = env[t]
        lam = sigma * e
        if not lam.max() <= plan.guard:  # a NaN fails too
            # name the first time at which the first failing row's pi_n fails
            i = np.flatnonzero(~(lam <= plan.guard))[0]
            at = t[i] + np.flatnonzero(~(sigma[i] * coef[t[i]:] <= plan.guard))[0]
            raise RuntimeError(f"internal consistency violated: pi_n > p at n = {at}")
        # lam = 0 (an underflowed coef) gives an infinite gap
        gap = np.full(rows.size, np.inf)
        np.divide(np.log1p(-lines[pos, col]), np.log1p(-lam), out=gap, where=lam > 0)
        j = t + np.floor(gap)
        go = j < n
        rows, pos, sigma, e = rows[go], pos[go], sigma[go], e[go]
        j = j[go].astype(np.int64)
        up = lines[pos, col + 1] * e < coef[j]
        if up.any():
            r, s = rows[up], j[up] + 1  # up-step X_s = 1
            m = mu[j[up]]
            sigma[up] += m
            b = first_cp[s]
            if past:
                keep = b < width
                r, s, m, b = r[keep], s[keep], m[keep], b[keep]
            # a row steps up at most once a round, so each cell gets its
            # additions in round order
            cell = r * width + b
            if xi_cells is not None:
                np.add.at(xi_cells, cell, 1)
            np.add.at(sigma_cells, cell, m)
            if w_cells is not None:
                np.add.at(w_cells, cell, m * tail[s])
        t = j + 1
        go = t < n
        rows, pos, t, sigma = rows[go], pos[go], t[go], sigma[go]
        k += 1
    if d_xi is not None:
        np.cumsum(d_xi, axis=1, out=d_xi)
        d_xi += 1
    np.cumsum(d_sigma, axis=1, out=d_sigma)
    d_sigma += 1.0  # sigma at the checkpoints
    if d_w is not None:
        # A_c = 1 + sum_{s<c} sigma_s coef[s]; with sigma_s = 1 + the weights of
        # the up-steps at times <= s this is 1 + tail[1] - sigma_c tail[c] + W_c,
        # W_c the sum of mu_s tail[s] over the up-steps at times s <= c
        np.cumsum(d_w, axis=1, out=d_w)
        v = d_sigma if "sigma" not in out else np.empty_like(d_sigma)
        np.multiply(d_sigma, tail[cps], out=v)
        np.subtract(tail[1], v, out=v)
        np.add(v, d_w, out=d_w)
        np.add(1.0, d_w, out=d_w)


def _recall_weights(mu: np.ndarray, n_steps: int) -> np.ndarray:
    """g[m - 1] = m mu_{m+1} for m = 1, ..., n_steps - 1.

    The memory CDF at history length t is g[:t] / g[t - 1], the closed form
    m mu_{m+1} / (t mu_{t+1}) of `memory.MemoryLaw.cdf` on the run's own mu.
    """
    return np.arange(1, n_steps) * mu[1:n_steps]


def _full_block(plan, start, count, out):
    """Full-history engine: explicit memory draws, two uniforms per step.

    Step n reads the memory draw u, recalls the smallest time k with
    cdf(k) > u, found as k - 1 = #{m <= n : g[m - 1] <= u g[n - 1]} by a
    binary search of the recall weights g, then reads the retention coin.
    """
    p, mu, coef = plan.params.p, plan.mu, plan.coef
    g = _recall_weights(mu, plan.n_steps)
    hist = np.zeros((count, plan.n_steps), dtype=np.uint8)
    hist[:, 0] = 1
    xi = np.ones(count, dtype=np.int64)
    sigma = np.ones(count)
    a = np.ones(count)
    rows = np.arange(count)

    # the kernels update the driver's state arrays in place (np.add with out=)
    def kernel(u, t, e):
        for n in range(t, e):
            draw = u[n - t]
            k = np.searchsorted(g[:n], draw[:, 0] * g[n - 1], side="right") + 1
            x_mem = hist[rows, k - 1]
            x = ((draw[:, 1] < p) & (x_mem == 1)).astype(np.uint8)
            np.add(a, coef[n] * sigma, out=a)  # pi_n, before sigma moves
            hist[:, n] = x
            np.add(xi, x, out=xi)
            np.add(sigma, x * mu[n], out=sigma)

    state = {"xi": xi, "sigma": sigma, "a": a}
    _drive(plan, kernel, state, 2, start, count, out)


#: the per-replicate arrays of a walk, with their dtypes
_WALK_FIELDS = {"xi": np.int64, "sigma": np.float64, "a": np.float64}
#: mode -> (engine, the per-replicate arrays it can record, with their dtypes)
_ENGINES = {
    "collapsed": (_collapsed_block, {**_WALK_FIELDS, "xi_lerw": np.int64}),
    "events": (_events_block, _WALK_FIELDS),
    "full": (_full_block, _WALK_FIELDS),
}


def _resolve_mode(mode: str, params: ModelParams, n_steps: int) -> str:
    """The engine that mode `mode` runs for `params` to horizon `n_steps`.

    Any mode but "auto" is its own engine.  The events engine costs per
    candidate up-step and the collapsed engine per step, so "auto" takes
    events when the walk expects at most AUTO_EVENTS_MAX_RATE up-steps per
    step, (E[Xi_n] - 1)/(n - 1).  In the localized phase E[Xi_n] rises to
    beta/(beta - p(beta+1)), so when that limit already puts the rate under
    the threshold no Gamma ratio is formed; that is what lets "auto" run at
    an exponent past the direct path's limit (1e6), where `exact_mean_xi`
    raises.  When the bound does not settle it there, "auto" takes
    collapsed, which wins at short horizons: at such an exponent a run is a
    few dozen steps long at most (`_longest_horizon` is 64 at 1.5e6, 53 at
    1e7).
    """
    if mode != "auto":
        return mode
    if n_steps < 2:
        return "collapsed"
    from .exact import exact_mean_xi, limit_mean_xi  # exact imports this module

    if params.is_localized:
        if (limit_mean_xi(params) - 1.0) / (n_steps - 1) <= AUTO_EVENTS_MAX_RATE:
            return "events"
    if max(params.beta, params.rate) > _DIRECT_MAX_XI:
        return "collapsed"
    rate = (exact_mean_xi(n_steps, params) - 1.0) / (n_steps - 1)
    return "events" if rate <= AUTO_EVENTS_MAX_RATE else "collapsed"


def _run(params, n_steps, seed, checkpoints, mode, record, start, count, workers):
    """Replicates start, ..., start + count - 1 of a simulator call.

    Checks the key, counts, horizon, coupling rate, checkpoints, mode and
    fields before any work, resolves "auto", builds the call's `_Plan`,
    allocates the result, zeroed, and runs the engine on blocks of
    replicates, each a task (engine, (plan, start, count, rows)) of
    `_fan_out` over `workers`, with `rows` the block's rows of the result.
    The plan is O(n) doubles, a small part of a block's work.  When the
    tasks go to forked workers the result is one shared anonymous mapping,
    so each worker writes its rows in place and pipes back only None (a
    process forked later shares it too); else it is numpy's zeroed arrays.
    A failed or dead worker raises here before the result is returned.
    The per-step engines take blocks of _BLOCK_SIZE.  The events engine
    takes as many rows as _EVENTS_SCRATCH bytes of its rows allow, and at
    most count / workers, so that every worker gets a block, as long as
    each such block holds _BLOCK_SIZE rows: an ensemble of fewer than
    2 _BLOCK_SIZE rows runs as one block.  Returns (checkpoints, engine,
    {field: C-contiguous array of shape (count, len(checkpoints))}).
    """
    for name, value, least in (("n_steps", n_steps, 1), ("n_replicates", count, 1),
                               ("replicate_index", start, 0)):
        if not (_is_int(value) and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    _check_key(seed, start, count)
    _check_workers(workers)
    if n_steps > MAX_STEPS:
        raise ValueError(f"n_steps = {n_steps} exceeds the cap MAX_STEPS = {MAX_STEPS}")
    longest = _longest_horizon(params.beta, n_steps)
    if n_steps > longest:
        raise ValueError(
            f"n_steps = {n_steps} is too long for beta = {params.beta}: the memory"
            f" weights overflow a double past n = {longest}, the longest horizon"
            " this beta allows"
        )
    if mode == "full" and n_steps > _FULL_MODE_MAX_STEPS:
        raise ValueError(
            f"full-history mode is an oracle, capped at {_FULL_MODE_MAX_STEPS} steps"
        )
    record = tuple(record)
    if "xi_lerw" in record and not 0.0 < params.rate < 1.0:
        raise ValueError(
            f"coupling needs p(beta+1) in (0, 1) to be a probability, got {params.rate}"
        )
    cps = _check_checkpoints(checkpoints, n_steps)
    mode = _resolve_mode(mode, params, n_steps)
    if mode not in _ENGINES:
        raise ValueError(f"mode must be 'auto' or one of {sorted(_ENGINES)}, got {mode!r}")
    engine, fields = _ENGINES[mode]
    unknown = set(record) - set(fields)
    if unknown:
        raise ValueError(
            f"mode {mode!r} cannot record {sorted(unknown)}; it records {tuple(fields)}"
        )
    plan = _plan(params, n_steps, seed, cps, record)
    if mode == "events":
        size = max(1, _EVENTS_SCRATCH // _events_row_bytes(len(cps), record))
        # a block per worker, but no more blocks than hold _BLOCK_SIZE rows
        # each: a process pool costs more than a small block saves
        split = max(1, min(workers, count // _BLOCK_SIZE))
        size = min(size, -(-count // split))
    else:
        size = _BLOCK_SIZE
    end = start + count
    blocks = [(s, min(size, end - s)) for s in range(start, end, size)]
    shape = (count, len(cps))
    if workers > 1 and len(blocks) > 1 and hasattr(os, "fork"):  # `_fan_out` forks
        cells = math.prod(shape)
        nbytes = sum(cells * np.dtype(fields[name]).itemsize for name in record)
        shared = mmap.mmap(-1, max(1, nbytes))  # zero-filled; no length 0
        arrays, at = {}, 0
        for name in record:
            arrays[name] = np.frombuffer(shared, fields[name], cells, at).reshape(shape)
            at += arrays[name].nbytes
    else:
        arrays = {name: np.zeros(shape, fields[name]) for name in record}
    tasks = [
        (engine, (plan, s, c, {name: x[s - start : s - start + c] for name, x in arrays.items()}))
        for s, c in blocks
    ]
    list(_fan_out(tasks, workers))  # Nones; the first failure raises here
    return cps, mode, arrays


def _longest_horizon(beta: float, n_max: int) -> int:
    """The longest horizon n <= n_max whose n mu_{n+1} is below the largest double.

    log(n mu_{n+1}) = log n + sum_{k <= n} log1p(beta/k) grows with n.  The
    sum runs term by term up to _HORIZON_SCAN, accurate for any beta; past
    that, log_poch_ratio gives it, bisected over the horizons.
    """
    k = np.arange(1.0, min(n_max, _HORIZON_SCAN) + 1.0)
    over = np.flatnonzero(np.log(k) + np.cumsum(np.log1p(beta / k)) >= _LOG_DBL_MAX)
    if over.size or n_max <= _HORIZON_SCAN:
        return int(over[0]) if over.size else n_max

    def fits(n):
        return math.log(n) + log_poch_ratio(n + 1.0, beta) < _LOG_DBL_MAX

    if fits(n_max):
        return n_max
    lo, hi = _HORIZON_SCAN, n_max  # fits(lo), not fits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _check_workers(workers) -> None:
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def _pool_size(n_tasks: int, per_cpu: int = 1) -> int:
    """Workers for `n_tasks` tasks: 1 on a single CPU, else at most
    `per_cpu` per CPU this process may run on and one per task.

    `report` runs one worker per CPU (`report._FAN_OUT_MIN_REPS` has its
    timings) and `erwalk exact` two (`cli._EXACT_WORKERS_PER_CPU`).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return 1 if cpus < 2 else min(per_cpu * cpus, n_tasks)


def _fan_out(tasks, workers: int, order=None):
    """The results of `tasks`, handed over in task order as they arrive,
    run over `workers` forked processes.

    The package's one process pool: `run_ensemble`'s blocks, the gates of
    `report.run_gates` and the points of `erwalk exact` run here, each
    caller deciding with its own rule whether a run is worth a pool.  A
    task is a pair (function, arguments); the workers inherit the task
    list through the fork, so only results (and exceptions) pickle, each
    back over its worker's own pipe.  A block of `run_ensemble` writes its
    rows of a shared mapping in place, so its result is None.  An idle
    worker is sent the index of the next task in `order` (indices into
    `tasks`; task order by default) over a pipe of its own, which so never
    holds more than one index, and this process reads every reply pipe as
    data comes (poll), so no worker waits on a full pipe while another is
    drained.  The results come back in task order, so a caller that writes
    them in that order writes what it would have written running them
    itself.  With fewer than two workers or tasks, or where `os.fork` does
    not exist, the tasks run in this process, in task order, each when its
    result is asked for.

    The first task in task order that raises re-raises here with its type
    and message; a worker that ends without reporting its task raises
    RuntimeError.  Every worker has ended and been reaped before the last
    result is handed over, and on any other way out (a raise, or the
    caller closing the iterator or interrupted) the remaining ones are
    killed and reaped.  Their memory is not in this process's peak RSS
    (`RUSAGE_SELF`); it shows under `RUSAGE_CHILDREN`.
    """
    workers = min(workers, len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        for fn, args in tasks:
            yield fn(*args)
        return
    pending = list(range(len(tasks)) if order is None else order)[::-1]  # next at the end
    procs = {}  # read end of a worker's reply pipe -> its _Worker
    idle = []  # workers with a pipe open and no task
    replies = select.poll()  # unlike select.select, takes any fd number
    done = {}  # task index -> (ok, result or exception), until handed over
    want, last = 0, len(tasks) - 1

    def feed():
        # hand idle workers the next tasks, or close them once none is left
        while idle:
            idle.pop().assign(pending.pop() if pending else None)

    _flush_std()  # what this process has printed is not the workers' to write
    try:
        for _ in range(workers):
            take_r, take_w = os.pipe()
            reply_r, reply_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (take_r, take_w, reply_r, reply_w):
                    os.close(fd)
                raise
            if pid == 0:
                status = 1
                try:
                    for fd, w in procs.items():
                        os.close(fd)
                        w.close()
                    os.close(take_w)
                    os.close(reply_r)
                    _serve(tasks, take_r, reply_w)
                    _flush_std()
                    status = 0
                finally:
                    os._exit(status)
            procs[reply_r] = w = _Worker(pid, take_w)
            replies.register(reply_r, select.POLLIN)
            os.close(take_r)
            os.close(reply_w)
            idle.append(w)
            feed()
        while procs:
            for fd, _ in replies.poll():
                w = procs[fd]
                got = os.readv(fd, [memoryview(w.reply)[w.got:]])
                if not got:  # the worker has ended
                    del procs[fd]
                    replies.unregister(fd)
                    os.close(fd)
                    asked = w.take is None  # it ends once its pipe of tasks is closed
                    w.close()
                    status = os.waitpid(w.pid, 0)[1]
                    if not asked:
                        raise RuntimeError(
                            f"a fan-out worker ended running task {w.task}, exit"
                            f" status {os.waitstatus_to_exitcode(status)}"
                        )
                    continue
                w.got += got
                if w.got < len(w.reply):
                    continue
                if w.head:
                    w.reply = bytearray(int.from_bytes(w.reply, "little"))
                else:
                    done[w.task] = pickle.loads(w.reply)
                    w.reply, w.task = bytearray(8), None
                    idle.append(w)
                w.head, w.got = not w.head, 0
            feed()
            while want in done:
                if not done[want][0]:
                    raise done[want][1]
                if want == last and procs:  # handed over once every worker is reaped
                    break
                want += 1
                yield done.pop(want - 1)[1]
    finally:
        for w in procs.values():
            os.kill(w.pid, signal.SIGKILL)
        for fd, w in procs.items():
            os.close(fd)
            w.close()
            os.waitpid(w.pid, 0)


@dataclass(eq=False)
class _Worker:
    """A worker of `_fan_out`: its pid, the write end of its pipe of task
    indices (None once closed), the task it runs (None when it runs none),
    and the reply it is sending: an 8-byte length (`head`), then the pickle."""

    pid: int
    take: int | None
    task: int | None = None
    reply: bytearray = field(default_factory=lambda: bytearray(8))
    got: int = 0
    head: bool = True

    def assign(self, task) -> None:
        """Hand the worker `task`, or with None close its pipe, so it ends."""
        self.task = task
        if task is None:
            self.close()
            return
        try:  # into an empty pipe: the worker read its last index
            os.write(self.take, int(task).to_bytes(8, "little"))
        except BrokenPipeError:  # it has ended; its reply pipe's end raises
            pass

    def close(self) -> None:
        if self.take is not None:
            os.close(self.take)
            self.take = None


def _flush_std() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _serve(tasks, take: int, reply: int) -> None:
    """A `_fan_out` worker's loop: run the task of each index read from
    `take` until its end, and write (ok, result or exception) to `reply`,
    pickled after its 8-byte length."""
    while index := os.read(take, 8):
        fn, args = tasks[int.from_bytes(index, "little")]
        try:
            data = pickle.dumps((True, fn(*args)), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # the result may not pickle either
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        os.write(reply, len(data).to_bytes(8, "little"))  # into an empty pipe
        view = memoryview(data)
        while view:
            view = view[os.write(reply, view):]


def _events_row_bytes(n_checkpoints: int, record) -> int:
    """Bytes per replicate of an events block recording `record`.

    The per-checkpoint deltas (xi's, sigma's and A_n's rows of the result
    when recorded, and sigma's as scratch when not), the fill buffer and
    the rounds' per-row vectors.
    """
    deltas = 1 + ("xi" in record) + ("a" in record)
    return 8 * (deltas * n_checkpoints + _EVENT_FILL + _EVENT_ROW_WORDS)


def _martingale_factor(n: np.ndarray, rate: float) -> np.ndarray:
    """1 / c_n(rate) at the checkpoint times n: M_n = Sigma_n / c_n(rate) is
    Sigma_n times it, with the times along the last axis.

    log c_n(rate) is `log_poch_ratio` up to _DIRECT_MAX_XI.  Past it, where
    that refuses, it is the running sum of log1p(rate/k) over k < n, as
    `_longest_horizon` forms it; such a rate keeps every horizon short.
    """
    if rate <= _DIRECT_MAX_XI:
        return np.exp(-log_poch_ratio(n.astype(np.float64), rate))
    log_c = np.concatenate(([0.0], np.cumsum(np.log1p(rate / np.arange(1.0, n.max())))))
    return np.exp(-log_c[n - 1])


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


def run_walk(
    params: ModelParams,
    n_steps: int,
    seed: int,
    checkpoints=None,
    mode: str = "auto",
    replicate_index: int = 0,
) -> Trajectory:
    """Simulate one walk; deterministic given (seed, replicate_index).

    The walk is replicate `replicate_index` of the ensemble with master seed
    `seed` and the same engine, so single runs and ensemble members can be
    compared directly.  Mode "auto" (the default) picks the engine as in
    `run_ensemble`; `mode` of the result is the engine that ran.
    """
    cps, mode, out = _run(
        params, n_steps, seed, checkpoints, mode, _WALK_FIELDS, replicate_index, 1, 1
    )
    sigma = out["sigma"][0]
    return Trajectory(
        params=params,
        seed=seed,
        replicate_index=replicate_index,
        mode=mode,
        n=cps,
        xi=out["xi"][0],
        sigma=sigma,
        m=sigma * _martingale_factor(cps, params.rate),
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


def run_ensemble(
    params: ModelParams,
    n_steps: int,
    n_replicates: int,
    seed: int,
    checkpoints=None,
    mode: str = "auto",
    record=("xi", "sigma"),
    workers: int = 1,
) -> EnsembleResult:
    """Simulate an ensemble; bit-reproducible for any `workers`.

    `record` selects which per-replicate checkpoint arrays to keep: any of
    "xi", "sigma" and "a" in the collapsed, events and full modes.  Mode
    "collapsed" also records "xi_lerw", the uniform-memory walk of rate
    p(beta+1) < 1 driven by the walk's own uniform at each step.  Their
    pathwise order (walk >= comparison for beta < 0, <= for beta > 0,
    equality at beta = 0) is then asserted at every step, and a violation
    raises AssertionError.  Mode "auto" (the default) runs "events" when the walk
    expects at most AUTO_EVENTS_MAX_RATE up-steps per step,
    (E[Xi_n] - 1)/(n - 1), else "collapsed"; `mode` of the result is the
    engine that ran.  Name the engine to pin the bits of a call.
    """
    cps, mode, arrays = _run(
        params, n_steps, seed, checkpoints, mode, record, 0, n_replicates, workers
    )
    return EnsembleResult(
        params=params,
        seed=seed,
        n_replicates=n_replicates,
        mode=mode,
        checkpoints=cps,
        arrays=arrays,
    )
