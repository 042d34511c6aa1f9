"""Simulators for the power-law-memory walk and its comparison processes.

The walk takes steps X_k in {0, 1} with X_1 = 1; at time n the next step
copies the step at a power-law-recalled past time with probability p, else
is 0.  Conditionally on the history,

    P(X_{n+1} = 1) = pi_n = p(beta+1) * Sigma_n / (n * mu_{n+1}),

where Sigma_n = sum X_k mu_k, so (Xi_n, Sigma_n) is Markov.  That collapsed
chain is the production simulator (O(1) per step); the full-history
simulator draws the recalled time explicitly and serves as a differential
oracle.  Ensembles run one counter-based RNG stream per replicate, so
results are reproducible under any batching or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gammaratio import log_poch_ratio, ratio_seq
from .memory import MemoryLaw
from .streams import uniforms

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

_BLOCK_SIZE = 4096
_SEG_LEN = 2048


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
    if pi > params.p + _GUARD_EPS:
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


def _mu_array(beta: float, upto: int) -> np.ndarray:
    """mu_1, ..., mu_upto as a 0-based array (mu[i] = mu_{i+1})."""
    return ratio_seq(beta).values(upto)


def _collapsed_block(params, n_steps, seed, start, count, checkpoints, record):
    """Advance `count` replicates of the collapsed chain; returns checkpoint arrays."""
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
    a = np.ones(count, dtype=np.float64)

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
    t = 1  # current time; transition t -> t+1 consumes draw t-1 of each replicate
    buf = np.empty((count, _SEG_LEN), dtype=np.float64)
    while t < n_steps:
        seg = min(_SEG_LEN, n_steps - t)
        uniforms(seed, start, count, t - 1, seg, out=buf)
        for col in range(seg):
            coef = params.rate / (t * mu[t])  # mu[t] = mu_{t+1}
            pi = coef * sigma
            if pi.max() > guard:
                raise RuntimeError(
                    f"internal consistency violated: pi_n > p at n = {t}"
                )
            x = buf[:, col] < pi
            xi += x
            sigma += x * mu[t]
            a += pi
            t += 1
            snapshot(t)
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
    seg_len = max(1, _SEG_LEN // 2)
    buf = np.empty((count, seg_len, 2), dtype=np.float64)
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
    buf = np.empty((count, _SEG_LEN), dtype=np.float64)
    t = 1
    while t < n_steps:
        seg = min(_SEG_LEN, n_steps - t)
        uniforms(seed, start, count, t - 1, seg, out=buf)
        for col in range(seg):
            u = buf[:, col]
            pi = rate / (t * mu[t]) * sigma
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
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    cps = _check_checkpoints(checkpoints, n_steps)
    block = {"collapsed": _collapsed_block, "full": _full_block}[mode]
    out = block(params, n_steps, seed, replicate_index, 1, cps, ("xi", "sigma", "a"))
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
    if n_steps < 1 or n_replicates < 1:
        raise ValueError("n_steps and n_replicates must be >= 1")
    cps = _check_checkpoints(checkpoints, n_steps)
    record = tuple(record)
    unknown = set(record) - {"xi", "sigma", "a"}
    if unknown:
        raise ValueError(f"unknown record fields: {sorted(unknown)}")
    block_fn = {"collapsed": _collapsed_block, "full": _full_block}[mode]
    parts = _run_blocks(
        block_fn, (params, n_steps, seed, cps, record), n_replicates, workers, block_size
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
