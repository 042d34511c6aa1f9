"""Phase classification, exponent estimation, and Monte Carlo vs exact gates.

The chi-square p-values come from `scipy.special.chdtrc`, the upper tail
that `scipy.stats.chi2.sf` evaluates, so importing the package does not load
`scipy.stats`, whose import used to be most of every command's start-up.
The tests check both p-values against `scipy.stats` bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .exact import ExactLaw, asymptotic_constant
from .walkers import EnsembleResult, ModelParams

__all__ = [
    "Regime",
    "PhaseLabel",
    "classify_phase",
    "ExponentFit",
    "fit_exponent",
    "GateResult",
    "compare_mc_exact",
    "mean_gate",
    "chi_square_vs_law",
    "chi_square_two_sample",
    "StagnationWindow",
    "stagnation_profile",
    "EnsembleReport",
    "build_report",
]


class Regime(enum.Enum):
    NEGATIVE_BETA = "negative_beta"  # -1 < beta < 0: unbounded growth a.s.
    ZERO_BETA = "zero_beta"  # uniform memory
    SUB_CRITICAL_POSITIVE = "sub_critical_positive"  # 0 < beta < p/(1-p)
    CRITICAL = "critical"  # beta = p/(1-p): log growth of the mean
    LOCALIZED = "localized"  # beta > p/(1-p): finitely many steps a.s.


@dataclass(frozen=True)
class PhaseLabel:
    regime: Regime
    growth_exponent: float | None = None  # p(beta+1) - beta, below the boundary
    amplitude: float | None = None  # C(p, beta), below the boundary


def classify_phase(params: ModelParams) -> PhaseLabel:
    """Total classification of (p, beta); exactly one regime applies."""
    if params.is_critical:
        return PhaseLabel(Regime.CRITICAL)
    if params.is_localized:
        return PhaseLabel(Regime.LOCALIZED)
    if params.beta < 0.0:
        regime = Regime.NEGATIVE_BETA
    elif params.beta == 0.0:
        regime = Regime.ZERO_BETA
    else:
        regime = Regime.SUB_CRITICAL_POSITIVE
    return PhaseLabel(
        regime,
        growth_exponent=params.growth_exponent,
        amplitude=asymptotic_constant(params),
    )


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    stderr: float
    intercept: float
    residual: float  # RMS residual of the log-log fit
    n_points: int


def fit_exponent(ns, values, window=None) -> ExponentFit:
    """OLS fit of log(values) against log(ns), optionally within a window.

    Needs at least 5 positive points; returns slope with its standard error.
    """
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ns.shape != values.shape:
        raise ValueError("ns and values must have matching shapes")
    mask = np.ones(ns.shape, dtype=bool)
    if window is not None:
        lo, hi = window
        mask = (ns >= lo) & (ns <= hi)
    if (values[mask] <= 0).any():
        raise ValueError("all values in the fit window must be positive")
    x = np.log(ns[mask])
    y = np.log(values[mask])
    npts = len(x)
    if npts < 5:
        raise ValueError(f"need at least 5 checkpoints in the window, got {npts}")
    xm = x - x.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(npts - 2, 1)
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return ExponentFit(
        slope=slope,
        stderr=stderr,
        intercept=intercept,
        residual=math.sqrt(float(np.mean(resid**2))),
        n_points=npts,
    )


@dataclass(frozen=True)
class GateResult:
    z: float
    passed: bool
    degenerate: bool
    detail: str


def _check_level(level: float) -> None:
    """A gate level (in standard errors) must be finite and positive."""
    if not 0.0 < level < math.inf:
        raise ValueError(f"sigma level must be finite and > 0, got {level}")


def mean_gate(
    mc_mean: float,
    mc_var: float,
    n_replicates: int,
    exact: float,
    level: float = 4.0,
    degenerate_tol: float = 1e-9,
) -> GateResult:
    """z-score gate |mc_mean - exact| <= level * sd/sqrt(N).

    A zero-variance ensemble (every replicate frozen at one value) is
    reported as degenerate and compared by absolute tolerance instead.
    """
    _check_level(level)
    if mc_var < 0:
        raise ValueError("variance must be nonnegative")
    if mc_var == 0.0:
        ok = abs(mc_mean - exact) <= degenerate_tol
        return GateResult(
            z=math.inf if not ok else 0.0,
            passed=ok,
            degenerate=True,
            detail=f"degenerate ensemble: mean {mc_mean} vs exact {exact}",
        )
    se = math.sqrt(mc_var / n_replicates)
    z = (mc_mean - exact) / se
    return GateResult(
        z=z,
        passed=abs(z) <= level,
        degenerate=False,
        detail=f"mc {mc_mean:.6g} vs exact {exact:.6g}, z = {z:.3f} (level {level})",
    )


def compare_mc_exact(
    report: "EnsembleReport", exact: float, n: int, level: float = 4.0
) -> GateResult:
    """Gate the ensemble's mean at checkpoint n against an exact value."""
    idx = np.flatnonzero(report.checkpoints == n)
    if len(idx) != 1:
        raise ValueError(f"checkpoint {n} not present in the report")
    i = int(idx[0])
    return mean_gate(
        report.mean_xi[i], report.var_xi[i], report.n_replicates, exact, level=level
    )


def _merge_small_bins(observed: np.ndarray, expected: np.ndarray, min_expected=5.0):
    """Pool adjacent bins until every pooled expected count reaches min_expected.

    `observed` is one row of counts or a stack of rows, pooled alike; the
    remainder left below min_expected at the end joins the last pooled bin.
    Returns the pooled observed row (or rows) and expected counts.
    """
    cols = np.vstack([observed, expected]).T
    pooled, acc = [], np.zeros(cols.shape[1])
    for col in cols:
        acc += col
        if acc[-1] >= min_expected:
            pooled.append(acc)
            acc = np.zeros_like(acc)
    if acc[-1] > 0.0:
        if pooled:
            pooled[-1] += acc
        else:
            pooled.append(acc)
    table = np.array(pooled).reshape(-1, cols.shape[1]).T
    return (table[:-1] if np.ndim(observed) > 1 else table[0]), table[-1]


def chi_square_vs_law(samples: np.ndarray, law: ExactLaw) -> float:
    """p-value of a chi-square goodness-of-fit test against an exact law.

    `samples` are integer outcomes in {1, ..., law.n}; small-expectation
    bins are pooled to keep the statistic calibrated.
    """
    samples = np.asarray(samples)
    if samples.size and not 1 <= samples.min() <= samples.max() <= law.n:
        raise ValueError(
            f"samples must lie in {{1, ..., {law.n}}}, got values from "
            f"{samples.min()} to {samples.max()}"
        )
    n_samp = len(samples)
    observed = np.bincount(samples, minlength=law.n + 1)[1:].astype(np.float64)
    expected = law.probs[1:] * n_samp
    obs, exp = _merge_small_bins(observed, expected)
    if len(obs) < 2:
        raise ValueError("too few populated bins for a chi-square test")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(chdtrc(len(obs) - 1, stat))


def chi_square_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """p-value of a two-sample chi-square homogeneity test on integer samples.

    Bins are pooled on shared boundaries until the smaller sample's expected
    count reaches 5 in every pooled bin, then tested as a 2 x k contingency
    table.
    """
    a, b = np.asarray(a), np.asarray(b)
    if not (a.size and b.size):
        raise ValueError(f"both samples must be nonempty, got sizes {a.size} and {b.size}")
    if min(a.min(), b.min()) < 0:
        raise ValueError("samples must be integers in {0, 1, 2, ...}")
    hi = int(max(a.max(), b.max()))
    ca = np.bincount(a, minlength=hi + 1).astype(np.float64)
    cb = np.bincount(b, minlength=hi + 1).astype(np.float64)
    na, nb = ca.sum(), cb.sum()
    need = 5.0 * (na + nb) / min(na, nb)  # pooled total making both expecteds >= 5
    # the counts are integers, so the pooled totals ca + cb are exact
    table, _ = _merge_small_bins(np.stack([ca, cb]), ca + cb, need)
    if table.shape[1] < 2:
        return 1.0  # both samples concentrated on one pooled bin
    return _contingency_pvalue(table)


def _contingency_pvalue(table: np.ndarray) -> float:
    """Pearson chi-square p-value of a 2-D contingency table of counts.

    The arithmetic of `scipy.stats.chi2_contingency(table)[1]`, with Yates'
    continuity correction when dof == 1, reproduced bit for bit.
    """
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    if np.any(expected == 0):
        raise ValueError("the contingency table has a zero expected count")
    dof = expected.size - sum(expected.shape) + expected.ndim - 1
    observed = table
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = np.sum((observed - expected) ** 2 / expected)
    return float(chdtrc(dof, stat))


@dataclass(frozen=True)
class StagnationWindow:
    n_lo: int
    n_hi: int
    fraction: float  # replicates with no increment on [n_lo, n_hi]


def stagnation_profile(result: EnsembleResult, windows) -> list[StagnationWindow]:
    """Fraction of replicates whose step count is constant on each window.

    Window endpoints must be recorded checkpoints.
    """
    xi = result.arrays.get("xi")
    if xi is None:
        raise ValueError("stagnation profile needs recorded xi checkpoints")
    cps = result.checkpoints
    out = []
    for lo, hi in windows:
        ilo = np.flatnonzero(cps == lo)
        ihi = np.flatnonzero(cps == hi)
        if len(ilo) != 1 or len(ihi) != 1:
            raise ValueError(
                f"window [{lo}, {hi}] endpoints must both be checkpoints"
            )
        frac = float(np.mean(xi[:, int(ihi[0])] == xi[:, int(ilo[0])]))
        out.append(StagnationWindow(n_lo=int(lo), n_hi=int(hi), fraction=frac))
    return out


@dataclass
class EnsembleReport:
    """Checkpoint statistics of an ensemble, ready for gating and export."""

    params: ModelParams
    seed: int
    n_replicates: int
    mode: str
    confidence_z: float
    checkpoints: np.ndarray
    mean_xi: np.ndarray
    var_xi: np.ndarray
    ci_half_xi: np.ndarray
    mean_m: np.ndarray | None = None
    var_m: np.ndarray | None = None
    exponent: ExponentFit | None = None
    stagnation: list[StagnationWindow] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {
            "params": {"p": self.params.p, "beta": self.params.beta},
            "seed": self.seed,
            "n_replicates": self.n_replicates,
            "mode": self.mode,
            "confidence_z": self.confidence_z,
            "checkpoints": self.checkpoints.tolist(),
            "mean_xi": self.mean_xi.tolist(),
            "var_xi": self.var_xi.tolist(),
            "ci_half_xi": self.ci_half_xi.tolist(),
        }
        if self.mean_m is not None:
            d["mean_m"] = self.mean_m.tolist()
            d["var_m"] = self.var_m.tolist()
        if self.exponent is not None:
            d["exponent"] = {
                "slope": self.exponent.slope,
                "stderr": self.exponent.stderr,
                "intercept": self.exponent.intercept,
                "residual": self.exponent.residual,
                "n_points": self.exponent.n_points,
            }
        if self.stagnation:
            d["stagnation"] = [
                {"n_lo": w.n_lo, "n_hi": w.n_hi, "fraction": w.fraction}
                for w in self.stagnation
            ]
        return d


def build_report(
    result: EnsembleResult,
    confidence_z: float = 4.0,
    fit_window=None,
    stagnation_windows=None,
) -> EnsembleReport:
    """Summarize an ensemble: means, variances, CIs, optional fit and stagnation."""
    _check_level(confidence_z)
    xi = result.arrays.get("xi")
    if xi is None:
        raise ValueError("ensemble must record xi")
    mean_xi = xi.mean(axis=0)
    var_xi = xi.var(axis=0, ddof=1) if result.n_replicates > 1 else np.zeros_like(mean_xi)
    ci = confidence_z * np.sqrt(var_xi / result.n_replicates)
    mean_m = var_m = None
    if "sigma" in result.arrays:
        m = result.martingale()
        mean_m = m.mean(axis=0)
        var_m = m.var(axis=0, ddof=1) if result.n_replicates > 1 else np.zeros_like(mean_m)
    exponent = None
    if fit_window is not None:
        exponent = fit_exponent(result.checkpoints, mean_xi, window=fit_window)
    stagnation = (
        stagnation_profile(result, stagnation_windows) if stagnation_windows else []
    )
    return EnsembleReport(
        params=result.params,
        seed=result.seed,
        n_replicates=result.n_replicates,
        mode=result.mode,
        confidence_z=confidence_z,
        checkpoints=result.checkpoints,
        mean_xi=mean_xi,
        var_xi=var_xi,
        ci_half_xi=ci,
        mean_m=mean_m,
        var_m=var_m,
        exponent=exponent,
        stagnation=stagnation,
    )
