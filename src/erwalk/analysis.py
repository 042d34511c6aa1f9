"""Phase classification, exponent estimation, and Monte Carlo vs exact gates.

The chi-square p-values come from `_chi2_sf`, a port of Cephes `igamc`
(DLMF 8.7, 8.9, 8.11): the upper tail that `scipy.special.chdtrc` and
`scipy.stats.chi2.sf` evaluate, so the package needs no scipy.  Up to 40
degrees of freedom it gives their bits; above, where igamc switches to a
Temme asymptotic branch that is not ported, the same three methods run on,
within 1e-12 relative of `chdtrc` up to 1e4 degrees of freedom (tested
wherever the tail is above 1e-300).  Past 1e5 the 2000-term cap of the
series costs accuracy just below the mean (2.6e-10 relative at 2e5 degrees
of freedom, 4.1e-3 at 1e6, against 6.2e-15 at 1e5), so `_chi2_sf` refuses
more than _CHI2_MAX_DOF.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exact import ExactLaw, asymptotic_constant
from .gammaratio import _lgam, _polevl
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
    return ExponentFit(slope=slope, stderr=stderr, intercept=intercept)


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
) -> GateResult:
    """z-score gate |mc_mean - exact| <= level * sd/sqrt(N).

    A zero-variance ensemble (every replicate frozen at one value) is
    reported as degenerate and passes when it lies within 1e-9 of `exact`.
    """
    _check_level(level)
    if mc_var < 0:
        raise ValueError("variance must be nonnegative")
    if mc_var == 0.0:
        ok = abs(mc_mean - exact) <= 1e-9
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
    return _chi2_sf(len(obs) - 1, stat)


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
    return _chi2_sf(dof, float(stat))


# Chi-square upper tail: Cephes igamc (scipy's, by Moshier and Wilson),
# without its Temme asymptotic branch for a = dof/2 > 20 near x = a, whose
# 25 x 25 coefficient table is not ported.
_MACHEP = 1.11022302462515654042e-16  # 2^-53
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_MAXITER = 2000
#: the most degrees of freedom `_chi2_sf` takes; past them the series hits
#: _MAXITER just below the mean (module docstring)
_CHI2_MAX_DOF = 100_000
_BIG = 4.503599627370496e15  # 2^52, rescales the continued fraction
_BIGINV = 2.22044604925031308085e-16  # 2^-52
_EULER = 0.577215664901532860606512090082402431
# Lanczos approximation, g and the 13-term rational sum
# Gamma(x) e^(x+g-0.5) / (x+g-0.5)^(x-0.5), highest power first
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DEN = (  # x (x+1) ... (x+11)
    1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0,
    45995730.0, 105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0,
)
# Cephes expm1 on [-0.5, 0.5]: e^x - 1 = 2x P(x^2) / (Q(x^2) - x P(x^2))
_EXPM1_P = (
    1.2617719307481059087798e-4,
    3.0299440770744196129956e-2,
    9.9999999999999999991025e-1,
)
_EXPM1_Q = (
    3.0019850513866445504159e-6,
    2.5244834034968410419224e-3,
    2.2726554820815502876593e-1,
    2.0000000000000000009025e0,
)
# zeta(n) for n = 2..41 as Cephes' Hurwitz zeta(n, 1) gives it; 14 of the
# 40 are not the correctly rounded value, and lgam1p's bits need these
_ZETA = (
    1.6449340668482266, 1.202056903159594, 1.0823232337111381, 1.0369277551433704,
    1.0173430619844488, 1.008349277381923, 1.0040773561979446, 1.0020083928260826,
    1.0009945751278182, 1.0004941886041194, 1.0002460865533078, 1.0001227133475785,
    1.0000612481350586, 1.0000305882363072, 1.0000152822594084, 1.0000076371976376,
    1.000003817293265, 1.0000019082127163, 1.0000009539620338, 1.0000004769329867,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
)


def _expm1(x: float) -> float:
    """Cephes expm1; `math.expm1` differs from it by up to 2 ulp."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _lgam1p_taylor(x: float) -> float:
    """log Gamma(1 + x) for |x| <= 0.5 by its Taylor series in zeta(n)."""
    if x == 0.0:
        return 0.0
    res = -_EULER * x
    xfac = -x
    for n in range(2, 42):
        xfac *= -x
        coeff = _ZETA[n - 2] * xfac / n
        res += coeff
        if abs(coeff) < _MACHEP * abs(res):
            break
    return res


def _lgam1p(x: float) -> float:
    """log Gamma(1 + x), without the cancellation near x = 0 and x = 1."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    if abs(x - 1.0) < 0.5:
        return math.log(x) + _lgam1p_taylor(x - 1.0)
    return _lgam(x + 1.0)


def _log1pmx(x: float) -> float:
    """Cephes log1pmx, log(1 + x) - x, by its series for |x| < 0.5."""
    if abs(x) >= 0.5:
        return math.log1p(x) - x
    xfac, res = x, 0.0
    for n in range(2, _MAXITER):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < _MACHEP * abs(res):
            break
    return res


def _igam_fac(a: float, x: float) -> float:
    """x^a e^(-x) / Gamma(a); through the Lanczos sum when x is near a."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        return 0.0 if ax < -_MAXLOG else math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    if abs(a) > 1.0:  # Cephes ratevl: a polynomial in 1/a
        y, num, den = 1.0 / a, _LANCZOS_NUM[::-1], _LANCZOS_DEN[::-1]
    else:
        y, num, den = a, _LANCZOS_NUM, _LANCZOS_DEN
    res = math.sqrt(fac / math.exp(1.0)) / (_polevl(y, num) / _polevl(y, den))
    if a < 200.0 and x < 200.0:
        return res * (math.exp(a - x) * math.pow(x / fac, a))
    # Cephes' form for a or x >= 200, where the power would overflow
    t = (x - a - _LANCZOS_G + 0.5) / fac
    return res * math.exp(a * _log1pmx(t) + x * (0.5 - _LANCZOS_G) / fac)


def _igam_series(a: float, x: float) -> float:
    """Regularized lower incomplete Gamma P(a, x), DLMF 8.11.4."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_continued_fraction(a: float, x: float) -> float:
    """Regularized upper incomplete Gamma Q(a, x), DLMF 8.9.2."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igamc_series(a: float, x: float) -> float:
    """Q(a, x) for small x, DLMF 8.7.3, free of the cancellation in 1 - P."""
    fac, total = 1.0, 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - _lgam(a)) * total


def _chi2_sf(dof, stat: float) -> float:
    """P(chi^2_dof > stat), as `scipy.special.chdtrc(dof, stat)` gives it.

    That is Cephes igamc(dof/2, stat/2): bit for bit for dof <= 40, and
    within 1e-12 relative up to dof 1e4 wherever the tail is above 1e-300
    (igamc's Temme asymptotic branch is not ported; see the module
    docstring for larger dof).  dof must be a positive integer of at most
    _CHI2_MAX_DOF and stat a number >= 0 (inf gives 0).
    """
    if not (dof >= 1 and float(dof).is_integer()):
        raise ValueError(f"chi-square dof must be a positive integer, got {dof}")
    if dof > _CHI2_MAX_DOF:
        raise ValueError(
            f"chi-square dof = {dof} exceeds {_CHI2_MAX_DOF}, past which the tail"
            " loses digits near the mean"
        )
    if not stat >= 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {stat}")
    a, x = dof / 2.0, stat / 2.0
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    # Cephes igamc's choice of method away from its asymptotic branch
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if (-0.4 / math.log(x) < a) if x <= 0.5 else (x * 1.1 < a):
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)


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
        return d


def build_report(result: EnsembleResult, confidence_z: float = 4.0) -> EnsembleReport:
    """Summarize an ensemble: means, variances and CIs of Xi_n, and of M_n
    when sigma was recorded."""
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
    )
