import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

from erwalk import analysis
from erwalk.analysis import (
    _ZETA,
    Regime,
    _chi2_sf,
    _contingency_pvalue,
    _expm1,
    _log1pmx,
    _merge_small_bins,
    build_report,
    chi_square_two_sample,
    chi_square_vs_law,
    classify_phase,
    compare_mc_exact,
    fit_exponent,
    mean_gate,
    stagnation_profile,
)
from erwalk.exact import ExactLaw, enumerate_law, exact_mean_xi, l2_diagnostic
from erwalk.walkers import ModelParams, geometric_checkpoints, run_ensemble


class TestClassify:
    @pytest.mark.parametrize(
        "p,beta,regime",
        [
            (0.5, -0.5, Regime.NEGATIVE_BETA),
            (0.5, 0.0, Regime.ZERO_BETA),
            (0.5, 0.5, Regime.SUB_CRITICAL_POSITIVE),
            (0.5, 1.0, Regime.CRITICAL),
            (0.5, 2.0, Regime.LOCALIZED),
            (0.2, 0.25, Regime.CRITICAL),
            (0.8, 3.9, Regime.SUB_CRITICAL_POSITIVE),
            (0.8, 4.1, Regime.LOCALIZED),
        ],
    )
    def test_regimes(self, p, beta, regime):
        assert classify_phase(ModelParams(p, beta)).regime is regime

    def test_exactly_one_regime(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform(0.05, 0.95))
            beta = float(rng.uniform(-0.99, 6.0))
            label = classify_phase(ModelParams(p, beta))
            assert isinstance(label.regime, Regime)

    def test_growth_exponent_below_boundary(self):
        label = classify_phase(ModelParams(0.5, -0.5))
        assert label.growth_exponent == pytest.approx(0.75)
        assert label.amplitude is not None
        assert classify_phase(ModelParams(0.5, 2.0)).growth_exponent is None

    def test_critical_tolerance(self):
        assert classify_phase(ModelParams(0.5, 1.0 + 1e-13)).regime is Regime.CRITICAL
        assert (
            classify_phase(ModelParams(0.5, 1.0 + 1e-6)).regime is Regime.LOCALIZED
        )

    def test_consistent_with_l2_verdict(self):
        bounded_regimes = {
            Regime.NEGATIVE_BETA,
            Regime.ZERO_BETA,
            Regime.SUB_CRITICAL_POSITIVE,
        }
        for p, beta in [(0.5, -0.5), (0.5, 0.0), (0.5, 0.5), (0.5, 1.0),
                        (0.5, 2.0), (0.3, 0.2), (0.7, 4.0)]:
            pms = ModelParams(p, beta)
            diag = l2_diagnostic(pms, 10**4)
            assert diag.bounded == (classify_phase(pms).regime in bounded_regimes)


class TestFitExponent:
    def test_pure_power_law(self):
        ns = np.array([10, 20, 50, 100, 500, 1000, 5000])
        vals = 3.0 * ns.astype(float) ** 0.7
        fit = fit_exponent(ns, vals)
        assert fit.slope == pytest.approx(0.7, abs=1e-10)
        assert fit.stderr < 1e-10
        assert np.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)

    def test_exact_mean_feed(self):
        pms = ModelParams(0.5, 0.0)
        cps = geometric_checkpoints(10**5)
        means = np.array([exact_mean_xi(int(n), pms) for n in cps])
        fit = fit_exponent(cps, means, window=(10**3, 10**5))
        assert fit.slope == pytest.approx(0.5, abs=0.02)

    def test_critical_slope_vanishes(self):
        pms = ModelParams(0.5, 1.0)
        cps = geometric_checkpoints(10**6)
        means = np.array([exact_mean_xi(int(n), pms) for n in cps])
        fit = fit_exponent(cps, means, window=(10**4, 10**6))
        assert abs(fit.slope) < 0.1  # log growth, not a power law
        assert means[-1] / np.log(10**6) == pytest.approx(1.0, abs=0.1)

    def test_requires_five_points(self):
        ns = np.array([10, 20, 50, 100])
        with pytest.raises(ValueError):
            fit_exponent(ns, ns.astype(float))

    def test_requires_positive_values(self):
        ns = np.array([10, 20, 50, 100, 200])
        vals = np.array([1.0, 2.0, -1.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            fit_exponent(ns, vals)


class TestGates:
    def test_exact_match_passes(self):
        g = mean_gate(4.0, 1.0, 1000, 4.0)
        assert g.passed and g.z == 0.0

    def test_bias_fails(self):
        # a 10-sigma bias must fail a 4-sigma gate
        se = np.sqrt(1.0 / 1000)
        g = mean_gate(4.0 + 10 * se, 1.0, 1000, 4.0)
        assert not g.passed
        assert g.z == pytest.approx(10.0)

    def test_degenerate_reported(self):
        g = mean_gate(4.0, 0.0, 1000, 4.0)
        assert g.degenerate and g.passed
        g = mean_gate(4.0, 0.0, 1000, 5.0)
        assert g.degenerate and not g.passed

    @pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, -3.0])
    def test_level_must_be_finite_and_positive(self, level):
        with pytest.raises(ValueError, match="sigma level"):
            mean_gate(4.0, 1.0, 1000, 4.0, level=level)
        res = run_ensemble(ModelParams(0.5, 0.5), 10, 5, seed=1, checkpoints=[10],
                           mode="collapsed")
        with pytest.raises(ValueError, match="sigma level"):
            build_report(res, confidence_z=level)

    def test_compare_with_report(self):
        pms = ModelParams(0.5, 2.0)
        res = run_ensemble(pms, 500, 3000, seed=42, checkpoints=[100, 500], mode="collapsed")
        rep = build_report(res)
        g = compare_mc_exact(rep, exact_mean_xi(500, pms), 500)
        assert g.passed
        with pytest.raises(ValueError):
            compare_mc_exact(rep, 1.0, 123)


class TestStagnation:
    def test_localized_windows_freeze(self):
        pms = ModelParams(0.5, 2.0)
        res = run_ensemble(pms, 4000, 2000, seed=9,
                           checkpoints=[100, 200, 2000, 4000], mode="collapsed")
        prof = stagnation_profile(res, [(100, 200), (2000, 4000)])
        assert prof[0].fraction < prof[1].fraction or prof[1].fraction > 0.9
        assert prof[1].fraction > 0.9

    def test_growing_walk_never_freezes(self):
        pms = ModelParams(0.5, -0.5)
        res = run_ensemble(pms, 2000, 1000, seed=9, checkpoints=[1000, 2000], mode="collapsed")
        prof = stagnation_profile(res, [(1000, 2000)])
        assert prof[0].fraction < 0.01

    def test_requires_checkpoints(self):
        res = run_ensemble(ModelParams(0.5, 1.0), 100, 10, seed=1,
                           checkpoints=[50, 100], mode="collapsed")
        with pytest.raises(ValueError):
            stagnation_profile(res, [(25, 50)])


class TestReports:
    def test_report_roundtrip(self):
        pms = ModelParams(0.5, 0.5)
        res = run_ensemble(pms, 1000, 500, seed=3,
                           checkpoints=[1, 10, 50, 100, 200, 500, 1000], mode="collapsed")
        rep = build_report(res)
        d = rep.to_dict()
        assert d["params"] == {"p": 0.5, "beta": 0.5}
        assert len(d["mean_xi"]) == len(rep.checkpoints)
        assert d["mean_m"] is not None

    def test_martingale_columns(self):
        pms = ModelParams(0.5, 0.5)
        res = run_ensemble(pms, 200, 400, seed=3, checkpoints=[1, 200], mode="collapsed")
        rep = build_report(res)
        assert rep.mean_m[0] == pytest.approx(1.0)  # M_1 = 1 exactly
        se = np.sqrt(rep.var_m[1] / rep.n_replicates)
        assert rep.mean_m[1] == pytest.approx(1.0, abs=4.5 * se)


class TestChiSquareHelpers:
    def test_goodness_of_fit_calibrated(self, rng):
        pms = ModelParams(0.5, 1.0)
        law, _ = enumerate_law(pms, 8)
        samples = rng.choice(np.arange(9), size=50000, p=law.probs)
        assert chi_square_vs_law(samples, law) > 1e-3

    def test_goodness_of_fit_detects_bias(self, rng):
        pms = ModelParams(0.5, 1.0)
        law, _ = enumerate_law(pms, 8)
        biased = law.probs.copy()
        biased[1] *= 0.8
        biased /= biased.sum()
        samples = rng.choice(np.arange(9), size=50000, p=biased)
        assert chi_square_vs_law(samples, law) < 1e-3

    def test_two_sample_same_law(self):
        rng = np.random.default_rng(987)
        a = rng.binomial(20, 0.3, size=20000)
        b = rng.binomial(20, 0.3, size=30000)
        assert chi_square_two_sample(a, b) > 1e-3

    def test_two_sample_different_laws(self):
        rng = np.random.default_rng(987)
        a = rng.binomial(20, 0.3, size=20000)
        b = rng.binomial(20, 0.33, size=20000)
        assert chi_square_two_sample(a, b) < 1e-3

    @pytest.mark.parametrize("bad", [0, 9, -1])
    def test_goodness_of_fit_rejects_outcomes_outside_the_law(self, bad):
        law, _ = enumerate_law(ModelParams(0.5, 1.0), 8)
        samples = np.array([1, 2, 3, bad] * 100)
        with pytest.raises(ValueError, match=r"samples must lie in \{1, \.\.\., 8\}"):
            chi_square_vs_law(samples, law)

    def test_two_sample_rejects_empty_or_negative(self):
        a = np.array([1, 2, 3] * 50)
        for x, y in ((a, a[:0]), (a[:0], a)):
            with pytest.raises(ValueError, match="both samples must be nonempty"):
                chi_square_two_sample(x, y)
        with pytest.raises(ValueError, match=r"\{0, 1, 2, \.\.\.\}"):
            chi_square_two_sample(a, -a)


class TestChiSquareOracle:
    """Both p-values agree with `scipy.stats`, the slow oracle: bit for bit
    up to 40 dof, within 1e-12 relative above."""

    @given(
        n=st.integers(2, 60),
        size=st.integers(10, 100_000),
        tilt=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vs_law_matches_scipy(self, n, size, tilt, seed):
        # the tilt moves the samples off the law, so the statistic runs
        # from near 0 to far in the tail, with df from 1 to n - 1
        rng = np.random.default_rng(seed)
        probs = np.concatenate([[0.0], rng.dirichlet(np.ones(n))])
        law = ExactLaw(n=n, probs=probs)
        drawn = (1.0 - tilt) * probs + tilt * np.concatenate(
            [[0.0], rng.dirichlet(np.ones(n))]
        )
        samples = rng.choice(n + 1, size=size, p=drawn / drawn.sum())
        observed = np.bincount(samples, minlength=n + 1)[1:].astype(np.float64)
        obs, exp = _merge_small_bins(observed, probs[1:] * size)
        if len(obs) < 2:
            with pytest.raises(ValueError):
                chi_square_vs_law(samples, law)
            return
        want = sp_stats.chisquare(obs, exp).pvalue
        got = chi_square_vs_law(samples, law)
        if len(obs) - 1 <= 40:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @given(
        k=st.integers(2, 13),
        scale=st.sampled_from([3, 20, 1000, 10**6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_contingency_matches_scipy(self, k, scale, seed):
        # k = 2 runs the Yates branch; scale 3 gives small counts and zeros
        table = np.random.default_rng(seed).integers(0, scale, size=(2, k))
        table = table.astype(np.float64)
        assume(table.sum() > 0)  # 0/0: both give NaN, and no caller has it
        if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
            with pytest.raises(ValueError):
                sp_stats.chi2_contingency(table)
            with pytest.raises(ValueError, match="zero expected"):
                _contingency_pvalue(table)
            return
        assert _contingency_pvalue(table) == sp_stats.chi2_contingency(table)[1]

    def test_contingency_yates_and_zero_expected(self):
        table = np.array([[12.0, 5.0], [9.0, 15.0]])
        assert _contingency_pvalue(table) == sp_stats.chi2_contingency(table)[1]
        assert _contingency_pvalue(table) != sp_stats.chi2_contingency(
            table, correction=False
        )[1]
        with pytest.raises(ValueError, match="zero expected"):
            _contingency_pvalue(np.array([[3.0, 0.0, 4.0], [1.0, 0.0, 2.0]]))


def _ulps(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


def _branch_points(dof):
    """Statistics at and beside each switch of Cephes igamc for a = dof/2,
    x = stat/2, near 0 and in the far tail."""
    a = dof / 2.0
    pts = [5e-324, 1e-300, 1e-12, 1e-3, 0.3, 1500.0, 1e6, 100.0 * dof,
           dof + 10.0 * math.sqrt(2.0 * dof)]
    pts += _ulps(1.0)  # x = 0.5
    pts += _ulps(2.2)  # x = 1.1
    pts += _ulps(2.0 * math.exp(-0.4 / a))  # -0.4 / log(x) = a, below x = 0.5
    pts += _ulps(2.0 * a / 1.1)  # 1.1 x = a
    pts += _ulps(float(dof))  # the mean, x = a
    pts += _ulps(0.6 * dof) + _ulps(1.4 * dof)  # |a - x| = 0.4 a, igam_fac
    return pts


class TestChiSquarePort:
    """`_chi2_sf` is Cephes igamc(dof/2, stat/2), the function behind
    scipy.special.chdtrc: bit for bit up to 40 dof, within 1e-12 above."""

    @pytest.mark.parametrize("dof", range(1, 41))
    def test_matches_chdtrc(self, dof):
        rng = np.random.default_rng(dof)
        stats = np.concatenate([
            _branch_points(dof),
            rng.uniform(0.0, 4.0 * dof + 20.0, 400),
            np.exp(rng.uniform(-30.0, 7.0, 400)),
        ])
        got = np.array([_chi2_sf(dof, s) for s in stats])
        np.testing.assert_array_equal(got, sp_special.chdtrc(dof, stats))

    @pytest.mark.parametrize("dof", [41, 60, 200, 1000, 4000, 6000, 10_000])
    def test_bounded_error_above_40_dof(self, dof):
        # chdtrc takes Temme's expansion near the mean here, which is not
        # ported; the methods that run on instead must stay within 1e-12,
        # also at 4000 to 6000 dof, past the pow overflow of the a < 200 form
        rng = np.random.default_rng(dof)
        q = np.concatenate([
            np.linspace(0.3, 3.0, 100),
            np.linspace(0.6, 1.4, 400),
            rng.uniform(0.6, 1.4, 100),
        ])
        stats = np.concatenate([q * dof, _branch_points(dof)])
        want = sp_special.chdtrc(dof, stats)
        keep = want > 1e-300
        got = np.array([_chi2_sf(dof, s) for s in stats[keep]])
        np.testing.assert_allclose(got, want[keep], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "x", [-0.9, -0.5000001, -0.5, -0.4999999, -0.3, -1e-3, -1e-9, 0.0,
              1e-9, 1e-3, 0.3, 0.4999999, 0.5, 0.5000001, 0.9, 3.0],
    )
    def test_log1pmx(self, x):
        with mpmath.workdps(40):
            want = float(mpmath.log1p(x) - x)
        assert _log1pmx(x) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_dof_limit(self):
        # at 1e5 dof the series still converges just below the mean; one more
        # degree of freedom is refused, naming the limit
        dof = analysis._CHI2_MAX_DOF
        assert dof == 100_000
        stats = np.linspace(0.99, 1.01, 41) * dof
        got = np.array([_chi2_sf(dof, s) for s in stats])
        np.testing.assert_allclose(got, sp_special.chdtrc(dof, stats), rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError, match="dof = 100001 exceeds 100000"):
            _chi2_sf(dof + 1, float(dof))

    @pytest.mark.parametrize("dof", [1, 2, 7, 40, 41])
    def test_zero_and_inf_statistic(self, dof):
        assert _chi2_sf(dof, 0.0) == sp_special.chdtrc(dof, 0.0) == 1.0
        assert _chi2_sf(dof, math.inf) == sp_special.chdtrc(dof, math.inf) == 0.0

    @pytest.mark.parametrize("dof", [0, -1, 0.5, 1.5, math.nan, math.inf])
    def test_bad_dof_raises(self, dof):
        with pytest.raises(ValueError, match="dof"):
            _chi2_sf(dof, 1.0)

    @pytest.mark.parametrize("stat", [math.nan, -1e-300, -1.0, -math.inf])
    def test_bad_statistic_raises(self, stat):
        with pytest.raises(ValueError, match="statistic"):
            _chi2_sf(3, stat)

    def test_zeta_table_is_cephes(self):
        # Cephes zeta(n, 1), not the correctly rounded zeta(n), feeds lgam1p
        assert list(_ZETA) == [float(sp_special.zeta(n, 1.0)) for n in range(2, 42)]

    def test_expm1_is_cephes(self):
        xs = np.concatenate([np.linspace(-0.6, 0.6, 20_001), _ulps(0.5), _ulps(-0.5)])
        got = np.array([_expm1(x) for x in xs])
        np.testing.assert_array_equal(got, sp_special.expm1(xs))
