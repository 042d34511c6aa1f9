import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

import erwalk.exact as exact_mod
from erwalk.exact import (
    ENUMERATION_MAX_STEPS,
    _mean_table,
    _propagate_vectors,
    asymptotic_constant,
    enumerate_law,
    exact_mean_xi,
    l2_diagnostic,
    limit_mean_xi,
    lower_bound_prob_one,
    propagate_moments,
)
from erwalk.gammaratio import log_poch_ratio
from erwalk.walkers import ModelParams, _check_checkpoints, geometric_checkpoints

# arbitrary-precision evaluations recorded as goldens
GOLDEN_AMPLITUDE_05_05 = 2.8928181692641542851  # 4 * Gamma(1.5) / Gamma(0.75)
GOLDEN_PRODUCT_05_1_1E6 = 0.29667543141887415  # truncated at 1e6 terms
GOLDEN_PRODUCT_05_1_INF = 0.29667513474359103457  # full infinite product

GRID = [
    ModelParams(p, b)
    for p in (0.2, 0.5, 0.8)
    for b in (-0.5, 0.0, 0.5, p / (1 - p), 2.0)
]


class TestExactMean:
    def test_first_value(self):
        for pms in GRID:
            assert exact_mean_xi(1, pms) == 1.0

    def test_critical_harmonic_values(self):
        pms = ModelParams(0.5, 1.0)
        assert exact_mean_xi(3, pms) == pytest.approx(1 + 0.5 + 1 / 3, rel=1e-14)
        h_10 = sum(1.0 / k for k in range(1, 11))
        assert exact_mean_xi(10, pms) == pytest.approx(h_10, rel=1e-13)

    def test_localized_limit(self):
        pms = ModelParams(0.5, 2.0)
        assert limit_mean_xi(pms) == pytest.approx(4.0, rel=1e-14)
        assert exact_mean_xi(10**6, pms) == pytest.approx(4.0, rel=1e-2)

    def test_localized_mean_increasing_and_bounded(self):
        for pms in [ModelParams(0.5, 2.0), ModelParams(0.2, 1.0)]:
            lim = limit_mean_xi(pms)
            values = [exact_mean_xi(n, pms) for n in (1, 3, 10, 100, 10**4)]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(v < lim for v in values)

    def test_branch_continuity_near_boundary(self):
        # closed form 1e-8 off the critical line agrees with the critical sum
        p = 0.5
        critical = ModelParams(p, 1.0)
        off = ModelParams(p, 1.0 + 1e-8)
        for n in (10, 1000, 10**5):
            a = exact_mean_xi(n, critical)
            b = exact_mean_xi(n, off)
            assert b == pytest.approx(a, rel=1e-4)


    @pytest.mark.parametrize("delta", [
        sign * 10.0**e for e in range(-13, -3) for sign in (1, -1)
    ])
    def test_near_critical_against_exact_sum(self, delta):
        # the telescoped closed form cancels as rate nears beta; a 60-digit
        # sum of prod_{j<k} (j+x)/(j+y) / (k+y) at x = rate, y = beta is the oracle
        mp = pytest.importorskip("mpmath")
        pms = ModelParams(0.5, 1.0 + delta)
        n = 10**4
        with mp.workdps(60):
            x, y = mp.mpf(pms.rate), mp.mpf(pms.beta)
            total, ratio = mp.mpf(0), mp.mpf(1)
            for k in range(1, n):
                total += ratio / (k + y)
                ratio *= (k + x) / (k + y)
            want = 1 + x * total
        got = exact_mean_xi(n, pms)
        assert abs(got - want) / want < 1e-11


class TestLimitMean:
    @pytest.mark.parametrize("delta", [1e-13, -1e-13])
    def test_no_limit_in_the_critical_band(self, delta):
        # classify_phase and exact_mean_xi call these points critical: the
        # mean grows like log n, so there is no finite limit to report
        pms = ModelParams(0.5, 1.0 + delta)
        assert pms.is_critical and not pms.is_localized
        with pytest.raises(ValueError, match="finite limit"):
            limit_mean_xi(pms)

    def test_localized_just_past_the_band(self):
        pms = ModelParams(0.5, 1.0 + 1e-6)
        assert pms.is_localized
        # beta / (beta - rate) = (1 + d) / (d / 2) at d = 1e-6
        assert limit_mean_xi(pms) == pytest.approx(2.0e6 + 2.0, rel=1e-8)


class TestAsymptoticConstant:
    def test_zero_beta_simplification(self):
        for p in (0.2, 0.5, 0.8):
            want = 1.0 / math.exp(gammaln(p + 1.0))
            assert asymptotic_constant(ModelParams(p, 0.0)) == pytest.approx(
                want, rel=1e-13
            )

    def test_golden_value(self):
        got = asymptotic_constant(ModelParams(0.5, 0.5))
        assert got == pytest.approx(GOLDEN_AMPLITUDE_05_05, rel=1e-13)

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            asymptotic_constant(ModelParams(0.5, 1.0))
        with pytest.raises(ValueError):
            asymptotic_constant(ModelParams(0.5, 2.0))


class TestPropagator:
    @pytest.mark.parametrize("pms", GRID, ids=lambda p: f"p{p.p}b{p.beta:.3g}")
    def test_degree1_matches_closed_form(self, pms):
        cps = [1, 2, 7, 100, 1000]
        tables = propagate_moments(pms, 1000, 1, checkpoints=cps)
        for t in tables:
            assert t.mean_xi == pytest.approx(exact_mean_xi(t.n, pms), rel=1e-10)

    @pytest.mark.parametrize("pms", GRID, ids=lambda p: f"p{p.p}b{p.beta:.3g}")
    def test_memory_sum_mean_identity(self, pms):
        # E[Sigma_n] = c_n(p(beta+1)) for every n
        # against the direct log-Gamma path, not the product the propagator runs
        vectors = _propagate_vectors(pms, 1000, 1)
        want = np.exp(log_poch_ratio(np.arange(1.0, 1001.0), pms.rate))
        got = vectors[(0, 1)]
        assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_critical_recursions_reproduced(self):
        # hand-coded degree-3 recursions at the critical point, checked
        # against the generic propagator step by step
        p = 0.5
        beta = 1.0  # rate = beta on the critical line
        pms = ModelParams(p, beta)
        n_max = 2000
        mu = np.ones(n_max + 1)
        for k in range(1, n_max + 1):
            mu[k] = mu[k - 1] * (k + beta) / k  # mu[k] = mu_{k+1}
        s1 = np.empty(n_max)  # E[Sigma_n]
        s2 = np.empty(n_max)  # E[Sigma_n^2]
        xs = np.empty(n_max)  # E[Xi_n Sigma_n]
        x2 = np.empty(n_max)  # E[Xi_n^2]
        s3 = np.empty(n_max)  # E[Sigma_n^3]
        xs2 = np.empty(n_max)  # E[Xi_n Sigma_n^2]
        x2s = np.empty(n_max)  # E[Xi_n^2 Sigma_n]
        x3 = np.empty(n_max)  # E[Xi_n^3]
        for arr in (s1, s2, xs, x2, s3, xs2, x2s, x3):
            arr[0] = 1.0
        for n in range(1, n_max):
            m = mu[n]  # mu_{n+1}
            i = n - 1
            s1[n] = (1 + beta / n) * s1[i]
            s2[n] = (1 + 2 * beta / n) * s2[i] + beta * m / n * s1[i]
            xs[n] = (1 + beta / n) * xs[i] + beta / (n * m) * s2[i] + beta / n * s1[i]
            x2[n] = x2[i] + 2 * beta / (n * m) * xs[i] + beta / (n * m) * s1[i]
            # binomial expansion of (Sigma + mu)^3 puts beta (not 3 beta) on
            # the mu^2 Sigma term; exhaustive enumeration at n <= 12 agrees
            s3[n] = (
                (1 + 3 * beta / n) * s3[i]
                + 3 * beta * m / n * s2[i]
                + beta * m**2 / n * s1[i]
            )
            xs2[n] = (
                (1 + 2 * beta / n) * xs2[i]
                + beta * m / n * xs[i]
                + beta / (n * m) * s3[i]
                + 2 * beta / n * s2[i]
                + beta * m / n * s1[i]
            )
            x2s[n] = (
                (1 + beta / n) * x2s[i]
                + 2 * beta / (n * m) * xs2[i]
                + 2 * beta / n * xs[i]
                + beta / (n * m) * s2[i]
                + beta / n * s1[i]
            )
            x3[n] = (
                x3[i]
                + 3 * beta / (n * m) * x2s[i]
                + 3 * beta / (n * m) * xs[i]
                + beta / (n * m) * s1[i]
            )
        vectors = _propagate_vectors(pms, n_max, 3)
        hand = {
            (0, 1): s1, (0, 2): s2, (1, 1): xs, (2, 0): x2,
            (0, 3): s3, (1, 2): xs2, (2, 1): x2s, (3, 0): x3,
        }
        for key, arr in hand.items():
            assert np.allclose(vectors[key], arr, rtol=1e-12, atol=0), key

    def test_jensen_and_cauchy_schwarz(self):
        for pms in [ModelParams(0.5, 1.0), ModelParams(0.3, -0.4), ModelParams(0.7, 2.0)]:
            for t in propagate_moments(pms, 500, 2, checkpoints=[2, 10, 100, 500]):
                assert t.m[2, 0] >= t.m[1, 0] ** 2 - 1e-12
                assert t.m[1, 1] ** 2 <= t.m[2, 0] * t.m[0, 2] * (1 + 1e-12)
                assert t.m[0, 0] == 1.0

    def test_means_nondecreasing(self):
        tables = propagate_moments(ModelParams(0.6, 0.5), 300, 1,
                                   checkpoints=np.arange(1, 301))
        m10 = np.array([t.mean_xi for t in tables])
        m01 = np.array([t.mean_sigma for t in tables])
        assert (np.diff(m10) >= -1e-12).all()
        assert (np.diff(m01) >= -1e-12).all()

    def test_validation(self):
        pms = ModelParams(0.5, 1.0)
        with pytest.raises(ValueError):
            propagate_moments(pms, 100, 0)
        with pytest.raises(OverflowError):
            propagate_moments(ModelParams(0.5, 50.0), 10**6, 3)

    def test_counts_must_be_integers(self):
        # each once surfaced as a numpy TypeError, or (a bool) ran as 1
        pms = ModelParams(0.5, 1.0)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            propagate_moments(pms, 100.5, 2, checkpoints=[1, 50])
        with pytest.raises(ValueError, match="n_max must be an integer"):
            l2_diagnostic(pms, 1000.0)
        with pytest.raises(ValueError, match="degree must be an integer"):
            propagate_moments(pms, 100, 2.5, checkpoints=[1, 50])
        with pytest.raises(ValueError, match="n_max must be an integer"):
            propagate_moments(pms, True, 1)
        with pytest.raises(ValueError, match="degree must be an integer"):
            propagate_moments(pms, 100, True, checkpoints=[1, 50])
        got = propagate_moments(pms, np.int64(100), np.int32(2), checkpoints=[1, 50])
        want = propagate_moments(pms, 100, 2, checkpoints=[1, 50])
        assert all(np.array_equal(g.m, w.m, equal_nan=True) for g, w in zip(got, want))

    def test_scaled_accessor(self):
        pms = ModelParams(0.5, 1.0)
        (table,) = propagate_moments(pms, 1000, 2, checkpoints=[1000])
        raw = table.m[0, 2]
        assert table.scaled(0, 2, pms.beta) == pytest.approx(raw / 1000.0**2)


STREAM_PARAMS = [
    ModelParams(0.5, -0.5),
    ModelParams(0.5, 0.0),
    ModelParams(0.3, 3 / 7),
    ModelParams(0.5, 1.0),
    ModelParams(0.5, 2.0),
]


def _l2_whole_array(params, n_max):
    """The L2 diagnostic as computed from whole trajectories, kept verbatim
    as the reference for the streamed pass."""
    rate = params.rate
    vectors = _propagate_vectors(params, n_max, 2)
    m02 = vectors[(0, 2)]
    k = np.arange(1, n_max, dtype=np.float64)
    c1 = np.concatenate([[1.0], np.cumprod((k + rate) / k)])
    c2 = np.concatenate([[1.0], np.cumprod((k + 2.0 * rate) / k)])
    m2 = m02 / c1**2
    cps = _check_checkpoints(None, n_max)
    ell = m02 / c2
    lo = max(2, n_max // 100)
    ns = np.unique(np.geomspace(lo, n_max - 1, 64).astype(np.int64))
    inc = ell[ns] - ell[ns - 1]
    valid = inc > 0
    slope = float(
        np.polyfit(np.log(ns[valid].astype(float)), np.log(inc[valid]), 1)[0]
    )
    decade_lo = max(1, n_max // 10)
    increase = float(m2[n_max - 1] - m2[decade_lo - 1])
    return {
        "params": params,
        "n_max": n_max,
        "sup_m2": float(np.max(m2)),
        "bounded": slope < -1.0 - 0.02,
        "last_decade_increase": increase,
        "increment_exponent": slope,
        "expected_exponent": params.beta - rate - 1.0,
        "checkpoints": cps,
        "m2": m2[cps - 1],
    }


class TestStreamedPass:
    """The chunked propagator against the whole-array oracle, bit for bit."""

    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize(
        "pms", STREAM_PARAMS, ids=lambda p: f"p{p.p}b{p.beta:.3g}"
    )
    def test_moments_match_oracle_at_every_index(self, monkeypatch, chunk, pms):
        monkeypatch.setattr(exact_mod, "_CHUNK", chunk)
        for n_max in (1, 2, chunk, chunk + 1, 3 * chunk + 2):
            for degree in (1, 2, 3, 4):
                ref = _propagate_vectors(pms, n_max, degree)
                tables = propagate_moments(
                    pms, n_max, degree, checkpoints=np.arange(1, n_max + 1)
                )
                for (a, b), vec in ref.items():
                    got = np.array([t.m[a, b] for t in tables])
                    assert np.array_equal(got, vec), (n_max, degree, (a, b))

    # two full chunks, then two and a one-step tail, at the chunk size that runs
    @pytest.mark.parametrize("tail", [0, 1])
    @pytest.mark.parametrize(
        "pms", STREAM_PARAMS, ids=lambda p: f"p{p.p}b{p.beta:.3g}"
    )
    def test_pass_matches_oracle_at_production_chunk(self, pms, tail):
        n_max = 2 * exact_mod._CHUNK + 1 + tail
        ref = _propagate_vectors(pms, n_max, 4)
        moments, cvals, sup_m2 = exact_mod._stream_moments(
            pms, n_max, 4, np.arange(n_max)
        )
        assert moments.keys() == ref.keys()
        for key, vec in ref.items():
            assert np.array_equal(moments[key], vec), key
        k = np.arange(1, n_max, dtype=np.float64)
        for b in range(5):
            want = np.concatenate([[1.0], np.cumprod((k + b * pms.rate) / k)])
            assert np.array_equal(cvals[b], want), b
        assert sup_m2 == float(np.max(ref[(0, 2)] / cvals[1] ** 2))

    # 98306 - 1 steps: several chunk edges and a one-step tail at any
    # power-of-two _CHUNK up to 2^15
    @pytest.mark.parametrize("n_max", [100, 10**4, 98306])
    @pytest.mark.parametrize(
        "pms", [ModelParams(0.3, 3 / 7), ModelParams(0.5, 0.5), ModelParams(0.5, 2.0)],
        ids=lambda p: f"p{p.p}b{p.beta:.3g}",
    )
    def test_l2_matches_whole_array_diagnostic(self, pms, n_max):
        got = l2_diagnostic(pms, n_max)
        for field, want in _l2_whole_array(pms, n_max).items():
            assert np.array_equal(getattr(got, field), want), field

    def test_tables_and_l2_from_one_pass(self, monkeypatch):
        monkeypatch.setattr(exact_mod, "_CHUNK", 64)
        pms = ModelParams(0.5, 1.0)
        cps = geometric_checkpoints(1000)
        for degree in (1, 3):
            tables, diag = exact_mod._moments_and_l2(pms, 1000, degree, cps)
            ref = propagate_moments(pms, 1000, degree, checkpoints=cps)
            for got, want in zip(tables, ref, strict=True):
                assert got.n == want.n
                assert np.array_equal(got.m, want.m, equal_nan=True)
            for field, want in _l2_whole_array(pms, 1000).items():
                assert np.array_equal(getattr(diag, field), want), field

    @pytest.mark.parametrize("pms", GRID, ids=lambda p: f"p{p.p}b{p.beta:.3g}")
    def test_mean_table_matches_per_call_means(self, pms):
        cps = geometric_checkpoints(10**5)
        want = [exact_mean_xi(int(c), pms) for c in cps]
        assert np.array_equal(_mean_table(pms, cps), want)

    def test_memory_stays_chunk_sized(self):
        # whole-array trajectories at this size peaked near 175 MiB; the
        # preallocated scan buffers of a degree-3 pass take about 2.2 MiB
        pms = ModelParams(0.5, 1.0)
        tracemalloc.start()
        try:
            propagate_moments(pms, 10**6, 3)
            l2_diagnostic(pms, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestEnumeration:
    def test_two_step_law(self):
        for p in (0.2, 0.5, 0.8):
            law, _ = enumerate_law(ModelParams(p, 1.0), 2)
            assert law.probs[1] == pytest.approx(1 - p, abs=1e-15)
            assert law.probs[2] == pytest.approx(p, abs=1e-15)

    @pytest.mark.parametrize("pms", GRID, ids=lambda p: f"p{p.p}b{p.beta:.3g}")
    def test_mean_matches_closed_form(self, pms):
        for n in (2, 5, 9, 12):
            law, _ = enumerate_law(pms, n)
            assert law.mean == pytest.approx(exact_mean_xi(n, pms), rel=1e-12)

    def test_moments_match_propagator(self):
        pms = ModelParams(0.5, 1.0)
        _, mom = enumerate_law(pms, 12)
        (table,) = propagate_moments(pms, 12, 3, checkpoints=[12])
        for a in range(4):
            for b in range(4 - a):
                assert mom.m[a, b] == pytest.approx(table.m[a, b], rel=1e-12), (a, b)

    def test_law_is_distribution(self):
        law, _ = enumerate_law(ModelParams(0.7, -0.8), 11)
        assert law.probs[0] == 0.0
        assert (law.probs >= 0).all()
        assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_limits(self):
        pms = ModelParams(0.5, 1.0)
        with pytest.raises(ValueError):
            enumerate_law(pms, ENUMERATION_MAX_STEPS + 1)
        with pytest.raises(ValueError):
            enumerate_law(pms, 1)


class TestL2Diagnostic:
    @pytest.mark.parametrize(
        "p,beta,expect",
        [
            (0.5, -0.5, True),
            (0.5, 0.0, True),
            (0.5, 0.5, True),
            (0.5, 1.0, False),  # critical: log divergence
            (0.5, 2.0, False),
            (0.2, 0.1, True),
            (0.8, 6.0, False),
        ],
    )
    def test_verdict_matches_phase(self, p, beta, expect):
        d = l2_diagnostic(ModelParams(p, beta), 10**4)
        assert d.bounded == expect
        # finite-horizon curvature keeps the fitted slope within ~0.1
        assert d.increment_exponent == pytest.approx(d.expected_exponent, abs=0.1)

    def test_m2_nondecreasing(self):
        d = l2_diagnostic(ModelParams(0.5, 0.7), 10**4)
        assert (np.diff(d.m2) >= -1e-12).all()
        assert d.sup_m2 == pytest.approx(d.m2[-1], rel=1e-12)


class TestProductBound:
    def test_first_factor(self):
        for p in (0.2, 0.5, 0.8):
            pb = lower_bound_prob_one(ModelParams(p, 1.0), 2)
            assert pb.truncated == pytest.approx(1 - p, rel=1e-14)

    def test_golden_values(self):
        pb = lower_bound_prob_one(ModelParams(0.5, 1.0), 10**6)
        assert pb.truncated == pytest.approx(GOLDEN_PRODUCT_05_1_1E6, rel=1e-12)
        assert 0.0 < pb.certified_lower <= pb.truncated <= 0.5
        # the certified bound sits below the true infinite product (up to
        # last-ulp rounding; at 1e6 terms they agree to ~16 digits)
        assert pb.certified_lower <= GOLDEN_PRODUCT_05_1_INF * (1 + 1e-12)
        assert pb.certified_lower == pytest.approx(GOLDEN_PRODUCT_05_1_INF, rel=1e-6)

    def test_positive_for_strong_bias(self):
        pb = lower_bound_prob_one(ModelParams(0.5, 2.0), 10**5)
        assert pb.certified_lower > 0.0

    def test_requires_positive_beta(self):
        with pytest.raises(ValueError):
            lower_bound_prob_one(ModelParams(0.5, 0.0), 100)
        with pytest.raises(ValueError):
            lower_bound_prob_one(ModelParams(0.5, -0.5), 100)
