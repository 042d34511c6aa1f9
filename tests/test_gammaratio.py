import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from erwalk import gammaratio
from erwalk.gammaratio import (
    RatioSeq,
    gamma_ratio_sum,
    log_poch,
    log_poch_ratio,
    poch_ratio,
    poch_ratio_sum,
)

# one-off arbitrary-precision evaluation of Gamma(1000.75)/(Gamma(1000)Gamma(1.75))
GOLDEN_C_1000_075 = 193.47026628883222818


def direct_gamma_ratio_sum(a, b, n_lo, n_hi):
    """Term-by-term oracle for the telescoped sum, with 1/Gamma(0) = 0."""
    total = 0.0
    for k in range(n_lo, n_hi + 1):
        total += math.exp(gammaln(k + a) - gammaln(k + b))
    return total


class TestPochRatio:
    def test_xi_zero_is_one(self):
        for n in (1, 2, 17, 1000, 10**6):
            assert poch_ratio(n, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_n2_closed_form(self):
        for beta in (-0.9, -0.5, 0.0, 0.7, 1.0, 3.0, 9.5):
            assert poch_ratio(2, beta) == pytest.approx(1.0 + beta, rel=1e-14)

    def test_golden_value(self):
        assert poch_ratio(1000, 0.75) == pytest.approx(GOLDEN_C_1000_075, rel=1e-12)

    def test_first_value_is_one(self):
        for xi in (-0.5, 0.3, 2.0):
            assert poch_ratio(1, xi) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poch_ratio(10, -1.0)
        with pytest.raises(ValueError):
            poch_ratio(10, -1.5)
        with pytest.raises(ValueError):
            poch_ratio(0, 0.5)

    def test_positive(self):
        for xi in (-0.99, -0.4, 4.0):
            for n in (1, 3, 10**4, 10**5):
                assert poch_ratio(n, xi) > 0.0

    @pytest.mark.parametrize("n", [10, 1000, 10**6])
    @pytest.mark.parametrize("xi", [-0.9, -0.5, 0.75, 3.0, 10.0])
    def test_recurrence_matches_log_gamma_difference(self, n, xi):
        by_recurrence = poch_ratio(n, xi)
        by_direct = math.exp(log_poch_ratio(n, xi))
        assert by_recurrence == pytest.approx(by_direct, rel=1e-12)

    @pytest.mark.parametrize("n", [1000, 10**6])
    @pytest.mark.parametrize("xi", [-0.9, 0.75, 3.0, 10.0])
    def test_against_arbitrary_precision(self, n, xi):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = mp.mpf(n) + mp.mpf(xi)
        want = float(mp.gamma(x) / (mp.gamma(n) * mp.gamma(mp.mpf(xi) + 1)))
        assert poch_ratio(n, xi) == pytest.approx(want, rel=1e-12)
        assert math.exp(log_poch_ratio(n, xi)) == pytest.approx(want, rel=1e-12)

    def test_one_step_ratio_exact(self):
        # spans the linear-to-log-space threshold of the cached recurrence
        for xi in (-0.7, 0.4, 2.5):
            seq = RatioSeq(xi)
            for n in (1, 2, 9_998, 9_999, 10_000, 10_001, 50_000):
                ratio = seq.value(n + 1) / seq.value(n)
                assert ratio == pytest.approx((n + xi) / n, rel=1e-13)

    def test_bulk_values_match_scalar(self):
        seq = RatioSeq(1.3)
        vals = seq.values(2000)
        for n in (1, 2, 500, 2000):
            assert vals[n - 1] == seq.value(n)
        logs = seq.log_values(2000)
        assert np.allclose(np.log(vals[10:]), logs[10:], rtol=0, atol=1e-12)

    def test_streaming_past_cache_cap(self):
        seq = RatioSeq(0.5)
        n = seq.MAX_CACHE + 50_000
        got = seq.log_value(n)
        want = log_poch_ratio(n, 0.5)
        assert got == pytest.approx(want, rel=1e-10)
        assert len(seq) <= seq.MAX_CACHE


class TestGammaRatioSum:
    def test_constant_terms(self):
        assert gamma_ratio_sum(0.0, 0.0, 1, 5) == pytest.approx(5.0, rel=1e-12)

    def test_linear_terms(self):
        assert gamma_ratio_sum(1.0, 0.0, 1, 3) == pytest.approx(6.0, rel=1e-12)

    def test_derived_against_loop(self):
        got = gamma_ratio_sum(0.5, 2.5, 2, 50)
        assert got == pytest.approx(direct_gamma_ratio_sum(0.5, 2.5, 2, 50), rel=1e-12)

    def test_reciprocal_gamma_zero_convention(self):
        # lower boundary term hits Gamma(0) when n_lo = 1, b = 0
        got = gamma_ratio_sum(0.3, 0.0, 1, 20)
        assert got == pytest.approx(direct_gamma_ratio_sum(0.3, 0.0, 1, 20), rel=1e-12)

    def test_single_term(self):
        got = gamma_ratio_sum(0.7, 1.4, 3, 3)
        assert got == pytest.approx(math.exp(gammaln(3.7) - gammaln(4.4)), rel=1e-12)

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ValueError):
            gamma_ratio_sum(0.5, 1.5, 1, 10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_ratio_sum(-1.0, 0.0, 1, 5)
        with pytest.raises(ValueError):
            gamma_ratio_sum(0.5, -0.1, 1, 5)
        with pytest.raises(ValueError):
            gamma_ratio_sum(0.5, 0.0, 5, 4)

    @given(
        a=st.floats(-0.95, 3.0),
        b=st.floats(0.0, 4.0),
        n_lo=st.integers(1, 50),
        span=st.integers(0, 300),
    )
    def test_matches_direct_sum(self, a, b, n_lo, span):
        if abs(b - (a + 1.0)) < 0.05:
            b = a + 1.5 if a + 1.5 <= 4.0 else a + 0.5
        got = gamma_ratio_sum(a, b, n_lo, n_lo + span)
        want = direct_gamma_ratio_sum(a, b, n_lo, n_lo + span)
        assert got == pytest.approx(want, rel=1e-10)


class TestPochRatioSum:
    def test_harmonic_branch_at_zero(self):
        assert poch_ratio_sum(0.0, 0.0, 4) == pytest.approx(1 + 0.5 + 1 / 3, rel=1e-14)

    def test_equal_exponent_branch(self):
        got = poch_ratio_sum(0.3, 0.3, 100)
        want = sum(1.0 / (k + 0.3) for k in range(1, 100))
        assert got == pytest.approx(want, rel=1e-13)

    def test_closed_form_against_loop(self):
        for x, y, n in [(1.0, 0.0, 10), (0.25, 1.75, 60), (-0.5, 0.8, 35)]:
            want = sum(
                poch_ratio(k, x) / (k * poch_ratio(k + 1, y)) for k in range(1, n)
            )
            assert poch_ratio_sum(x, y, n) == pytest.approx(want, rel=1e-12)

    def test_branch_continuity(self):
        # closed form one micro-step off the diagonal agrees with the diagonal
        for x in (0.4, 1.0, 2.2):
            near = poch_ratio_sum(x + 1e-6, x, 500)
            diag = poch_ratio_sum(x, x, 500)
            assert near == pytest.approx(diag, rel=1e-4)

    def test_empty_sum(self):
        assert poch_ratio_sum(0.5, 1.0, 1) == 0.0


def test_shared_table_independent_of_earlier_lengths(monkeypatch):
    # the shared table grows by doubling; each extension rebuilds it from
    # c_1, so a value's bits do not depend on what was asked for before
    monkeypatch.setattr(gammaratio, "_seq_cache", {})
    cold = [poch_ratio(n, 1.0) for n in range(1, 1102)]
    monkeypatch.setattr(gammaratio, "_seq_cache", {})
    gammaratio.ratio_seq(1.0).values(51)
    warm = [poch_ratio(n, 1.0) for n in range(1, 1102)]
    assert warm == cold
    assert cold == RatioSeq(1.0).values(1101).tolist()
