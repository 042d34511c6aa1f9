import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sp_stats

from erwalk.memory import MemoryLaw

BETA_GRID = [-0.9, -0.5, 0.0, 0.5, 1.0, 3.0]
N_GRID = [1, 2, 10, 10**3, 10**6]


class TestPmf:
    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_sums_to_one(self, beta, n):
        law = MemoryLaw(beta, n)
        total = law.pmf(np.arange(1, n + 1)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_uniform_case(self):
        assert MemoryLaw(0.0, 5).pmf(3) == pytest.approx(0.2, abs=1e-15)

    def test_single_point(self):
        # exact, not rounded: 1 - pmf feeds log1p in the modified walk
        for beta in BETA_GRID + [1.5, 2.0]:
            law = MemoryLaw(beta, 1)
            assert law.pmf(1) == 1.0
            assert law.pmf(np.array([0, 1, 2])).tolist() == [0.0, 1.0, 0.0]

    @given(beta=st.floats(-0.99, 10.0), n=st.integers(1, 2000))
    def test_is_a_probability(self, beta, n):
        law = MemoryLaw(beta, n)
        p = law.pmf(np.arange(1, n + 1))
        assert ((p >= 0.0) & (p <= 1.0)).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= law.pmf(1) <= 1.0 and 0.0 <= law.pmf(n) <= 1.0
        c = law.cdf(np.arange(0, n + 1))
        assert ((c >= 0.0) & (c <= 1.0)).all()
        assert 0.0 <= law.cdf(n - 1) <= 1.0

    def test_recency_weighted_case(self):
        # mu_2 = 2, mu_4 = 4 at beta = 1, so pmf(2) = (2/3)*(2/4)
        assert MemoryLaw(1.0, 3).pmf(2) == pytest.approx(1 / 3, rel=1e-14)

    def test_zero_off_support(self):
        law = MemoryLaw(0.5, 4)
        assert law.pmf(0) == 0.0
        assert law.pmf(5) == 0.0

    @pytest.mark.parametrize("beta,direction", [(1.5, 1), (-0.6, -1), (0.0, 0)])
    def test_monotone_by_sign(self, beta, direction):
        law = MemoryLaw(beta, 50)
        p = law.pmf(np.arange(1, 51))
        diffs = np.diff(p)
        if direction > 0:
            assert (diffs > 0).all()
        elif direction < 0:
            assert (diffs < 0).all()
        else:
            assert np.allclose(diffs, 0.0, atol=1e-16)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryLaw(-1.0, 5)
        with pytest.raises(ValueError):
            MemoryLaw(0.5, 0)


class TestCdf:
    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_matches_pmf_partial_sum(self, beta, n):
        law = MemoryLaw(beta, n)
        rng = np.random.default_rng(abs(hash((beta, n))) % 2**32)
        m = int(rng.integers(1, n + 1))
        partial = law.pmf(np.arange(1, m + 1)).sum()
        assert law.cdf(m) == pytest.approx(partial, abs=1e-12)

    def test_boundaries(self):
        law = MemoryLaw(1.7, 123)
        assert law.cdf(0) == 0.0
        assert law.cdf(123) == 1.0  # exact by construction

    def test_uniform_case(self):
        assert MemoryLaw(0.0, 10).cdf(4) == pytest.approx(0.4, abs=1e-15)

    def test_weighted_case(self):
        # (2 mu_3) / (3 mu_4) = 6/12 at beta = 1
        assert MemoryLaw(1.0, 3).cdf(2) == pytest.approx(0.5, rel=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MemoryLaw(0.5, 5).cdf(6)


class TestSample:
    def test_single_point_support(self):
        law = MemoryLaw(0.7, 1)
        for u in (0.0, 0.3, 0.999):
            assert law.sample(u) == 1

    def test_uniform_inverse(self):
        # cdf(2) = 0.5 < 0.6 <= cdf(3) = 0.75
        assert MemoryLaw(0.0, 4).sample(0.6) == 3

    def test_u_domain(self):
        with pytest.raises(ValueError):
            MemoryLaw(0.0, 4).sample(1.0)
        with pytest.raises(ValueError):
            MemoryLaw(0.0, 4).sample(-0.1)

    @given(
        u1=st.floats(0.0, 0.999999),
        u2=st.floats(0.0, 0.999999),
        beta=st.sampled_from(BETA_GRID),
        n=st.sampled_from([1, 2, 7, 100, 10**5]),
    )
    def test_monotone_in_u(self, u1, u2, beta, n):
        law = MemoryLaw(beta, n)
        lo, hi = sorted((u1, u2))
        assert law.sample(lo) <= law.sample(hi)

    def test_sample_many_matches_scalar(self, rng):
        law = MemoryLaw(1.3, 57)
        us = rng.random(300)
        vec = law.sample_many(us)
        for u, k in zip(us, vec):
            assert law.sample(float(u)) == k

    def test_large_n_sampling(self):
        # closed-form inversion keeps working at 1e8 without materializing weights
        law = MemoryLaw(0.5, 10**8)
        ks = law.sample_many(np.array([0.0, 0.2, 0.9, 0.999999]))
        assert (np.diff(ks) >= 0).all()
        assert 1 <= ks[0] and ks[-1] <= 10**8

    def test_empirical_law_chi_square(self, rng):
        law = MemoryLaw(2.0, 100)
        n_samples = 10**6
        ks = law.sample_many(rng.random(n_samples))
        observed = np.bincount(ks, minlength=101)[1:].astype(float)
        expected = law.pmf(np.arange(1, 101)) * n_samples
        keep = expected > 5
        obs, exp = observed[keep], expected[keep]
        if (~keep).any():  # pool any low-expectation head into one bin
            obs = np.concatenate([[observed[~keep].sum()], obs])
            exp = np.concatenate([[expected[~keep].sum()], exp])
        stat = ((obs - exp) ** 2 / exp).sum()
        p_value = sp_stats.chi2.sf(stat, df=len(obs) - 1)
        assert p_value > 1e-3
