import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from erwalk.analysis import chi_square_two_sample
from erwalk.branching import (
    MAX_TYPE,
    BranchingParams,
    _cutoff_search,
    _offspring_cutoff_bisect,
    _offspring_tail,
    _sample_offspring_scan,
    offspring_cutoff,
    offspring_partial_sum,
    offspring_rate,
    sample_offspring,
    simulate,
    simulate_modified_walk,
)
from erwalk.gammaratio import log_poch
from erwalk.memory import MemoryLaw


def params_with_cutoff(p, beta, k, cutoff):
    """Choose epsilon so the certified cutoff for type k is exactly `cutoff`."""
    eps = float(_offspring_tail(k, cutoff, BranchingParams(p, beta)))
    return BranchingParams(p, beta, epsilon=eps * (1 + 1e-12))


class TestOffspringRate:
    def test_first_pair_is_p(self):
        for p in (0.2, 0.5, 0.9):
            assert offspring_rate(1, 2, BranchingParams(p, 1.3)) == pytest.approx(
                p, rel=1e-13
            )

    def test_adjacent_types(self):
        # q(k, k+1) = p(beta+1)/(k+beta) by the one-step weight ratio
        bp = BranchingParams(0.4, 0.7)
        for k in (1, 5, 50, 400):
            want = bp.rate / (k + bp.beta)
            assert offspring_rate(k, k + 1, bp) == pytest.approx(want, rel=1e-12)

    def test_bounded_by_p(self):
        bp = BranchingParams(0.8, 0.2)
        for k in (1, 3, 17):
            for y in (k + 1, k + 2, k + 50, k + 5000):
                assert 0.0 < offspring_rate(k, y, bp) <= bp.p + 1e-15

    def test_domain(self):
        bp = BranchingParams(0.5, 1.0)
        with pytest.raises(ValueError):
            offspring_rate(3, 3, bp)
        with pytest.raises(ValueError):
            offspring_rate(3, 2, bp)
        with pytest.raises(ValueError):
            BranchingParams(0.5, 0.0)
        with pytest.raises(ValueError):
            BranchingParams(0.5, -0.5)

    # unchecked, each would surface late: beta = inf as a NaN inside simulate,
    # epsilon = inf as every cutoff silently k+1, max_gen = 2.5 inside range()
    @pytest.mark.parametrize("kwargs", [
        dict(beta=math.inf),
        dict(beta=math.nan),
        dict(epsilon=math.inf),
        dict(epsilon=math.nan),
        dict(max_gen=2.5),
        dict(max_gen=40.0),
        dict(max_pop=1e6),
        dict(max_pop="100"),
    ])
    def test_params_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            BranchingParams(**{"p": 0.5, "beta": 1.0, **kwargs})

    def test_numpy_integer_caps_accepted(self):
        bp = BranchingParams(0.5, 1.0, max_gen=np.int64(5), max_pop=np.int32(50))
        assert simulate(bp, np.random.default_rng(0)).generation_sizes.size <= 5

    def test_non_integer_type_rejected(self, rng):
        bp = BranchingParams(0.5, 1.0)
        for k in (1.5, 2.0, np.float64(3.0), "4", 0, -2):
            with pytest.raises(ValueError):
                sample_offspring(k, bp, rng)
            with pytest.raises(ValueError):
                offspring_cutoff(k, bp)
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            assert offspring_cutoff(k, bp) == offspring_cutoff(3, bp)
            kids, _ = sample_offspring(k, bp, rng)
            assert kids.dtype == np.int64 and (kids > 3).all()


class TestPartialSums:
    def test_single_term(self):
        bp = BranchingParams(0.5, 1.0)
        for k in (1, 4, 9):
            assert offspring_partial_sum(k, k + 1, bp) == pytest.approx(
                offspring_rate(k, k + 1, bp), rel=1e-12
            )

    def test_matches_direct_summation(self):
        bp = BranchingParams(0.6, 0.9)
        for k in (1, 5, 50):
            direct = sum(offspring_rate(k, y, bp) for y in range(k + 1, k + 2001))
            assert offspring_partial_sum(k, k + 2000, bp) == pytest.approx(
                direct, rel=1e-12
            )

    def test_increasing_to_mean(self):
        bp = BranchingParams(0.5, 1.0)
        k = 3
        prev = 0.0
        for upto in (4, 8, 100, 10**4, 10**6):
            s = offspring_partial_sum(k, upto, bp)
            assert prev < s < bp.mean_offspring
            prev = s

    def test_total_mass_constant_in_type(self):
        # sum_y q(k, y) = p(beta+1)/beta for every k
        bp = BranchingParams(0.5, 1.0)
        for k in (1, 5, 50):
            upto = int(k * 10 ** (6 / bp.beta))
            got = offspring_partial_sum(k, upto, bp)
            assert got == pytest.approx(bp.mean_offspring, rel=1e-5)
            assert bp.mean_offspring - got > 0  # strictly from below

    def test_cutoff_certified(self):
        for p, beta, k in [(0.5, 1.0, 1), (0.5, 2.0, 7), (0.3, 0.5, 20)]:
            bp = BranchingParams(p, beta, epsilon=1e-6)
            cut = offspring_cutoff(k, bp)
            assert _offspring_tail(k, cut, bp) <= bp.epsilon
            if cut > k + 1:
                assert _offspring_tail(k, cut - 1, bp) > bp.epsilon

    # k log-uniform over [1, 2**62]: draw a bit length, then k within it
    @given(
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        beta=st.floats(0.05, 10.0),
        log_eps=st.floats(-12.0, math.log10(0.5)),
        k=st.integers(0, 61).flatmap(lambda b: st.integers(1 << b, 1 << (b + 1))),
    )
    # K ~ 1.55e15: beta/K is at rounding level, so the float tail is not
    # monotone in K there and only certification is required
    @example(p=0.2, beta=10.0, log_eps=-8.0, k=286568466660702)
    # cutoffs just below the cap (K ~ 4.6e18) and just past it
    @example(p=0.5, beta=1.0, log_eps=-8.0, k=46_000_000_000)
    @example(p=0.5, beta=1.0, log_eps=-8.0, k=50_000_000_000)
    def test_cutoff_matches_bisection(self, p, beta, log_eps, k):
        bp = BranchingParams(p, beta, epsilon=10.0**log_eps)
        cut = offspring_cutoff(k, bp)
        want = _offspring_cutoff_bisect(k, bp)
        if want < 1 << 40:
            assert cut == want
        assert min(k + 1, MAX_TYPE) <= cut
        if _offspring_tail(k, cut, bp) > bp.epsilon:
            assert cut == MAX_TYPE
        elif cut > k + 1:
            assert _offspring_tail(k, cut - 1, bp) > bp.epsilon

    # sha256 of the cutoffs over CUTOFF_TYPES, recorded from offspring_cutoff
    # before its search started from the Stirling guess below 2**43; the
    # grid holds K = k+1, cutoffs on both sides of 2**43 and MAX_TYPE caps
    @pytest.mark.parametrize("p,beta,eps,want", [
        (0.75, 3.0, 1e-8, "a49b99b8f850f38f559578f615ad9eaa9e84644851b2d5c894e5e9cabc42da50"),
        (0.5, 1.0, 1e-8, "7a77c8b666e64c5b7c8cff72cb835f60a79774564dd6989cba7e5edf9637dc69"),
        (0.5, 2.0, 1e-6, "b0542f24125244f39e320b61bef95b1c505734843962910a98ba5fc6e2b72638"),
        (0.3, 0.5, 1e-4, "97edbea866021adcdf31344517f8b485f89d40a66e8d60fba75e93a5e859641d"),
        (0.2, 10.0, 1e-8, "0160fab19265e9e6ebc69991dccb8703070a3296160479cf457c36112eaca7f9"),
        (0.5, 1.0, 0.999, "edb5846098ecddbd8eb16acf7f04a3a5fdfdb6fcfca602e3686a10709e18a2c5"),
        (0.05, 0.2, 1e-3, "687645699bed8e888d832ec7b402d55cf8b3a533574fee877a2120df735382eb"),
    ])
    def test_cutoff_search(self, p, beta, eps, want):
        bp = BranchingParams(p, beta, epsilon=eps)
        search = _cutoff_search(bp)
        h = hashlib.sha256()
        for k in CUTOFF_TYPES:
            cut, lp_cut = search(k, log_poch(float(k), beta))
            assert cut == offspring_cutoff(k, bp)
            # the discarded mass reuses this value, so it must be the same bits
            assert struct.pack("<d", lp_cut) == struct.pack("<d", log_poch(float(cut), beta))
            h.update(struct.pack("<q", cut))
        assert h.hexdigest() == want


# types 1..200, then log-uniform (ratio ~1.047) from 201 up to 1e12
CUTOFF_TYPES = list(range(1, 201))
_k = 201
while _k <= 10**12:
    CUTOFF_TYPES.append(_k)
    _k = _k * 1047 // 1000 + 1


class TestSampleOffspring:
    def test_children_exceed_parent(self, rng):
        bp = BranchingParams(0.7, 0.5, epsilon=1e-4)
        for k in (1, 6):
            for _ in range(200):
                kids, _ = sample_offspring(k, bp, rng)
                assert (kids > k).all()
                assert len(np.unique(kids)) == len(kids)

    def test_skip_sampler_matches_literal_scan(self, rng):
        # same truncation for both, small enough for the scan to be feasible
        bp = params_with_cutoff(0.5, 1.0, 3, 250)
        assert offspring_cutoff(3, bp) == 250
        n_draws = 20000
        skip_counts = np.array(
            [len(sample_offspring(3, bp, rng)[0]) for _ in range(n_draws)]
        )
        scan_counts = np.array(
            [len(_sample_offspring_scan(3, 250, bp, rng)) for _ in range(n_draws)]
        )
        assert chi_square_two_sample(skip_counts, scan_counts) > 1e-3

    def test_skip_sampler_type_frequencies(self, rng):
        # per-type hit frequencies match q(k, y) on the near range
        bp = params_with_cutoff(0.5, 1.0, 1, 400)
        n_draws = 30000
        hits = np.zeros(10)
        for _ in range(n_draws):
            kids, _ = sample_offspring(1, bp, rng)
            for c in kids[kids <= 11]:
                hits[c - 2] += 1
        for y in range(2, 12):
            q = offspring_rate(1, y, bp)
            se = math.sqrt(q * (1 - q) / n_draws)
            assert hits[y - 2] / n_draws == pytest.approx(q, abs=5 * se), y

    def test_mean_children(self, rng):
        bp = BranchingParams(0.5, 1.0)  # mean offspring 1, eps = 1e-8
        for k in (1, 5, 50):
            counts = np.array(
                [len(sample_offspring(k, bp, rng)[0]) for _ in range(10000)]
            )
            se = counts.std(ddof=1) / math.sqrt(len(counts))
            assert counts.mean() == pytest.approx(
                bp.mean_offspring, abs=4.5 * se + bp.epsilon
            ), k

    def test_discarded_mass_within_budget(self, rng):
        bp = BranchingParams(0.5, 1.5, epsilon=1e-6)
        _, disc = sample_offspring(4, bp, rng)
        assert 0.0 <= disc <= bp.epsilon

    def test_no_children_probability_bound(self, rng):
        # P(no children) >= exp(-C m) with C = -log(1-p)/p
        bp = BranchingParams(0.5, 1.0)
        c_bound = -math.log1p(-bp.p) / bp.p
        floor = math.exp(-c_bound * bp.mean_offspring)
        for k in (1, 5, 50):
            n_draws = 8000
            empty = sum(
                len(sample_offspring(k, bp, rng)[0]) == 0 for _ in range(n_draws)
            )
            freq = empty / n_draws
            se = math.sqrt(freq * (1 - freq) / n_draws)
            assert freq >= floor - 4.5 * se, k


class TestSimulate:
    def test_supercritical_explodes_into_cap(self, rng):
        bp = BranchingParams(0.9, 0.1, max_gen=60, max_pop=2000)
        # mean offspring 9.9: population hits the cap, censored not extinct
        res = simulate(bp, rng)
        assert res.censored and not res.extinct

    def test_generation_mean_size(self, rng):
        # E[N_5] = m^4 with m = 1 at (0.5, 1.0)
        bp = BranchingParams(0.5, 1.0, max_gen=5)
        sizes = []
        for _ in range(3000):
            res = simulate(bp, rng)
            n5 = res.generation_sizes[4] if len(res.generation_sizes) >= 5 else 0
            sizes.append(n5)
        sizes = np.array(sizes, dtype=float)
        se = sizes.std(ddof=1) / math.sqrt(len(sizes))
        assert sizes.mean() == pytest.approx(1.0, abs=4.5 * se)

    def test_subcritical_extinction(self, rng):
        bp = BranchingParams(0.5, 2.0, max_gen=40)  # m = 0.75
        runs = [simulate(bp, rng) for _ in range(2000)]
        extinct = sum(r.extinct for r in runs)
        assert extinct / len(runs) >= 0.99

    def test_types_bound_generation(self, rng):
        # types strictly increase down a lineage, so generation g holds types >= g
        bp = BranchingParams(0.5, 0.8, max_gen=12)
        for _ in range(100):
            res = simulate(bp, rng, keep_generations=True)
            for pop in res.generations:
                if len(pop.types):
                    assert pop.types.min() >= pop.generation

    def test_truncation_mass_budget(self, rng):
        # the epsilon budget is certified whenever every cutoff was
        # representable; rare stratospheric types cap out and book the
        # (slightly larger) discard in cap_hits runs
        bp = BranchingParams(0.5, 1.0, epsilon=1e-6, max_gen=30)
        checked = 0
        for _ in range(50):
            res = simulate(bp, rng)
            if res.cap_hits:
                continue
            checked += 1
            n_particles = int(res.generation_sizes.sum())
            assert res.truncation_mass <= bp.epsilon * n_particles + 1e-15
        assert checked >= 40

    def test_critical_survival_nonincreasing(self, rng):
        bp = BranchingParams(0.5, 1.0, max_gen=40)
        alive = {g: 0 for g in (5, 10, 20, 40)}
        n_runs = 3000
        for _ in range(n_runs):
            res = simulate(bp, rng)
            span = len(res.generation_sizes)
            for g in alive:
                if span >= g and res.generation_sizes[g - 1] > 0:
                    alive[g] += 1
        probs = [alive[g] / n_runs for g in (5, 10, 20, 40)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


def _branching_digest(results):
    h = hashlib.sha256()
    for res in results:
        h.update(res.generation_sizes.tobytes())
        for pop in res.generations:
            h.update(pop.types.tobytes())
        h.update(struct.pack("<d", res.truncation_mass))
        h.update(struct.pack("<q", res.cap_hits))
    return h.hexdigest()


# sha256 of whole realized trees, pinned from the doubling/bisection cutoff;
# (0.5, 1) over 100 runs includes 1001 draws whose cutoff hit MAX_TYPE
@pytest.mark.parametrize("p,beta,seed,runs,cap_hits,want", [
    (0.75, 3.0, 41, 30, 0, "249ca4d9ef0db8615ed8575c6b90daa7d671738398c06aa4ac044c97e8b53d15"),
    (0.5, 2.0, 42, 30, 0, "35864377b44c4c6d04890e00bd128c97054a9427905458cf1a94a3f7eab7be37"),
    (0.5, 1.0, 43, 100, 1001, "03f3deea1d79da444865b323e7f5c04fdef380c4e801edea0450935e644c1b49"),
])
def test_simulate_golden_digests(p, beta, seed, runs, cap_hits, want):
    bp = BranchingParams(p, beta, max_gen=40, max_pop=300)
    rng = np.random.default_rng(seed)
    results = [simulate(bp, rng, keep_generations=True) for _ in range(runs)]
    assert sum(r.cap_hits for r in results) == cap_hits
    assert _branching_digest(results) == want


class TestModifiedWalk:
    def test_second_step_probability(self, rng):
        # at t = 1 the only occupied time is recalled surely, so P(X_2 = 1) = p
        n_runs = 20000
        se = math.sqrt(0.35 * 0.65 / n_runs)
        for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
            bp = BranchingParams(0.35, beta)
            hits = sum(
                simulate_modified_walk(bp, 2, rng).xi[-1] == 2 for _ in range(n_runs)
            )
            assert hits / n_runs == pytest.approx(0.35, abs=4.5 * se), beta

    def test_mean_dominated_by_branching_types(self, rng):
        # mean step count of the modified walk is at most the mean number of
        # distinct types in the matching number of branching generations
        bp = BranchingParams(0.5, 1.0, max_gen=30)
        depth = 30
        n_runs = 1500
        walk_means = np.array(
            [simulate_modified_walk(bp, depth, rng).xi[-1] for _ in range(n_runs)],
            dtype=float,
        )
        types = []
        for _ in range(n_runs):
            res = simulate(bp, rng)
            d = res.distinct_by_generation
            types.append(d[min(depth, len(d)) - 1])
        types = np.array(types, dtype=float)
        se = math.sqrt(
            walk_means.var(ddof=1) / n_runs + types.var(ddof=1) / n_runs
        )
        assert walk_means.mean() <= types.mean() + 4.5 * se

    def test_step_probability_discrepancy_bound(self):
        # for any occupied set I: 0 <= P(recall in I) - P(field max = 1)
        #                         <= sum_{i != j in I} P_i P_j
        rng = np.random.default_rng(5)
        for beta in (0.5, 1.0, 3.0):
            for n in (5, 20, 100):
                law = MemoryLaw(beta, n)
                for _ in range(20):
                    size = int(rng.integers(1, n + 1))
                    idx = rng.choice(np.arange(1, n + 1), size=size, replace=False)
                    pmf = law.pmf(idx)
                    p_union = pmf.sum()
                    p_max = -math.expm1(float(np.log1p(-pmf).sum()))
                    gap = p_union - p_max
                    pair_bound = pmf.sum() ** 2 - (pmf**2).sum()
                    assert -1e-12 <= gap <= pair_bound + 1e-12

    def test_xi_nondecreasing(self, rng):
        res = simulate_modified_walk(BranchingParams(0.5, 1.0), 200, rng)
        assert res.xi[0] == 1
        d = np.diff(res.xi)
        assert ((d == 0) | (d == 1)).all()
