import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from erwalk import branching
from erwalk.analysis import chi_square_two_sample
from erwalk.branching import (
    MAX_TYPE,
    BranchingParams,
    _cutoff_search,
    _kernel,
    _log_q,
    _offspring_cutoff_bisect,
    _offspring_tail,
    _rewind,
    _sample_offspring_scan,
    _uniforms,
    offspring_cutoff,
    offspring_partial_sum,
    offspring_rate,
    sample_offspring,
    simulate,
    simulate_ensemble,
    simulate_modified_walk,
)
from erwalk.gammaratio import _log_poch_scalar, log_poch
from erwalk.memory import MemoryLaw
from erwalk.streams import replicate_stream


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

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.3, 3.0])
    def test_scalar_gives_the_array_bits(self, beta):
        bp = BranchingParams(0.5, beta)
        for k in (1, 2, 7, 12, 31, 100):
            for y in (k + 1, k + 2, 2 * k + 1, 10 * k + 3, 1000, 10**6):
                if y > k:
                    got = offspring_rate(k, y, bp)
                    assert type(got) is float
                    assert got == np.exp(_log_q(k, [y], bp))[0]

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
    # epsilon = inf as every cutoff silently k+1, max_gen = 2.5 inside range();
    # a bool cap would run as 1
    @pytest.mark.parametrize("kwargs", [
        dict(beta=math.inf),
        dict(beta=math.nan),
        dict(epsilon=math.inf),
        dict(epsilon=math.nan),
        dict(max_gen=2.5),
        dict(max_gen=40.0),
        dict(max_pop=1e6),
        dict(max_pop="100"),
        dict(max_gen=True),
        dict(max_pop=True),
        dict(max_gen=np.bool_(True)),
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

    def test_children_carry_their_log_poch(self, rng):
        # a child's own draw starts from the log mu its parent's draw formed,
        # so that value must be log_poch's bits for the child's type
        seen = 0
        for p, beta in ((0.5, 1.0), (0.75, 3.0), (0.3, 0.5)):
            draw = _kernel(BranchingParams(p, beta), rng.random)
            for k in (1, 31, 32, 1000):
                for _ in range(50):
                    children, _, _ = draw(k, log_poch(float(k), beta))
                    for c, lmu in children:
                        want = log_poch(float(c), beta)
                        assert struct.pack("<d", lmu) == struct.pack("<d", want), c
                        seen += 1
        assert seen > 300

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


# sha256 of sample_offspring's children and discarded-mass bits, 200 draws at
# each type in SAMPLE_TYPES on one Generator (seed 2025), then its next
# random(); recorded before the draw took log mu_k from its caller
@pytest.mark.parametrize("p,beta,want", [
    (0.5, 1.0, "f27934bb82d19bbbce636be961e226d7fe19f6c2583bb6d40634af0160519419"),
    (0.5, 2.0, "0f612778fe601f699796b2f9c8df43d519381c15416f88ad348e0240ccf72036"),
    (0.75, 3.0, "3bcda7d1707a4e375fb3e7a3654e4d8095b1aa5d06e8d3870e3c2de37883ba46"),
])
def test_sample_offspring_golden_digests(p, beta, want):
    bp = BranchingParams(p, beta)
    rng = np.random.default_rng(2025)
    h = hashlib.sha256()
    for k in SAMPLE_TYPES:
        for _ in range(200):
            kids, disc = sample_offspring(k, bp, rng)
            h.update(kids.tobytes())
            h.update(struct.pack("<d", disc))
    h.update(struct.pack("<d", rng.random()))
    assert h.hexdigest() == want


# both sides of the scalar log_poch's switch at 32, and capped cutoffs
SAMPLE_TYPES = (1, 31, 32, 33, 1000, 10**6, 10**12)


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


# sha256 of 40 runs' generation sizes, each followed by one rng.random(),
# recorded while simulate drew one scalar at a time: the draw after each run
# pins the Generator state that the run leaves; (0.9, 0.1) stops at max_pop
@pytest.mark.parametrize("p,beta,seed,want", [
    (0.75, 3.0, 7, "42e776d08e8db680bbe5c5f2721467cc6e26f6ccbf25ac378e7c0417f9b79f13"),
    (0.5, 1.0, 8, "b8a4f7e807daa0b29697b77bf91be6e16cffb7c1282ab5e4b52961bda40e020a"),
    (0.9, 0.1, 9, "4fb8b162f4e141bd87b322579d690b9159fa5780a274650430a49ae3a6c6f952"),
])
def test_simulate_leaves_the_generator_state(p, beta, seed, want):
    bp = BranchingParams(p, beta, max_gen=30, max_pop=200)
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(40):
        h.update(simulate(bp, rng).generation_sizes.tobytes())
        h.update(struct.pack("<d", rng.random()))
    assert h.hexdigest() == want


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox, np.random.SFC64,
                                    np.random.MT19937])
@pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 95, 96, 97, 3000])
def test_uniform_blocks_are_the_scalar_draws(bitgen, count):
    rng, ref = np.random.Generator(bitgen(5)), np.random.Generator(bitgen(5))
    last = []
    stream = _uniforms(rng, last)
    got = [next(stream) for _ in range(count)]
    assert got == [ref.random() for _ in range(count)]
    _rewind(rng, last)
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
    assert rng.random(5).tolist() == ref.random(5).tolist()


def _spans(sizes: np.ndarray, extinct: np.ndarray) -> np.ndarray:
    """Generations each run recorded, as len(simulate(...).generation_sizes)."""
    return np.count_nonzero(sizes, axis=1) + extinct


def _simulated(bp: BranchingParams, runs: int, seed: int):
    """(total progeny, generations recorded, censored) of `runs` simulate runs."""
    rng = np.random.default_rng(seed)
    res = [simulate(bp, rng) for _ in range(runs)]
    return (np.array([r.generation_sizes.sum() for r in res]),
            np.array([len(r.generation_sizes) for r in res]),
            np.array([r.censored for r in res]))


class TestSimulateEnsemble:
    @pytest.mark.parametrize("p,beta,max_gen,max_pop", [
        (0.5, 2.0, 15, 10**6), (0.5, 1.0, 40, 40)])
    def test_runs_depend_on_seed_and_run_alone(self, monkeypatch, p, beta, max_gen, max_pop):
        # (0.5, 1) caps cutoffs and censors at max_gen and max_pop; a group
        # of 3 particles splits every generation between its runs
        bp = BranchingParams(p, beta, max_gen=max_gen, max_pop=max_pop)
        whole = simulate_ensemble(bp, 60, 11)
        monkeypatch.setattr(branching, "_GROUP_PARTICLES", 3)
        for n_runs in (30, 60):
            part = simulate_ensemble(bp, n_runs, 11)
            width = part.generation_sizes.shape[1]
            assert np.array_equal(part.generation_sizes, whole.generation_sizes[:n_runs, :width])
            assert not whole.generation_sizes[:n_runs, width:].any()
            for name in ("extinct", "censored", "truncation_mass", "cap_hits"):
                assert np.array_equal(getattr(part, name), getattr(whole, name)[:n_runs]), name
        if beta == 1.0:
            assert whole.cap_hits.any() and (whole.generation_sizes > max_pop).any()
            assert (whole.generation_sizes[:, -1] > 0).any()

    def test_key_layout(self):
        # the root of run r draws from stream index r << 36 | 1 << 24 (rank 0),
        # round t reading draws 2t and 2t + 1: replay it one round at a time
        bp = BranchingParams(0.5, 2.0, max_gen=2)
        ens = simulate_ensemble(bp, 50, 3)
        lp1 = log_poch(1.0, bp.beta)
        K = offspring_cutoff(1, bp)
        for r in range(50):
            u = replicate_stream(3, r << 36 | 1 << 24).random(2 * 64)
            pos, kids = 1, 0
            for t in range(64):
                q_env = offspring_rate(1, pos + 1, bp)
                gap = math.log(u[2 * t]) / math.log1p(-q_env)
                if gap > K - pos:
                    break
                cand = pos + max(math.ceil(gap), 1)
                kids += gap <= 1.0 or u[2 * t + 1] < offspring_rate(1, cand, bp) / q_env
                pos = cand
                if pos >= K:
                    break
            assert ens.generation_sizes[r, 1] == kids, r
            assert ens.truncation_mass[r] == pytest.approx(
                bp.mean_offspring * math.exp(lp1 - log_poch(float(K), bp.beta)), rel=1e-12)
        assert ens.generation_sizes[:, 1].any()

    @pytest.mark.parametrize("p,beta,seed", [(0.5, 2.0, 101), (0.75, 3.0, 102)])
    def test_generation_means_are_exact(self, p, beta, seed):
        # E[N_g] = m^(g-1) for the untruncated process; epsilon moves it by
        # less than 1e-7, far inside the standard error
        bp = BranchingParams(p, beta, max_gen=10)
        sizes = simulate_ensemble(bp, 6000, seed).generation_sizes.astype(np.float64)
        assert sizes.shape[1] == 10 and (sizes[:, 0] == 1).all()
        m = bp.mean_offspring
        for g in range(2, 11):
            n_g = sizes[:, g - 1]
            se = n_g.std(ddof=1) / math.sqrt(len(n_g))
            assert abs(n_g.mean() - m ** (g - 1)) <= 4 * se, (g, n_g.mean(), se)

    @pytest.mark.parametrize("p,beta,max_gen,seed", [
        (0.5, 2.0, 40, 201), (0.75, 3.0, 20, 202), (0.5, 1.0, 30, 203)])
    def test_law_of_simulate(self, p, beta, max_gen, seed):
        # total progeny and generations recorded against simulate; at
        # (0.5, 1) cutoffs hit MAX_TYPE and max_gen censors a few percent of runs
        bp = BranchingParams(p, beta, max_gen=max_gen)
        runs = 400 if beta == 1.0 else 1000
        ens = simulate_ensemble(bp, 2 * runs, seed)
        total, spans, censored = _simulated(bp, runs, seed)
        assert chi_square_two_sample(ens.generation_sizes.sum(axis=1), total) > 1e-3
        assert chi_square_two_sample(_spans(ens.generation_sizes, ens.extinct), spans) > 1e-3
        assert chi_square_two_sample(ens.censored.astype(np.int64),
                                     censored.astype(np.int64)) > 1e-3
        if beta == 1.0:
            assert ens.cap_hits.sum() > 0 and ens.censored.any()

    def test_censoring(self):
        # (0.9, 0.1) has mean offspring 9.9: every run passes max_pop, and
        # stops at the first generation that does
        bp = BranchingParams(0.9, 0.1, max_gen=30, max_pop=300)
        ens = simulate_ensemble(bp, 200, 5)
        sizes = ens.generation_sizes
        assert (ens.censored == ~ens.extinct).all()
        assert ens.censored.all()
        spans = _spans(sizes, ens.extinct)
        last = sizes[np.arange(len(sizes)), spans - 1]
        assert (last > bp.max_pop).all()
        assert all((row[:n - 1] <= bp.max_pop).all() and (row[:n] > 0).all()
                   and not row[n:].any() for row, n in zip(sizes, spans))
        # max_gen censors a run still alive at its last generation
        bp = BranchingParams(0.75, 3.0, max_gen=6)
        ens = simulate_ensemble(bp, 500, 6)
        assert ens.generation_sizes.shape[1] == 6
        assert np.array_equal(ens.censored, ens.generation_sizes[:, -1] > 0)

    @pytest.mark.parametrize("n_runs", [0, -3, 2.0, True, (1 << 28) + 1])
    def test_bad_run_count(self, n_runs):
        with pytest.raises(ValueError, match="n_runs"):
            simulate_ensemble(BranchingParams(0.5, 2.0), n_runs, 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.0])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            simulate_ensemble(BranchingParams(0.5, 2.0), 10, seed)

    @pytest.mark.parametrize("caps", [{"max_gen": (1 << 12) + 1}, {"max_pop": (1 << 24) + 1}])
    def test_caps_the_keys_cannot_address(self, caps):
        with pytest.raises(ValueError, match="to key every particle"):
            simulate_ensemble(BranchingParams(0.5, 2.0, **caps), 10, 1)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 2.0, 3.0, 7.0])
    def test_log_mu_is_log_poch(self, beta):
        # the ensemble's log mu_n is the sampler's log_poch(n, beta) bit for
        # bit: the array expression from 32 on, the scalar lgamma below
        n = np.r_[1:5000, 2 ** np.arange(13, 63)].astype(np.int64)
        got = branching._Lockstep(BranchingParams(0.5, beta), 1).log_mu(n)
        big = n >= 32
        assert np.array_equal(got[big], log_poch(n[big].astype(float), beta))
        lp = _log_poch_scalar(beta)
        assert np.array_equal(got[~big], [lp(float(k)) for k in n[~big].tolist()])


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
