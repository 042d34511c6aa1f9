import hashlib
import math

import numpy as np
import pytest

from erwalk import gammaratio, walkers
from erwalk.analysis import chi_square_vs_law
from erwalk.exact import enumerate_law, exact_mean_xi
from erwalk.gammaratio import log_poch, poch_ratio
from erwalk.streams import replicate_stream
from erwalk.walkers import (
    CollapsedState,
    FullState,
    LerwState,
    ModelParams,
    collapsed_step_prob,
    coupled_run,
    geometric_checkpoints,
    run_coupled_ensemble,
    run_ensemble,
    run_walk,
    step_collapsed,
    step_full,
    step_lerw,
)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(0.5, -1.0)

    def test_derived_quantities(self):
        pms = ModelParams(0.5, 1.0)
        assert pms.rate == 1.0
        assert pms.critical_beta == 1.0
        assert pms.is_critical
        assert pms.growth_exponent == 0.0
        assert not ModelParams(0.5, 1.0 + 1e-6).is_critical
        assert ModelParams(0.5, 1.0 + 1e-13).is_critical


class TestStepProbability:
    def test_initial_step_prob_is_p(self):
        # pi_1 = p(beta+1)/mu_2 = p since mu_2 = 1 + beta
        for p, beta in [(0.5, 1.0), (0.2, -0.5), (0.8, 4.0), (0.3, 0.0)]:
            state = CollapsedState.initial(ModelParams(p, beta))
            assert collapsed_step_prob(state, ModelParams(p, beta)) == pytest.approx(
                p, rel=1e-14
            )

    def test_uniform_memory_reduces_to_fraction(self):
        # beta = 0: pi_n = p * xi / n
        pms = ModelParams(0.4, 0.0)
        state = CollapsedState(n=10, xi=3, sigma=3.0, a=2.0, mu_next=1.0)
        assert collapsed_step_prob(state, pms) == pytest.approx(0.4 * 3 / 10)

    def test_all_ones_history_gives_p(self):
        # sigma at its maximum n mu_{n+1}/(beta+1) makes pi_n = p exactly
        pms = ModelParams(0.6, 1.0)
        n = 7
        mu = [poch_ratio(k, 1.0) for k in range(1, n + 2)]
        sigma = sum(mu[:n])
        state = CollapsedState(n=n, xi=n, sigma=sigma, a=1.0, mu_next=mu[n])
        assert collapsed_step_prob(state, pms) == pytest.approx(pms.p, rel=1e-12)

    def test_guard_rejects_impossible_state(self):
        pms = ModelParams(0.5, 1.0)
        state = CollapsedState(n=3, xi=3, sigma=100.0, a=1.0, mu_next=4.0)
        with pytest.raises(RuntimeError):
            collapsed_step_prob(state, pms)

    def test_guard_rejects_nan(self, monkeypatch):
        # u < NaN is False: without the guard a NaN would silently take no step
        pms = ModelParams(0.5, 1.0)
        state = CollapsedState(n=3, xi=3, sigma=math.nan, a=1.0, mu_next=4.0)
        with pytest.raises(RuntimeError):
            collapsed_step_prob(state, pms)

        def mu_with_nan(beta, upto):
            mu = gammaratio.ratio_seq(beta).values(upto).copy()
            mu[5] = math.nan
            return mu

        monkeypatch.setattr(walkers, "_mu_array", mu_with_nan)
        with pytest.raises(RuntimeError, match="n = 5"):
            run_ensemble(pms, 50, 10, seed=1)
        with pytest.raises(RuntimeError, match="n = 5"):
            run_walk(pms, 50, seed=1)


class TestScalarSteps:
    def test_second_step_probability(self, rng):
        # P(X_2 = 1) = p exactly: the memory can only recall time 1
        pms = ModelParams(0.35, 2.0)
        hits = sum(
            step_full(FullState.initial(), pms, rng).xi == 2 for _ in range(20000)
        )
        se = math.sqrt(0.35 * 0.65 / 20000)
        assert hits / 20000 == pytest.approx(0.35, abs=4.5 * se)

    def test_collapsed_step_updates(self):
        pms = ModelParams(0.5, 1.0)

        class FakeRng:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        state = CollapsedState.initial(pms)
        up = step_collapsed(state, pms, FakeRng(0.49))  # u < pi_1 = 0.5: step
        assert (up.n, up.xi) == (2, 2)
        assert up.sigma == pytest.approx(1.0 + 2.0)  # mu_2 = 2 at beta = 1
        assert up.a == pytest.approx(1.5)
        down = step_collapsed(state, pms, FakeRng(0.51))
        assert (down.n, down.xi) == (2, 1)
        assert down.sigma == 1.0

    def test_lerw_rate_domain(self, rng):
        with pytest.raises(ValueError):
            step_lerw(LerwState.initial(), 1.0, rng)
        with pytest.raises(ValueError):
            step_lerw(LerwState.initial(), 0.0, rng)

    def test_lerw_first_step(self, rng):
        hits = sum(
            step_lerw(LerwState.initial(), 0.7, rng).xi == 2 for _ in range(20000)
        )
        se = math.sqrt(0.7 * 0.3 / 20000)
        assert hits / 20000 == pytest.approx(0.7, abs=4.5 * se)

    def test_lerw_mean_matches_ratio_sequence(self):
        # E[Xi'_n] = c_n(rate): degree-1 recursion with uniform weights
        rate, n_steps, reps = 0.8, 200, 20000
        rng = np.random.default_rng(7)
        xi = np.ones(reps)
        for t in range(1, n_steps):
            pi = rate * xi / t
            xi += rng.random(reps) < pi
        want = poch_ratio(n_steps, rate)
        se = xi.std(ddof=1) / math.sqrt(reps)
        assert xi.mean() == pytest.approx(want, abs=4.5 * se)


class TestRunWalk:
    def test_first_checkpoint_record(self):
        traj = run_walk(ModelParams(0.5, 0.5), 50, seed=9, checkpoints=[1, 50])
        assert traj.n[0] == 1
        assert traj.xi[0] == 1
        assert traj.sigma[0] == 1.0
        assert traj.m[0] == 1.0
        assert traj.a[0] == 1.0

    def test_xi_nondecreasing_unit_increments(self):
        pms = ModelParams(0.6, -0.3)
        traj = run_walk(pms, 300, seed=2, checkpoints=np.arange(1, 301))
        d = np.diff(traj.xi)
        assert (d >= 0).all() and (d <= 1).all()
        assert traj.xi[0] == 1

    def test_matches_scalar_stepping(self):
        # the ensemble engine and the public one-step API consume uniforms
        # identically, so replicate 5 must reproduce bit for bit
        pms = ModelParams(0.45, 0.8)
        traj = run_walk(pms, 120, seed=31, checkpoints=np.arange(1, 121),
                        replicate_index=5)
        rng = replicate_stream(31, 5)
        state = CollapsedState.initial(pms)
        xs, sigmas = [state.xi], [state.sigma]
        for _ in range(119):
            state = step_collapsed(state, pms, rng)
            xs.append(state.xi)
            sigmas.append(state.sigma)
        assert np.array_equal(traj.xi, xs)
        assert np.allclose(traj.sigma, sigmas, rtol=0, atol=0)

    def test_full_mode_matches_scalar_stepping(self):
        pms = ModelParams(0.45, 0.8)
        traj = run_walk(pms, 40, seed=13, checkpoints=np.arange(1, 41),
                        mode="full", replicate_index=2)
        rng = replicate_stream(13, 2)
        state = FullState.initial()
        xs = [state.xi]
        for _ in range(39):
            state = step_full(state, pms, rng)
            xs.append(state.xi)
        assert np.array_equal(traj.xi, xs)

    def test_full_state_sigma_consistency(self, rng):
        pms = ModelParams(0.5, 1.5)
        state = FullState.initial()
        for _ in range(60):
            state = step_full(state, pms, rng)
        mu = np.array([poch_ratio(k, 1.5) for k in range(1, state.n + 1)])
        recomputed = float(np.dot(state.history, mu))
        assert state.sigma == pytest.approx(recomputed, abs=1e-9)

    def test_conditional_mean_sum_lower_bound(self):
        # for beta < 0 every trajectory has A_n >= p(beta+1) sum_{k=2..n} P(recall_k = 1)
        pms = ModelParams(0.5, -0.5)
        n_steps = 2000
        ks = np.arange(2, n_steps + 1, dtype=np.float64)
        lg = math.lgamma(pms.beta + 1.0)
        p_hit = np.exp(
            math.log(pms.beta + 1.0) - np.log(ks - 1.0) - (log_poch(ks, pms.beta) - lg)
        )
        bound = pms.rate * np.cumsum(p_hit)
        cps = np.arange(2, n_steps + 1)
        for seed in range(5):
            traj = run_walk(pms, n_steps, seed=seed, checkpoints=cps)
            assert (traj.a >= bound - 1e-9).all()


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestEnsembles:
    def test_deterministic_and_worker_independent(self):
        def run(mode, **kw):
            if mode == "coupled":
                res = run_coupled_ensemble(ModelParams(0.5, -0.5), 50, 300, seed=5,
                                           checkpoints=[1, 7, 50], **kw)
                return (res.xi, res.xi_lerw)
            res = run_ensemble(ModelParams(0.5, 1.0), 50, 300, seed=5,
                               checkpoints=[1, 7, 50], mode=mode,
                               record=("xi", "sigma", "a"), **kw)
            return tuple(res.arrays[k] for k in ("xi", "sigma", "a"))

        for mode in ("collapsed", "full", "coupled"):
            a = run(mode)
            for other in (run(mode), run(mode, workers=2, block_size=64),
                          run(mode, block_size=17)):
                for x, y in zip(a, other):
                    assert np.array_equal(x, y), mode

    # sha256 of the checkpoint arrays, pinned from the engines that built one
    # Generator per replicate; the checkpoints straddle the first segment
    # boundary (2048 uniforms), so the second segment reads at offset 2048.
    # mu_k's last bits depend on how the shared RatioSeq cache was extended
    # before, so each run starts from an empty cache, as a fresh process does.
    @pytest.mark.parametrize("mode,want", [
        ("collapsed", "95512c7c000888d7acf625e2b7ae8d220beac896897690c4982c7dc8eb8c6d6e"),
        ("full", "f5a09b89cf0b51b4e6974870a38198b1d581978e19232d988dcd483bac0a52c3"),
        ("coupled", "9dd6646b17e70f732a42fd5c8c63362083b9720b29fc884daa5a192c1c68de89"),
    ])
    def test_golden_digests(self, mode, want, monkeypatch):
        monkeypatch.setattr(gammaratio, "_seq_cache", {})
        rec = ("xi", "sigma", "a")
        if mode == "collapsed":
            res = run_ensemble(ModelParams(0.45, 0.8), 2100, 40, seed=31,
                               checkpoints=[1, 2, 7, 2048, 2049, 2050, 2100],
                               record=rec, block_size=16)
            got = _digest(*(res.arrays[k] for k in rec))
        elif mode == "full":
            res = run_ensemble(ModelParams(0.5, 1.0), 1100, 30, seed=7,
                               checkpoints=[1, 2, 3, 1024, 1025, 1026, 1100],
                               mode="full", record=rec, block_size=16)
            got = _digest(*(res.arrays[k] for k in rec))
        else:
            res = run_coupled_ensemble(ModelParams(0.5, -0.5), 2100, 40, seed=4,
                                       checkpoints=[1, 2, 2048, 2049, 2050, 2100],
                                       block_size=16)
            got = _digest(res.xi, res.xi_lerw)
        assert got == want

    def test_mean_against_exact(self):
        pms = ModelParams(0.5, 0.0)
        res = run_ensemble(pms, 500, 4000, seed=77, checkpoints=[500])
        xi = res.arrays["xi"][:, -1]
        want = exact_mean_xi(500, pms)
        se = xi.std(ddof=1) / math.sqrt(len(xi))
        assert xi.mean() == pytest.approx(want, abs=4.5 * se)

    def test_martingale_mean_is_one(self):
        pms = ModelParams(0.4, 0.5)
        res = run_ensemble(pms, 400, 4000, seed=3, checkpoints=[400])
        m = res.martingale()[:, -1]
        se = m.std(ddof=1) / math.sqrt(len(m))
        assert m.mean() == pytest.approx(1.0, abs=4.5 * se)

    @pytest.mark.parametrize("mode", ["collapsed", "full"])
    def test_law_matches_enumeration(self, mode):
        pms = ModelParams(0.5, 1.0)
        n = 10
        res = run_ensemble(pms, n, 10**5, seed=101, checkpoints=[n], mode=mode,
                           record=("xi",))
        law, _ = enumerate_law(pms, n)
        p_val = chi_square_vs_law(res.arrays["xi"][:, -1], law)
        assert p_val > 1e-3, f"{mode} law rejected: p = {p_val}"

    def test_pi_stays_below_p(self):
        # engine guard active on every step of every replicate
        for p, beta in [(0.2, -0.5), (0.8, 3.0), (0.5, 0.5)]:
            run_ensemble(ModelParams(p, beta), 300, 200, seed=8, checkpoints=[300])


class TestCoupling:
    def test_negative_beta_dominates(self):
        res = run_coupled_ensemble(ModelParams(0.5, -0.5), 3000, 100, seed=4)
        assert (res.xi >= res.xi_lerw).all()

    def test_positive_beta_dominated(self):
        res = run_coupled_ensemble(ModelParams(0.4, 1.0), 3000, 100, seed=4)
        assert (res.xi <= res.xi_lerw).all()

    def test_zero_beta_identical(self):
        res = run_coupled_ensemble(ModelParams(0.5, 0.0), 1000, 50, seed=12)
        assert np.array_equal(res.xi, res.xi_lerw)

    def test_rate_must_be_probability(self):
        with pytest.raises(ValueError):
            coupled_run(ModelParams(0.5, 1.5), 100, seed=1)  # rate = 1.25

    def test_single_run_interface(self):
        traj = coupled_run(ModelParams(0.5, -0.5), 500, seed=6)
        assert (traj.xi >= traj.xi_lerw).all()
        assert traj.n[-1] == 500


class TestCheckpoints:
    def test_geometric_shape(self):
        cps = geometric_checkpoints(10**4)
        assert cps[0] == 1
        assert cps[-1] == 10**4
        assert (np.diff(cps) > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_checkpoints(0)
        with pytest.raises(ValueError):
            run_walk(ModelParams(0.5, 1.0), 10, seed=1, checkpoints=[0, 5])
        with pytest.raises(ValueError):
            run_walk(ModelParams(0.5, 1.0), 10, seed=1, checkpoints=[5, 11])

    def test_seed_checked_without_draws(self):
        # n_steps = 1 reads no uniform; the key is still checked up front
        pms = ModelParams(0.5, 1.0)
        calls = [
            lambda s: run_walk(pms, 1, seed=s),
            lambda s: run_ensemble(pms, 1, 3, seed=s),
            lambda s: coupled_run(ModelParams(0.5, -0.5), 1, seed=s),
            lambda s: run_coupled_ensemble(ModelParams(0.5, -0.5), 1, 3, seed=s),
        ]
        for call in calls:
            for seed in (-5, 2**64):
                with pytest.raises(ValueError, match="master_seed"):
                    call(seed)
            call(2**64 - 1)
        for index in (-1, 2**64):
            with pytest.raises(ValueError, match="replicate"):
                run_walk(pms, 1, seed=0, replicate_index=index)
