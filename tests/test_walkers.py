import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from erwalk import gammaratio, walkers
from erwalk.analysis import chi_square_vs_law
from erwalk.exact import enumerate_law, exact_mean_xi
from erwalk.gammaratio import log_poch, poch_ratio
from erwalk.streams import replicate_stream, uniforms
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
            mu = gammaratio.RatioSeq(beta).values(upto)
            mu[5] = math.nan
            return mu

        monkeypatch.setattr(walkers, "_mu_array", mu_with_nan)
        for mode in ("collapsed", "events"):
            with pytest.raises(RuntimeError, match="n = 5"):
                run_ensemble(pms, 50, 10, seed=1, mode=mode)
            with pytest.raises(RuntimeError, match="n = 5"):
                run_walk(pms, 50, seed=1, mode=mode)
        coupled = ModelParams(0.5, 0.5)  # the coupling needs p(beta+1) < 1
        with pytest.raises(RuntimeError, match="n = 5"):
            coupled_run(coupled, 50, seed=1)
        with pytest.raises(RuntimeError, match="n = 5"):
            run_coupled_ensemble(coupled, 50, 10, seed=1)


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


def _golden_full_digest():
    rec = ("xi", "sigma", "a")
    res = run_ensemble(ModelParams(0.5, 1.0), 1100, 30, seed=7,
                       checkpoints=[1, 2, 3, 1024, 1025, 1026, 1100],
                       mode="full", record=rec, block_size=16)
    return _digest(*(res.arrays[k] for k in rec))


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
    # Generator per replicate; the checkpoints straddle draw 2048, the
    # segment length when they were pinned.
    @pytest.mark.parametrize("mode,want", [
        ("collapsed", "95512c7c000888d7acf625e2b7ae8d220beac896897690c4982c7dc8eb8c6d6e"),
        ("full", "f5a09b89cf0b51b4e6974870a38198b1d581978e19232d988dcd483bac0a52c3"),
        ("coupled", "9dd6646b17e70f732a42fd5c8c63362083b9720b29fc884daa5a192c1c68de89"),
    ])
    def test_golden_digests(self, mode, want):
        rec = ("xi", "sigma", "a")
        if mode == "collapsed":
            res = run_ensemble(ModelParams(0.45, 0.8), 2100, 40, seed=31,
                               checkpoints=[1, 2, 7, 2048, 2049, 2050, 2100],
                               record=rec, block_size=16)
            got = _digest(*(res.arrays[k] for k in rec))
        elif mode == "full":
            got = _golden_full_digest()
        else:
            res = run_coupled_ensemble(ModelParams(0.5, -0.5), 2100, 40, seed=4,
                                       checkpoints=[1, 2, 2048, 2049, 2050, 2100],
                                       block_size=16)
            got = _digest(res.xi, res.xi_lerw)
        assert got == want

    # the same pins across the segment boundaries of 2000 uniforms (1000
    # steps in full mode), computed with the per-step engines of 2048
    @pytest.mark.parametrize("mode,want", [
        ("collapsed", "81bc7b4b3add17f849f5103f56f64a98643ea627a6174d9d2a2b2d488313c86c"),
        ("full", "fc20f6f2e2f6c420877d080760deef798b316debc8616590d5fc5c9a4ef5703f"),
        ("coupled", "09cfc3caa04fd09db7352472201636668fd5d4d1da69a9a8959bea9845b6ba66"),
    ])
    def test_golden_digests_segment_2000(self, mode, want):
        rec = ("xi", "sigma", "a")
        cps = [1, 1999, 2000, 2001, 2002, 4000, 4001, 4002, 4100]
        if mode == "collapsed":
            res = run_ensemble(ModelParams(0.45, 0.8), 4100, 40, seed=31,
                               checkpoints=cps, record=rec, block_size=16)
            got = _digest(*(res.arrays[k] for k in rec))
        elif mode == "full":
            res = run_ensemble(ModelParams(0.5, 1.0), 2100, 30, seed=7,
                               checkpoints=[1, 999, 1000, 1001, 1002, 2000, 2001, 2002, 2100],
                               mode="full", record=rec, block_size=16)
            got = _digest(*(res.arrays[k] for k in rec))
        else:
            res = run_coupled_ensemble(ModelParams(0.5, -0.5), 4100, 40, seed=4,
                                       checkpoints=cps, block_size=16)
            got = _digest(res.xi, res.xi_lerw)
        assert got == want

    def test_output_independent_of_ratio_seq_history(self, monkeypatch):
        # the shared RatioSeq's last bits depend on the lengths it was grown
        # to; the engines' mu must not, or a fresh process and one that made
        # an unrelated shorter call write different sigma
        monkeypatch.setattr(gammaratio, "_seq_cache", {})
        gammaratio.ratio_seq(1.0).values(51)
        assert _golden_full_digest() == (
            "f5a09b89cf0b51b4e6974870a38198b1d581978e19232d988dcd483bac0a52c3"
        )

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

    @pytest.mark.parametrize("mode", ["collapsed", "full", "events"])
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


def _per_step_collapsed_block(params, n_steps, seed, start, count, checkpoints, record):
    """The collapsed engine as one numpy pass per time step, as it was before
    the tiled search: the reference for `walkers._collapsed_block`."""
    mu = walkers._mu_array(params.beta, n_steps + 1)
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
    guard = params.p + walkers._GUARD_EPS
    t = 1  # current time; transition t -> t+1 consumes draw t-1 of each replicate
    buf = np.empty((count, 2048 + 8), dtype=np.float64)
    while t < n_steps:
        seg = min(2048, n_steps - t)
        uniforms(seed, start, count, t - 1, seg, out=buf)
        for col in range(seg):
            coef = params.rate / (t * mu[t])  # mu[t] = mu_{t+1}
            pi = coef * sigma
            if not pi.max() <= guard:  # a NaN fails too
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


def _compare_with_per_step(params, n_steps, seed, start, count, cps, bad_at=None,
                           bad=math.nan):
    """Run the engine and its reference, with mu_{n+1} = `bad` at n = `bad_at`.

    Returns how often each path ran and whether the guard raised.
    """
    paths = {"dense": 0, "search": 0, "raised": False}
    search, dense = walkers._search_tile, walkers._dense_tile

    def counted_search(*args):
        rounds = search(*args)
        paths["search"] += rounds is not None
        return rounds

    def counted_dense(*args):
        paths["dense"] += 1
        return dense(*args)

    def mu_with_bad(beta, upto):
        mu = gammaratio.RatioSeq(beta).values(upto)
        mu[bad_at] = bad
        return mu

    rec = ("xi", "sigma", "a")
    args = (params, n_steps, seed, start, count, cps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walkers, "_search_tile", counted_search)
        mp.setattr(walkers, "_dense_tile", counted_dense)
        if bad_at is not None:
            mp.setattr(walkers, "_mu_array", mu_with_bad)
        try:
            want = _per_step_collapsed_block(*args, rec)
        except RuntimeError as err:
            with pytest.raises(RuntimeError) as got:
                walkers._collapsed_block(*args, rec)
            assert str(got.value) == str(err)
            paths["raised"] = True
            return paths
        got = walkers._collapsed_block(*args, rec)
        lean = walkers._collapsed_block(*args, ("xi", "sigma"))
    for name in rec:
        assert np.array_equal(got[name], want[name]), name
    for name in lean:
        assert np.array_equal(lean[name], want[name]), name
    return paths


class TestCollapsedKernel:
    """The tiled up-step search against the per-step loop, bit for bit."""

    @given(
        p=st.floats(0.001, 0.99),
        beta=st.floats(-0.99, 5.0),
        n_steps=st.one_of(
            st.sampled_from([2, 3, 64, 65, 1999, 2000, 2001, 2002, 2100, 4001, 4100]),
            st.integers(2, 700),
        ),
        count=st.sampled_from([1, 2, 17, 300]),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
        nan_at=st.one_of(st.none(), st.none(), st.integers(0, 2**20)),
        data=st.data(),
    )
    @example(p=0.5, beta=1.0, n_steps=2100, count=300, seed=3, start=0,
             nan_at=None, data=None).via("critical: per-step loop, then search")
    @example(p=0.003, beta=3.0, n_steps=700, count=17, seed=3, start=0,
             nan_at=400, data=None).via("a NaN in a searched tile")
    def test_matches_per_step_loop(self, p, beta, n_steps, count, seed, start, nan_at,
                                   data):
        if data is None:
            cps = walkers.geometric_checkpoints(n_steps)
        else:
            kind = data.draw(st.sampled_from(["every", "random", "geometric"]))
            if kind == "every":
                cps = np.arange(1, n_steps + 1)
            elif kind == "random":
                drawn = data.draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=12))
                cps = np.unique(drawn)
            else:
                cps = walkers.geometric_checkpoints(n_steps)
        if nan_at is not None:
            nan_at = 1 + nan_at % (n_steps - 1)  # mu[nan_at] = mu_{n+1} at n = nan_at
        _compare_with_per_step(ModelParams(p, beta), n_steps, seed, start, count, cps,
                               nan_at)

    def test_guard_in_searched_tiles(self):
        # p = 0.003: every tile is searched.  A tiny mu_401 makes pi_400 > p
        # for every replicate, so both engines must raise naming n = 400.
        paths = _compare_with_per_step(ModelParams(0.003, 3.0), 700, 3, 0, 17,
                                       walkers.geometric_checkpoints(700), 400, 1e-300)
        assert paths["raised"] and paths["search"] > 0 and paths["dense"] == 1

    def test_infinite_mu_takes_the_per_step_loop(self):
        # at an infinite mu the per-step loop turns every sigma into NaN
        # (0 * inf) and raises one step later; a search would step over it
        with np.errstate(invalid="ignore"):
            paths = _compare_with_per_step(ModelParams(0.003, 3.0), 700, 3, 0, 17,
                                           walkers.geometric_checkpoints(700), 400,
                                           math.inf)
        assert paths["raised"]

    def test_search_declines_when_pi_fails_the_guard(self):
        u = np.full((3, 8), 0.5)
        coef, mu, sigma = np.full(8, 1e-3), np.ones(8), np.ones(3)
        scratch = np.empty(24, dtype=bool)
        # pi_n = 1e-3 above a guard of 1e-4, though no draw is below it
        assert walkers._search_tile(u, coef, mu, sigma, 1e-4, scratch) is None
        u[1, 2] = 0.0  # row 1 steps at column 2
        rounds = walkers._search_tile(u, coef, mu, sigma, 0.5, scratch)
        assert [(list(r), list(c)) for r, c in rounds] == [([1], [2])]
        mu[2] = 1e6  # the step lifts row 1's later pi_n past the guard
        assert walkers._search_tile(u, coef, mu, sigma, 0.5, scratch) is None
        assert (sigma == 1.0).all()

    @pytest.mark.parametrize("p,beta,dense,search", [
        (0.5, -0.5, True, False),  # Xi_n grows like n^0.75: pi_n stays large
        (0.5, 1.0, True, True),  # critical: pi_n falls below the search's bound
        (0.003, 3.0, False, True),  # localized, tiny p: pi_n is small from the start
    ])
    def test_takes_both_paths(self, p, beta, dense, search):
        paths = _compare_with_per_step(ModelParams(p, beta), 3000, 11, 5, 300,
                                       walkers.geometric_checkpoints(3000))
        assert (paths["dense"] > 0, paths["search"] > 0) == (dense, search)


#: one parameter point per regime of report.REGIMES
_REGIME_PARAMS = [
    pytest.param(0.5, -0.5, id="negative_beta"),
    pytest.param(0.5, 0.0, id="zero_beta"),
    pytest.param(0.5, 0.5, id="sub_critical_positive"),
    pytest.param(0.5, 1.0, id="critical"),
    pytest.param(0.5, 2.0, id="localized"),
]


class TestEventsEngine:
    """The thinning engine: exact in law, reproducible bit for bit."""

    @pytest.mark.parametrize("p,beta", _REGIME_PARAMS)
    def test_law_matches_enumeration(self, p, beta):
        pms = ModelParams(p, beta)
        n = 16
        res = run_ensemble(pms, n, 10**5, seed=202, checkpoints=[n], mode="events",
                           record=("xi",))
        law, _ = enumerate_law(pms, n)
        p_val = chi_square_vs_law(res.arrays["xi"][:, -1], law)
        assert p_val > 1e-3, f"law rejected: p = {p_val}"

    @pytest.mark.parametrize("p,beta", _REGIME_PARAMS)
    def test_means_against_exact(self, p, beta):
        # E[A_n] = E[Xi_n]: Xi_n - A_n is a martingale started at 0
        pms = ModelParams(p, beta)
        n = 10**4
        res = run_ensemble(pms, n, 2000, seed=17, checkpoints=[n], mode="events",
                           record=("xi", "a"))
        want = exact_mean_xi(n, pms)
        for name in ("xi", "a"):
            x = res.arrays[name][:, -1]
            se = x.std(ddof=1) / math.sqrt(len(x))
            assert x.mean() == pytest.approx(want, abs=4.5 * se), name

    def test_martingale_mean_is_one(self):
        pms = ModelParams(0.4, 0.5)
        res = run_ensemble(pms, 400, 4000, seed=3, checkpoints=[400], mode="events")
        m = res.martingale()[:, -1]
        se = m.std(ddof=1) / math.sqrt(len(m))
        assert m.mean() == pytest.approx(1.0, abs=4.5 * se)

    def test_block_size_and_workers_independent(self):
        # blocks of 300 and 700 rows fill by the streams' array kernel,
        # blocks of 17 re-key per row; both read the same draws
        rec = ("xi", "sigma", "a")
        cps = [1, 2, 7, 50, 999, 3000]

        def run(**kw):
            res = run_ensemble(ModelParams(0.5, 0.0), 3000, 700, seed=5, checkpoints=cps,
                               mode="events", record=rec, **kw)
            return [res.arrays[k] for k in rec]

        want = run()
        for kw in ({"block_size": 17}, {"block_size": 300, "workers": 2}):
            for x, y in zip(want, run(**kw)):
                assert np.array_equal(x, y), kw
        traj = run_walk(ModelParams(0.5, 0.0), 3000, seed=5, checkpoints=cps,
                        mode="events", replicate_index=411)
        for x, y in zip(want, (traj.xi, traj.sigma, traj.a)):
            assert np.array_equal(x[411], y)

    def test_horizon_prefix(self):
        # a replicate's up-steps before n do not depend on the horizon
        pms = ModelParams(0.5, 1.0)
        cps = walkers.geometric_checkpoints(2000)
        rec = ("xi", "sigma", "a")
        short = run_ensemble(pms, 2000, 500, seed=8, checkpoints=cps, mode="events",
                             record=rec)
        long = run_ensemble(pms, 4000, 500, seed=8, checkpoints=np.append(cps, 4000),
                            mode="events", record=rec)
        for name in ("xi", "sigma"):
            assert np.array_equal(short.arrays[name], long.arrays[name][:, :-1]), name
        # A_n sums coef from the horizon back, so only its last bits move
        assert np.allclose(short.arrays["a"], long.arrays["a"][:, :-1], rtol=1e-12, atol=0)
        assert (long.arrays["xi"][:, -1] > long.arrays["xi"][:, -2]).any()

    def test_horizon_one(self):
        pms = ModelParams(0.5, 1.0)
        res = run_ensemble(pms, 1, 5, seed=1, mode="events", record=("xi", "sigma", "a"))
        assert (res.arrays["xi"] == 1).all()
        assert (res.arrays["sigma"] == 1.0).all() and (res.arrays["a"] == 1.0).all()
        traj = run_walk(pms, 1, seed=1, mode="events")
        for got in (traj.n, traj.xi, traj.sigma, traj.m, traj.a):
            assert got.tolist() == [1]

    def test_horizon_two(self):
        # P(X_2 = 1) = p exactly, and then Sigma_2 = 1 + mu_2 = 2 + beta
        pms = ModelParams(0.35, 2.0)
        reps = 20000
        res = run_ensemble(pms, 2, reps, seed=4, mode="events",
                           record=("xi", "sigma", "a"))
        xi, sigma, a = (res.arrays[k][:, -1] for k in ("xi", "sigma", "a"))
        assert set(xi.tolist()) <= {1, 2}
        assert np.array_equal(sigma, np.where(xi == 2, 4.0, 1.0))
        assert a == pytest.approx(1.35, rel=1e-14)
        se = math.sqrt(0.35 * 0.65 / reps)
        assert (xi == 2).mean() == pytest.approx(0.35, abs=4.5 * se)

    @pytest.mark.parametrize("bad,at", [(1e-300, 400), (math.inf, 400)])
    def test_guard_names_the_failing_step(self, monkeypatch, bad, at):
        # a tiny mu_401 puts pi_400 far above p; an infinite one makes it NaN
        def mu_with_bad(beta, upto):
            mu = gammaratio.RatioSeq(beta).values(upto)
            mu[at] = bad
            return mu

        monkeypatch.setattr(walkers, "_mu_array", mu_with_bad)
        with pytest.raises(RuntimeError, match=f"n = {at}"):
            run_ensemble(ModelParams(0.003, 3.0), 700, 17, seed=3, mode="events")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_ensemble(ModelParams(0.5, 1.0), 10, 3, seed=1, mode="auto")


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
