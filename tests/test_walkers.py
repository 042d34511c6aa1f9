import hashlib
import inspect
import itertools
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import gammaln

from erwalk import cli, walkers
from erwalk.analysis import chi_square_two_sample, chi_square_vs_law
from erwalk.exact import enumerate_law, exact_mean_xi, lower_bound_prob_one
from erwalk.gammaratio import c_values, log_poch, poch_ratio
from erwalk.memory import MemoryLaw
from erwalk.streams import replicate_stream, uniform_rows
from erwalk.walkers import ModelParams, geometric_checkpoints, run_ensemble, run_walk

from conftest import assert_no_child, spy_fan_out, src_env


def _coupled(params, n_steps, n_replicates, seed, **kw):
    """The (walk, uniform-memory walk) xi matrices of a coupled ensemble."""
    res = run_ensemble(params, n_steps, n_replicates, seed, mode="collapsed",
                       record=("xi", "xi_lerw"), **kw)
    return res.arrays["xi"], res.arrays["xi_lerw"]


def _step_draws(seed, n, first, length):
    """Draws first, ..., first + length - 1 of the stream keyed (seed, n): the
    draws of transition n in the per-step engines, read off one Generator."""
    gen = replicate_stream(seed, n)
    gen.bit_generator.advance(first // 4)  # a Philox block is four draws
    return gen.random(first % 4 + length)[first % 4:]


def _scalar_collapsed(params, n_steps, seed, r):
    """Replicate r of the collapsed chain one step and one draw at a time:
    Xi_n and Sigma_n for n = 1, ..., n_steps, the oracle of the collapsed
    engine.  Transition n reads draw r of the stream keyed (seed, n)."""
    xi, sigma, mu_next = 1, 1.0, 1.0 + params.beta  # X_1 = 1, mu_2 = 1 + beta
    xs, sigmas = [xi], [sigma]
    for n in range(1, n_steps):
        pi = params.rate * sigma / (n * mu_next)
        assert pi <= params.p + walkers._GUARD_EPS
        x = 1 if _step_draws(seed, n, r, 1)[0] < pi else 0
        xi += x
        sigma += x * mu_next
        mu_next *= (n + 1 + params.beta) / (n + 1)
        xs.append(xi)
        sigmas.append(sigma)
    return xs, sigmas


def _scalar_full(params, n_steps, seed, r):
    """Replicate r of the walk with its whole history: each step recalls a
    time k by inverting the memory CDF (`MemoryLaw.sample`), then flips the
    retention coin; Xi_n for n = 1, ..., n_steps, the oracle of the full
    engine.  Transition n reads draws 2r and 2r + 1 of the stream (seed, n)."""
    hist = [1]
    for n in range(1, n_steps):
        u, coin = _step_draws(seed, n, 2 * r, 2)
        k = MemoryLaw(params.beta, n).sample(u)
        hist.append(1 if (coin < params.p and hist[k - 1]) else 0)
    return np.cumsum(hist).tolist()


def _run_engine(mode, plan, start, count):
    """Run the engine of `mode` on replicates start, ..., start + count - 1
    of `plan` as `_run` does, into zeroed rows of each recorded field;
    returns those rows."""
    engine, fields = walkers._ENGINES[mode]
    out = {name: np.zeros((count, len(plan.checkpoints)), fields[name])
           for name in plan.record}
    engine(plan, start, count, out)
    return out


def _with_bad_mu(at, bad):
    """A stand-in for `c_values` that sets mu[at] = mu_{at+1} to `bad`."""
    def bad_c_values(xi, n):
        mu = c_values(xi, n)
        mu[at] = bad
        return mu

    return bad_c_values


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(0.5, -1.0)
        for beta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(0.5, beta)

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
        # pi_1 = p(beta+1)/mu_2 = p since mu_2 = 1 + beta, and A_2 = A_1 + pi_1;
        # at these points p(beta+1)/(beta+1) rounds back to p exactly
        for p, beta in [(0.5, 1.0), (0.2, -0.5), (0.8, 4.0), (0.3, 0.0)]:
            pms = ModelParams(p, beta)
            for seed in (0, 1):
                assert run_walk(pms, 2, seed, mode="collapsed").a[-1] == 1 + p
                assert run_walk(pms, 2, seed, mode="full").a[-1] == 1 + p

    def test_uniform_memory_reduces_to_fraction(self):
        # beta = 0: pi_n = p * xi / n, the increment of A_n
        pms = ModelParams(0.4, 0.0)
        n = np.arange(1, 301)
        traj = run_walk(pms, 300, seed=3, checkpoints=n, mode="collapsed")
        assert np.diff(traj.a) == pytest.approx(0.4 * traj.xi[:-1] / n[:-1], rel=1e-14)

    def test_all_ones_history_gives_p(self):
        # sigma at its maximum n mu_{n+1}/(beta+1) makes pi_n = p exactly
        pms = ModelParams(0.6, 1.0)
        n = 7
        mu = c_values(1.0, n + 1)
        sigma = sum(mu[:n])
        assert pms.rate * sigma / (n * mu[n]) == pytest.approx(pms.p, rel=1e-12)

    def test_guard_rejects_impossible_state(self, monkeypatch):
        # a tiny mu_6 puts pi_5 far above p, in every engine
        monkeypatch.setattr(walkers, "c_values", _with_bad_mu(5, 1e-300))
        _assert_guard_fails_at_5()

    def test_guard_rejects_nan(self, monkeypatch):
        # u < NaN is False: without the guard a NaN would silently take no step
        monkeypatch.setattr(walkers, "c_values", _with_bad_mu(5, math.nan))
        _assert_guard_fails_at_5()


def _assert_guard_fails_at_5():
    # with checkpoints [1, 2] the failing step comes after the last one: the
    # engines still run to the horizon
    pms = ModelParams(0.5, 1.0)
    coupled = ModelParams(0.5, 0.5)  # the coupling needs p(beta+1) < 1
    for cps in (None, [1, 2]):
        for mode in ("collapsed", "events"):
            with pytest.raises(RuntimeError, match="n = 5"):
                run_ensemble(pms, 50, 10, seed=1, checkpoints=cps, mode=mode)
            with pytest.raises(RuntimeError, match="n = 5"):
                run_walk(pms, 50, seed=1, checkpoints=cps, mode=mode)
        for reps in (1, 10):
            with pytest.raises(RuntimeError, match="n = 5"):
                _coupled(coupled, 50, reps, seed=1, checkpoints=cps)


class TestScalarSteps:
    """Single transitions, read off one-replicate runs to n = 2."""

    def test_second_step_probability(self):
        # P(X_2 = 1) = p exactly: the memory can only recall time 1
        pms = ModelParams(0.35, 2.0)
        res = run_ensemble(pms, 2, 20000, seed=6, mode="full", record=("xi",))
        hits = (res.arrays["xi"][:, -1] == 2).sum()
        se = math.sqrt(0.35 * 0.65 / 20000)
        assert hits / 20000 == pytest.approx(0.35, abs=4.5 * se)

    def test_collapsed_step_updates(self):
        # replicate r's draw of transition 1 against pi_1 = 0.5 decides its step
        pms = ModelParams(0.5, 1.0)
        u = _step_draws(3, 1, 0, 40)
        up, down = int(np.flatnonzero(u < 0.5)[0]), int(np.flatnonzero(u >= 0.5)[0])
        traj = run_walk(pms, 2, seed=3, replicate_index=up, mode="collapsed")
        assert (traj.n[-1], traj.xi[-1]) == (2, 2)
        assert traj.sigma[-1] == 1.0 + 2.0  # mu_2 = 2 at beta = 1
        assert traj.a[-1] == 1.5
        traj = run_walk(pms, 2, seed=3, replicate_index=down, mode="collapsed")
        assert (traj.n[-1], traj.xi[-1]) == (2, 1)
        assert traj.sigma[-1] == 1.0 and traj.a[-1] == 1.5

    def test_lerw_rate_domain(self):
        # the comparison walk steps with probability rate * xi / n
        for beta in (1.0, 1.5):  # rate = 1, 1.25
            for reps in (1, 3):
                with pytest.raises(ValueError, match="coupling"):
                    _coupled(ModelParams(0.5, beta), 10, reps, seed=1)

    def test_lerw_first_step(self):
        # the comparison walk's first step has probability rate = 0.7
        _, xi_lerw = _coupled(ModelParams(0.35, 1.0), 2, 20000, seed=2)
        hits = (xi_lerw[:, -1] == 2).sum()
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
        traj = run_walk(ModelParams(0.5, 0.5), 50, seed=9, checkpoints=[1, 50],
                        mode="collapsed")
        assert traj.n[0] == 1
        assert traj.xi[0] == 1
        assert traj.sigma[0] == 1.0
        assert traj.m[0] == 1.0
        assert traj.a[0] == 1.0

    def test_xi_nondecreasing_unit_increments(self):
        pms = ModelParams(0.6, -0.3)
        traj = run_walk(pms, 300, seed=2, checkpoints=np.arange(1, 301), mode="collapsed")
        d = np.diff(traj.xi)
        assert (d >= 0).all() and (d <= 1).all()
        assert traj.xi[0] == 1

    def test_matches_scalar_stepping(self):
        # the engine and a scalar loop over the same streams consume uniforms
        # identically, so replicate 5 must reproduce bit for bit
        pms = ModelParams(0.45, 0.8)
        traj = run_walk(pms, 120, seed=31, checkpoints=np.arange(1, 121),
                        replicate_index=5, mode="collapsed")
        xs, sigmas = _scalar_collapsed(pms, 120, 31, 5)
        assert np.array_equal(traj.xi, xs)
        assert np.array_equal(traj.sigma, sigmas)

    def test_full_mode_matches_scalar_stepping(self):
        pms = ModelParams(0.45, 0.8)
        traj = run_walk(pms, 40, seed=13, checkpoints=np.arange(1, 41),
                        mode="full", replicate_index=2)
        assert np.array_equal(traj.xi, _scalar_full(pms, 40, 13, 2))

    def test_full_state_sigma_consistency(self):
        # Sigma_n = sum of mu_k over the up-steps k <= n
        pms = ModelParams(0.5, 1.5)
        traj = run_walk(pms, 60, seed=4, checkpoints=np.arange(1, 61), mode="full")
        steps = np.concatenate([[1], np.diff(traj.xi)])
        mu = c_values(1.5, 60)
        assert traj.sigma == pytest.approx(np.cumsum(steps * mu), abs=1e-9)
        assert 1 < traj.xi[-1] < 60

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
            traj = run_walk(pms, n_steps, seed=seed, checkpoints=cps, mode="collapsed")
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
                       mode="full", record=rec)
    return _digest(*(res.arrays[k] for k in rec))


class TestEnsembles:
    def test_deterministic_and_worker_independent(self, monkeypatch):
        def run(mode, block_size=walkers._BLOCK_SIZE, **kw):
            monkeypatch.setattr(walkers, "_BLOCK_SIZE", block_size)
            if mode == "coupled":
                return _coupled(ModelParams(0.5, -0.5), 50, 300, seed=5,
                                checkpoints=[1, 7, 50], **kw)
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

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_bad_worker_counts_rejected_before_any_work(self, monkeypatch, workers):
        def no_work(*args, **kw):
            raise AssertionError("work started")

        monkeypatch.setattr(os, "fork", no_work)
        monkeypatch.setattr(walkers, "c_values", no_work)
        for mode in ("collapsed", "events"):
            with pytest.raises(ValueError, match="workers must be an integer >= 1"):
                run_ensemble(ModelParams(0.5, 1.0), 50, 5000, seed=3, mode=mode,
                             workers=workers)

    @pytest.mark.parametrize("run, name, value", [
        (run_ensemble, "n_steps", 10.5), (run_ensemble, "n_steps", True),
        (run_ensemble, "n_steps", np.float64(50)), (run_ensemble, "n_replicates", 2.5),
        (run_ensemble, "n_replicates", True), (run_ensemble, "seed", 1.5),
        (run_ensemble, "seed", True), (run_walk, "n_steps", 10.5), (run_walk, "seed", 1.7),
        (run_walk, "replicate_index", 1.0), (run_walk, "replicate_index", False),
    ])
    def test_non_integer_counts_rejected_before_any_work(self, monkeypatch, run, name, value):
        # an integral float or a bool is refused too, and the error names it
        def no_work(*args, **kw):
            raise AssertionError("work started")

        monkeypatch.setattr(walkers, "c_values", no_work)
        kw = {"n_steps": 50, "seed": 1, name: value}
        if run is run_ensemble:
            kw.setdefault("n_replicates", 30)
        message = f"^{'master_seed' if name == 'seed' else name} must be an integer"
        for mode in ("collapsed", "events"):
            with pytest.raises(ValueError, match=message):
                run(ModelParams(0.5, 1.0), mode=mode, **kw)

    def test_numpy_integer_counts_accepted(self):
        pms, top = ModelParams(0.5, 1.0), 2**64 - 1
        want = run_ensemble(pms, 50, 30, seed=top, mode="collapsed")
        got = run_ensemble(pms, np.int64(50), np.int32(30), seed=np.uint64(top),
                           mode="collapsed", workers=np.int64(1))
        for name in ("xi", "sigma"):
            assert np.array_equal(got.arrays[name], want.arrays[name])
        traj = run_walk(pms, np.int64(50), seed=np.uint64(top), replicate_index=np.int64(7),
                        mode="collapsed")
        assert np.array_equal(traj.xi, want.arrays["xi"][7])

    def test_full_horizon_capped_before_any_work(self, monkeypatch):
        def no_work(*args, **kw):
            raise AssertionError("work started")

        monkeypatch.setattr(walkers, "c_values", no_work)
        pms, cap = ModelParams(0.5, 1.0), walkers._FULL_MODE_MAX_STEPS
        calls = [
            lambda n: run_walk(pms, n, seed=1, checkpoints=[1], mode="full"),
            lambda n: run_ensemble(pms, n, 5, seed=3, checkpoints=[1], mode="full"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"capped at {cap} steps"):
                call(cap + 1)
            with pytest.raises(AssertionError, match="work started"):
                call(cap)

    @pytest.mark.parametrize("mode, n, blocks", [
        ("collapsed", 50, [(0, 64), (64, 64), (128, 64), (192, 64), (256, 44)]),
        ("full", 50, [(0, 64), (64, 64), (128, 64), (192, 64), (256, 44)]),
        ("events", 3000, [(0, 150), (150, 150)]),
    ])
    def test_pool_gets_one_task_per_block(self, monkeypatch, mode, n, blocks):
        # with workers > 1 each block is one task (engine, (plan, start,
        # count, rows)) of walkers._fan_out, all sharing the call's plan;
        # the arrays are those of workers = 1, which starts no pool
        handed = spy_fan_out(monkeypatch)
        monkeypatch.setattr(walkers, "_BLOCK_SIZE", 64)
        rec = ("xi", "sigma", "a")

        def run(workers):
            res = run_ensemble(ModelParams(0.5, 1.0), n, 300, seed=5, checkpoints=[1, 7, n],
                               mode=mode, record=rec, workers=workers)
            return [res.arrays[k] for k in rec]

        want = run(1)
        assert handed == []
        got = run(2)
        [(workers, tasks)] = handed
        engine = walkers._ENGINES[mode][0]
        assert workers == 2
        assert [(fn, args[1:3]) for fn, args in tasks] == [(engine, b) for b in blocks]
        assert len({id(args[0]) for _, args in tasks}) == 1
        for x, y in zip(want, got):
            assert np.array_equal(x, y)

    def test_no_fork_starts_no_pool(self, monkeypatch):
        # where os.fork does not exist, workers > 1 runs the blocks in this
        # process
        pms, rec = ModelParams(0.5, 1.0), ("xi", "sigma", "a")

        def run(mode, workers):
            res = run_ensemble(pms, 200, 5000, seed=5, mode=mode, record=rec,
                               workers=workers)
            return [res.arrays[k] for k in rec]

        want = {mode: run(mode, 1) for mode in ("collapsed", "events")}
        monkeypatch.delattr(os, "fork")
        for mode, arrays in want.items():
            for x, y in zip(arrays, run(mode, 2)):
                assert np.array_equal(x, y), mode

    @pytest.mark.parametrize("beta", [-0.5, 0.8, 1.0, 3.0])
    def test_full_engine_cdf_rows(self, beta):
        # the full engine's memory CDF at history length t, g[:t] / g[t - 1],
        # against the closed form of MemoryLaw.cdf
        n = 4000
        plan = walkers._plan(ModelParams(0.5, beta), n, 1, np.array([n]), ("xi",))
        g = walkers._recall_weights(plan.mu, n)
        for t in np.unique(np.r_[1:40, geometric_checkpoints(n - 1, 1.05)]).tolist():
            want = MemoryLaw(beta, t).cdf(np.arange(1, t + 1))
            np.testing.assert_allclose(g[:t] / g[t - 1], want, rtol=2e-13, atol=0)

    def test_full_and_collapsed_agree_at_a_huge_beta(self):
        # at beta = 1e20 the direct Gamma path has no digits left; the full
        # engine inverts the CDF on the run's own mu, so it keeps the law;
        # each engine has its own seed, so the two samples are independent
        pms, n, reps = ModelParams(0.5, 1e20), 16, 4000
        xi = [run_ensemble(pms, n, reps, seed=seed, checkpoints=[n], mode=mode,
                           record=("xi",)).arrays["xi"][:, -1]
              for mode, seed in (("full", 1), ("collapsed", 2))]
        assert chi_square_two_sample(*xi) > 1e-3
        assert abs(xi[0].mean() - xi[1].mean()) < 0.1

    # sha256 of the checkpoint arrays, re-pinned when the per-step engines'
    # draws moved to one stream per time step, once the law and blocking
    # tests of TestStepMajorStreams passed; the checkpoints straddle step
    # 2048, the segment length of the first pins.
    @pytest.mark.parametrize("mode,want", [
        ("collapsed", "8f820cbd8fb0e1e1ded9e0c91f58536d765499d636c605a3c488a73b50dc5565"),
        ("full", "222937794ca26a242a8ab6363c245b48e1946bf3eec4f304bfeac02e1508b97f"),
        ("coupled", "5edec42328d739773236f366642d40a7311f3078245672199dc84a18496edf6c"),
    ])
    def test_golden_digests(self, monkeypatch, mode, want):
        monkeypatch.setattr(walkers, "_BLOCK_SIZE", 16)
        rec = ("xi", "sigma", "a")
        if mode == "collapsed":
            res = run_ensemble(ModelParams(0.45, 0.8), 2100, 40, seed=31,
                               checkpoints=[1, 2, 7, 2048, 2049, 2050, 2100],
                               record=rec, mode="collapsed")
            got = _digest(*(res.arrays[k] for k in rec))
        elif mode == "full":
            got = _golden_full_digest()
        else:
            got = _digest(*_coupled(ModelParams(0.5, -0.5), 2100, 40, seed=4,
                                    checkpoints=[1, 2, 2048, 2049, 2050, 2100]))
        assert got == want

    # the same pins at checkpoints around steps 2000 and 4000 (1000 and 2000
    # in full mode), the segment ends of the layout they were first pinned on
    @pytest.mark.parametrize("mode,want", [
        ("collapsed", "05f8ac3593515d239c9ed2c6f4973914aa6e6a537935f62309a761b734f774ba"),
        ("full", "ffcdac048620b4bfbefa1810648e8415ae9fdbd33a07634f16090f2943d98a7b"),
        ("coupled", "acfbb19cc3d757d47ad9a94ddd2920fd74cecc42483e6e64d6ef306d5cf77369"),
    ])
    def test_golden_digests_segment_2000(self, monkeypatch, mode, want):
        monkeypatch.setattr(walkers, "_BLOCK_SIZE", 16)
        rec = ("xi", "sigma", "a")
        cps = [1, 1999, 2000, 2001, 2002, 4000, 4001, 4002, 4100]
        if mode == "collapsed":
            res = run_ensemble(ModelParams(0.45, 0.8), 4100, 40, seed=31,
                               checkpoints=cps, record=rec, mode="collapsed")
            got = _digest(*(res.arrays[k] for k in rec))
        elif mode == "full":
            res = run_ensemble(ModelParams(0.5, 1.0), 2100, 30, seed=7,
                               checkpoints=[1, 999, 1000, 1001, 1002, 2000, 2001, 2002, 2100],
                               mode="full", record=rec)
            got = _digest(*(res.arrays[k] for k in rec))
        else:
            got = _digest(*_coupled(ModelParams(0.5, -0.5), 4100, 40, seed=4,
                                    checkpoints=cps))
        assert got == want

    def test_mean_against_exact(self):
        pms = ModelParams(0.5, 0.0)
        res = run_ensemble(pms, 500, 4000, seed=77, checkpoints=[500], mode="collapsed")
        xi = res.arrays["xi"][:, -1]
        want = exact_mean_xi(500, pms)
        se = xi.std(ddof=1) / math.sqrt(len(xi))
        assert xi.mean() == pytest.approx(want, abs=4.5 * se)

    def test_martingale_mean_is_one(self):
        pms = ModelParams(0.4, 0.5)
        res = run_ensemble(pms, 400, 4000, seed=3, checkpoints=[400], mode="collapsed")
        m = (res.arrays["sigma"] * walkers._martingale_factor(res.checkpoints, pms.rate))[:, -1]
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
            run_ensemble(ModelParams(p, beta), 300, 200, seed=8, checkpoints=[300],
                         mode="collapsed")


def _per_step_collapsed_block(plan, start, count):
    """The collapsed engine as one numpy pass per time step, with each step's
    draws read off its own Generator (seed, n) and no driver: the reference
    for `walkers._collapsed_block`.  It reads the plan's inputs and mu, and
    forms coef and the guard bound itself."""
    params, mu, n_steps, seed = plan.params, plan.mu, plan.n_steps, plan.seed
    cps, record = plan.checkpoints, plan.record
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
    guard = params.p + walkers._GUARD_EPS
    for t in range(1, n_steps):  # transition t -> t+1 reads draw r of stream (seed, t)
        coef = params.rate / (t * mu[t])  # mu[t] = mu_{t+1}
        pi = coef * sigma
        if not pi.max() <= guard:  # a NaN fails too
            raise RuntimeError(
                f"internal consistency violated: pi_n > p at n = {t}"
            )
        x = _step_draws(seed, t, start, count) < pi
        xi += x
        sigma += x * mu[t]
        a += pi
        snapshot(t + 1)
    return out


def _compare_with_per_step(params, n_steps, seed, start, count, cps, bad_at=None,
                           bad=math.nan):
    """Run the engine and its reference, with mu_{n+1} = `bad` at n = `bad_at`,
    on the plans that `_run` builds for these arguments.

    Returns whether the guard raised (in both, with the same message).
    """
    with pytest.MonkeyPatch.context() as mp:
        if bad_at is not None:
            mp.setattr(walkers, "c_values", _with_bad_mu(bad_at, bad))
        plan, lean_plan = [
            walkers._plan(params, n_steps, seed, cps, rec)
            for rec in (("xi", "sigma", "a"), ("xi", "sigma"))
        ]
    try:
        want = _per_step_collapsed_block(plan, start, count)
    except RuntimeError as err:
        with pytest.raises(RuntimeError) as got:
            _run_engine("collapsed", plan, start, count)
        assert str(got.value) == str(err)
        return True
    got = _run_engine("collapsed", plan, start, count)
    lean = _run_engine("collapsed", lean_plan, start, count)
    for name in plan.record:
        assert np.array_equal(got[name], want[name]), name
    for name in lean_plan.record:
        assert np.array_equal(lean[name], want[name]), name
    return False


class TestFanOut:
    """`walkers._fan_out` over forked workers: results in task order, and no
    worker left behind on any way out."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a fan-out that hangs fails its test rather than stall the suite
        def expire(signum, frame):
            raise TimeoutError("the fan-out hung")

        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 30)
        yield
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)

    def test_many_tiny_tasks_in_task_order(self):
        # 20000 tasks of 8-byte indices, more than a pipe buffer holds, fed
        # over two workers in reverse; the tasks themselves need not pickle
        n = 20_000
        got = list(walkers._fan_out([(lambda i: -i, (i,)) for i in range(n)], 2,
                                    order=range(n - 1, -1, -1)))
        assert got == [-i for i in range(n)]
        assert_no_child()

    def test_idle_workers_take_tasks_in_order(self):
        # the first two tasks in `order` start at once, the others only as a
        # worker comes free
        def task():
            start = time.monotonic()
            time.sleep(0.1)
            return os.getpid(), start

        got = list(walkers._fan_out([(task, ())] * 4, 2, order=[3, 2, 1, 0]))
        assert len({pid for pid, _ in got}) == 2
        starts = [start for _, start in got]
        assert max(starts[2:]) < min(starts[:2]), starts
        assert_no_child()

    def test_pipes_past_fd_setsize(self):
        # with 1024 files open the workers' pipes get descriptors that
        # select.select refuses
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
            pytest.skip("the soft limit on open files is below 1100")
        held = []
        try:
            while not held or held[-1] < 1024:
                held.append(os.dup(0))
            assert list(walkers._fan_out([(abs, (-i,)) for i in range(4)], 2)) == [0, 1, 2, 3]
        finally:
            for fd in held:
                os.close(fd)
        assert_no_child()

    def test_raising_task_reraises_its_error(self):
        # the first failure in task order, while a busy worker is killed
        with pytest.raises(ValueError) as here:
            int("x")
        tasks = [(int, ("7",)), (int, ("x",)), (time.sleep, (60,)), (int, ("y",))]
        with pytest.raises(ValueError) as there:
            list(walkers._fan_out(tasks, 2))
        assert there.type is here.type
        assert str(there.value) == str(here.value)
        assert_no_child()

    def test_worker_that_ends_raises(self):
        tasks = [(int, ()), (os._exit, (3,)), (int, ())]
        with pytest.raises(RuntimeError, match="ended running task 1, exit status 3$"):
            list(walkers._fan_out(tasks, 2))
        assert_no_child()

    def test_unpicklable_result_raises(self):
        with pytest.raises(TypeError, match="cannot pickle"):
            list(walkers._fan_out([(int, ()), (threading.Lock, ())], 2))
        assert_no_child()

    def test_interrupt_kills_the_workers(self):
        # a KeyboardInterrupt while this process waits on busy workers
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        old = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(KeyboardInterrupt):
                list(walkers._fan_out([(time.sleep, (60,))] * 3, 2))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        assert time.monotonic() - start < 30
        assert_no_child()

    def test_closing_early_kills_the_workers(self):
        parts = walkers._fan_out([(int, ()), (time.sleep, (60,))], 2)
        assert next(parts) == 0
        parts.close()
        assert_no_child()

    def test_more_workers_than_cores_write_every_row(self, monkeypatch):
        # 63 blocks over two workers more than this process may run on, each
        # writing its rows of the one shared result: a lost or misplaced
        # write leaves zeros or another block's rows
        monkeypatch.setattr(walkers, "_BLOCK_SIZE", 16)
        pms, rec = ModelParams(0.5, 1.0), ("xi", "sigma", "a")
        want = run_ensemble(pms, 200, 1000, seed=9, mode="collapsed", record=rec)
        got = run_ensemble(pms, 200, 1000, seed=9, mode="collapsed", record=rec,
                           workers=len(os.sched_getaffinity(0)) + 2)
        for name in rec:
            assert np.array_equal(got.arrays[name], want.arrays[name]), name
        assert_no_child()

    def test_blocks_are_placed_as_they_arrive(self):
        # at workers = 2 the workers write their blocks into the result in
        # place, so this process holds no more next to it than in process
        pms, n, reps = ModelParams(0.5, 1.0), 300, 10 * walkers._BLOCK_SIZE
        run_ensemble(pms, n, 10, seed=3, mode="collapsed")
        over = {}
        for workers in (1, 2):
            tracemalloc.start()
            try:
                res = run_ensemble(pms, n, reps, seed=3, mode="collapsed", workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out = sum(x.nbytes for x in res.arrays.values())
            over[workers] = peak - out
        assert over[2] <= over[1] + 2 * out / 10, over


class TestCollapsedKernel:
    """The collapsed engine under `_drive` against the reference loop, bit for bit."""

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
             nan_at=None, data=None).via("critical, across tile ends")
    @example(p=0.003, beta=3.0, n_steps=700, count=17, seed=3, start=0,
             nan_at=400, data=None).via("a NaN mu where pi_n is tiny")
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

    def test_guard_at_a_tiny_mu(self):
        # p = 0.003: no replicate is near the guard until a tiny mu_401 makes
        # pi_400 > p for every replicate, so both must raise naming n = 400
        assert _compare_with_per_step(ModelParams(0.003, 3.0), 700, 3, 0, 17,
                                      walkers.geometric_checkpoints(700), 400, 1e-300)

    def test_infinite_mu_takes_the_per_step_loop(self):
        # at an infinite mu the per-step loop turns every sigma into NaN
        # (0 * inf) and raises one step later, in the engine as in the reference
        with np.errstate(invalid="ignore"):
            assert _compare_with_per_step(ModelParams(0.003, 3.0), 700, 3, 0, 17,
                                          walkers.geometric_checkpoints(700), 400,
                                          math.inf)


#: one parameter point per regime of report.REGIMES
_REGIME_PARAMS = [
    pytest.param(0.5, -0.5, id="negative_beta"),
    pytest.param(0.5, 0.0, id="zero_beta"),
    pytest.param(0.5, 0.5, id="sub_critical_positive"),
    pytest.param(0.5, 1.0, id="critical"),
    pytest.param(0.5, 2.0, id="localized"),
]


#: (p, beta) points of the per-step engines' law tests: negative, subcritical
#: positive, critical and localized
_LAW_POINTS = [(0.5, -0.5), (0.3, 0.4), (0.5, 1.0), (0.6, 2.5)]


class TestStepMajorStreams:
    """The per-step engines read transition n's draws from the stream keyed
    (seed, n): the law they sample, and the bits of a replicate under any
    blocking.  The seeds were fixed before any of these runs."""

    @pytest.mark.parametrize("mode", ["collapsed", "full"])
    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("p,beta", _LAW_POINTS)
    def test_law_matches_enumeration(self, mode, n, p, beta):
        pms = ModelParams(p, beta)
        res = run_ensemble(pms, n, 10**5, seed=2801, checkpoints=[n], mode=mode,
                           record=("xi",))
        law, _ = enumerate_law(pms, n)
        p_val = chi_square_vs_law(res.arrays["xi"][:, -1], law)
        assert p_val > 1e-3, f"{mode} law rejected: p = {p_val}"

    @pytest.mark.parametrize("mode", ["collapsed", "full"])
    @pytest.mark.parametrize("p,beta", _REGIME_PARAMS)
    def test_means_against_exact(self, mode, p, beta):
        # E[A_n] = E[Xi_n]: Xi_n - A_n is a martingale started at 0
        pms, n = ModelParams(p, beta), 2000
        res = run_ensemble(pms, n, 2000, seed=2802, checkpoints=[n], mode=mode,
                           record=("xi", "a"))
        want = exact_mean_xi(n, pms)
        for name in ("xi", "a"):
            x = res.arrays[name][:, -1]
            se = x.std(ddof=1) / math.sqrt(len(x))
            assert x.mean() == pytest.approx(want, abs=4.5 * se), name

    @pytest.mark.parametrize("mode", ["collapsed", "full"])
    def test_replicate_bits_under_any_blocking(self, monkeypatch, mode):
        # one block of 300 (tiles of 436 collapsed or 218 full steps), blocks
        # of 16 (one tile), two workers, and single walks at indices whose
        # first draw sits at every lane of a Philox block (the offset % 4 skip)
        pms, n, reps = ModelParams(0.45, 0.8), 2100, 300
        rec, cps = ("xi", "sigma", "a"), [1, 2, 7, 436, 437, 1000, 2000, 2001, n]

        def run(block_size=walkers._BLOCK_SIZE, workers=1):
            monkeypatch.setattr(walkers, "_BLOCK_SIZE", block_size)
            res = run_ensemble(pms, n, reps, seed=2803, checkpoints=cps, mode=mode,
                               record=rec, workers=workers)
            return [res.arrays[k] for k in rec]

        want = run()
        for kw in ({"block_size": 16}, {"block_size": 64, "workers": 2}):
            for x, y in zip(want, run(**kw)):
                assert np.array_equal(x, y), kw
        for j in (1, 2, 3, 37, reps - 1):
            traj = run_walk(pms, n, seed=2803, checkpoints=cps, mode=mode,
                            replicate_index=j)
            for x, y in zip(want, (traj.xi, traj.sigma, traj.a)):
                assert np.array_equal(x[j], y), j


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
        m = (res.arrays["sigma"] * walkers._martingale_factor(res.checkpoints, pms.rate))[:, -1]
        se = m.std(ddof=1) / math.sqrt(len(m))
        assert m.mean() == pytest.approx(1.0, abs=4.5 * se)

    def test_block_size_and_workers_independent(self, monkeypatch):
        # blocks of 300 and 700 rows fill by the streams' array kernel,
        # blocks of 17 re-key per row; both read the same draws.  A block
        # holds as many rows as the scratch budget has room for
        rec = ("xi", "sigma", "a")
        cps = [1, 2, 7, 50, 999, 3000]
        row_bytes = walkers._events_row_bytes(len(cps), rec)

        def run(block_rows=None, workers=1):
            if block_rows is not None:
                monkeypatch.setattr(walkers, "_EVENTS_SCRATCH", block_rows * row_bytes)
            res = run_ensemble(ModelParams(0.5, 0.0), 3000, 700, seed=5, checkpoints=cps,
                               mode="events", record=rec, workers=workers)
            return [res.arrays[k] for k in rec]

        want = run()
        for kw in ({"block_rows": 17}, {"block_rows": 300, "workers": 2}):
            for x, y in zip(want, run(**kw)):
                assert np.array_equal(x, y), kw
                assert y.flags.c_contiguous, kw
        traj = run_walk(ModelParams(0.5, 0.0), 3000, seed=5, checkpoints=cps,
                        mode="events", replicate_index=411)
        for x, y in zip(want, (traj.xi, traj.sigma, traj.a)):
            assert np.array_equal(x[411], y)

    def test_block_plan(self, monkeypatch):
        # one events block per worker when the scratch budget has room for
        # the ensemble; the per-step engines keep blocks of _BLOCK_SIZE
        calls = []

        def spy_on(mode):
            engine, fields = walkers._ENGINES[mode]

            def spy(plan, start, count, out):
                assert isinstance(plan, walkers._Plan)
                calls.append((start, count))
                engine(plan, start, count, out)

            monkeypatch.setitem(walkers._ENGINES, mode, (spy, fields))

        spy_on("events")
        spy_on("collapsed")
        # the spies record in this process only, so the fan-out runs the
        # same tasks here, and records the worker count it was handed
        handed = spy_fan_out(monkeypatch, lambda workers, tasks: workers, run_on=1)
        pms = ModelParams(0.5, 1.0)
        runs = []
        for workers, want in ((1, [(0, 10**4)]), (2, [(0, 5000), (5000, 5000)])):
            calls.clear()
            runs.append(run_ensemble(pms, 2000, 10**4, seed=3, mode="events",
                                     workers=workers))
            assert calls == want
        assert handed == [2]
        for name in ("xi", "sigma"):
            assert np.array_equal(runs[0].arrays[name], runs[1].arrays[name])
        calls.clear()
        # three workers would get 1667 rows each; two blocks keep _BLOCK_SIZE
        run_ensemble(pms, 2000, 5000, seed=3, mode="events", workers=3)
        assert calls == [(0, 2500), (2500, 2500)]
        calls.clear()
        run_ensemble(pms, 50, 5000, seed=3, mode="collapsed", workers=2)
        assert calls == [(0, 2048), (2048, 2048), (4096, 904)]

    def test_small_ensembles_start_no_pool(self, monkeypatch):
        # 700 replicates over 2 workers would be blocks of 350 rows; an
        # events ensemble is not split under _BLOCK_SIZE rows a worker, so
        # it runs as one block in this process, with the same bits
        def no_pool(*args, **kw):
            raise AssertionError("a process pool was started")

        rec, cps = ("xi", "sigma", "a"), [1, 2, 7, 50, 999, 3000]

        def run(workers):
            res = run_ensemble(ModelParams(0.5, 0.0), 3000, 700, seed=5, checkpoints=cps,
                               mode="events", record=rec, workers=workers)
            return [res.arrays[k] for k in rec]

        want = run(1)
        monkeypatch.setattr(os, "fork", no_pool)
        for x, y in zip(want, run(2)):
            assert np.array_equal(x, y)

    def test_one_block_memory(self):
        # the engine sums its deltas in place in its rows of the result: the
        # peak is the result, the fill buffer, a few doubles a row, and 3 MiB
        # for the streams' kernel pass (2 MiB) and the tables of n.  A copy
        # of the result or of one field adds 3.7 MiB
        pms, n, reps = ModelParams(0.5, 1.0), 10**4, 10**4
        run_ensemble(pms, n, 10, seed=3, mode="events")
        tracemalloc.start()
        try:
            res = run_ensemble(pms, n, reps, seed=3, mode="events")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(x.nbytes for x in res.arrays.values())
        assert peak <= out + reps * 8 * (walkers._EVENT_FILL + 8) + (3 << 20)
        for x in res.arrays.values():
            assert x.flags.c_contiguous and x.shape == (reps, len(res.checkpoints))

    def test_dense_block_memory(self):
        # (0.5, 0) makes about 450k up-steps: the engine adds each round's
        # up-steps to its delta arrays, so the peak keeps the bound of
        # test_one_block_memory; a list of every up-step would add 10 MiB
        pms, n, reps = ModelParams(0.5, 0.0), 10**4, 4000
        run_ensemble(pms, n, 10, seed=3, mode="events")
        tracemalloc.start()
        try:
            res = run_ensemble(pms, n, reps, seed=3, mode="events")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.arrays["xi"][:, -1].sum() - reps > 4 * 10**5
        out = sum(x.nbytes for x in res.arrays.values())
        assert peak <= out + reps * 8 * (walkers._EVENT_FILL + 8) + (3 << 20)

    def test_blocks_memory(self):
        # in process, each block is placed in the result before the next one
        # runs: the peak is the result, one block's arrays and its fill
        # buffer (_TILE_DRAWS doubles) and a few doubles a replicate.  A block
        # held over while the next one runs adds 0.9 MiB; a list of all the
        # blocks, the result's 9 MiB
        pms, n, reps = ModelParams(0.5, 1.0), 300, 10 * walkers._BLOCK_SIZE
        run_ensemble(pms, n, 10, seed=3, mode="collapsed")
        tracemalloc.start()
        try:
            res = run_ensemble(pms, n, reps, seed=3, mode="collapsed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(x.nbytes for x in res.arrays.values())
        block = out // 10
        assert peak <= out + block + 8 * walkers._TILE_DRAWS + (256 << 10)

    def test_blocks_write_in_place(self):
        # two events blocks of 26,214 and 23,786 rows write their deltas in
        # their rows of the result: the peak is the result, one block's fill
        # buffer and round vectors, and 2 MiB for the streams' kernel pass
        # and the tables of n.  Measured: 49.9 MiB for the 36.6 MiB result,
        # 66.4 MiB when each block held its own arrays until placed
        pms, n, reps = ModelParams(0.5, 1.0), 10**4, 5 * 10**4
        run_ensemble(pms, n, 10, seed=3, mode="events")
        tracemalloc.start()
        try:
            res = run_ensemble(pms, n, reps, seed=3, mode="events")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(x.nbytes for x in res.arrays.values())
        block = walkers._EVENTS_SCRATCH // walkers._events_row_bytes(len(res.checkpoints),
                                                                     tuple(res.arrays))
        assert block < reps
        scratch = block * 8 * (walkers._EVENT_FILL + walkers._EVENT_ROW_WORDS)
        assert peak <= out + scratch + (2 << 20)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_pooled_blocks_peak_at_the_result(self):
        # the same ensemble on two workers, in a fresh interpreter, against
        # one that only imports: the workers write the result in place, so
        # this process adds the result (read back, so every page counts) and
        # at most 4 MiB, and a block copied over (18.3 MiB) shows.  The peak
        # is VmHWM, the interpreter's own: the workers' memory is not in it.
        # Measured on a 2-core VM: +37.4 MiB for the 36.6 MiB result, +55.9
        # MiB when each block was pickled back and copied in
        code = (
            "import re, sys\n"
            "from erwalk.walkers import ModelParams, run_ensemble\n"
            "if sys.argv[1:]:\n"
            "    res = run_ensemble(ModelParams(0.5, 1.0), 10**4, 5 * 10**4, seed=3,\n"
            "                       mode='events', workers=2)\n"
            "    assert all(x.sum() > 0 for x in res.arrays.values())  # reads every page\n"
            "    print(sum(x.nbytes for x in res.arrays.values()))\n"
            "with open('/proc/self/status') as f:\n"
            "    print(re.search(r'VmHWM:\\s*(\\d+) kB', f.read()).group(1))\n"
        )

        def run(*args):
            proc = subprocess.run([sys.executable, "-c", code, *args], env=src_env(),
                                  capture_output=True, text=True, check=True)
            return [int(x) for x in proc.stdout.split()]

        [base], [out, peak] = run(), run("pooled")
        assert out == 2 * 8 * 5 * 10**4 * len(geometric_checkpoints(10**4))
        assert (peak - base) << 10 <= out + (4 << 20)

    def test_fields_and_checkpoints_before_the_horizon(self):
        # each field's values do not depend on which others are recorded, or
        # on checkpoints recorded after them; up-steps past the last
        # checkpoint still move sigma, but are recorded nowhere
        pms, n = ModelParams(0.5, 0.0), 3000
        every = run_ensemble(pms, n, 400, seed=6, checkpoints=[1, 7, 999, n],
                             mode="events", record=("xi", "sigma", "a"))
        for rec in (("a",), ("xi", "a"), ("sigma",)):
            for cps in ([1, 7, 999], [1, 7, 999, n]):
                res = run_ensemble(pms, n, 400, seed=6, checkpoints=cps, mode="events",
                                   record=rec)
                for name in rec:
                    got = res.arrays[name]
                    assert np.array_equal(got, every.arrays[name][:, :len(cps)]), (rec, cps)
                    assert got.flags.c_contiguous

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
        monkeypatch.setattr(walkers, "c_values", _with_bad_mu(at, bad))
        with pytest.raises(RuntimeError, match=f"n = {at}"):
            run_ensemble(ModelParams(0.003, 3.0), 700, 17, seed=3, mode="events")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be 'auto' or one of"):
            run_ensemble(ModelParams(0.5, 1.0), 10, 3, seed=1, mode="bogus")


def _per_round_events_block(plan, start, count):
    """The events engine with every fill giving each running row 48 draws
    (24 candidates) and each round adding its up-steps to the delta arrays
    by 2-D fancy indexing: the reference for `walkers._events_block`, which
    must match it bit for bit: candidate k of replicate r reads draws
    2k (the gap) and 2k + 1 (the thinning coin) of the stream (seed, r)
    however the draws are filled, and each checkpoint cell receives the same
    additions in the same order."""
    cps, n, record = plan.checkpoints, plan.n_steps, plan.record
    width = len(cps)
    d_xi = np.zeros((count, width), dtype=np.int64) if "xi" in record else None
    d_sigma = np.zeros((count, width))
    d_w = np.zeros((count, width)) if "a" in record else None
    past = cps[-1] < n
    mu = plan.mu[:n]
    coef = plan.coef
    if not np.isfinite(mu).all():
        coef = np.where(np.isfinite(mu), coef, np.nan)
    env = np.maximum.accumulate(coef[::-1])[::-1]
    tail = np.zeros(n + 1)
    tail[:n] = np.cumsum(coef[::-1])[::-1]
    first_cp = np.repeat(np.arange(width + 1), np.diff(cps, prepend=-1, append=n))
    rows = np.arange(count) if n > 1 else np.arange(0)
    t = np.ones(count, dtype=np.int64)
    sigma = np.ones(count)
    buf = np.empty((count, 48))
    k = k_end = 0
    while rows.size:
        if k == k_end:
            rounds = min(24, n - int(t.min()))
            keys = np.uint64(start) + rows.astype(np.uint64)
            uniform_rows(plan.seed, keys, 2 * k, 2 * rounds, out=buf[: rows.size])
            pos = np.arange(rows.size)
            k0, k_end = k, k + rounds
        col = 2 * (k - k0)
        e = env[t]
        lam = sigma * e
        if not lam.max() <= plan.guard:
            i = np.flatnonzero(~(lam <= plan.guard))[0]
            at = t[i] + np.flatnonzero(~(sigma[i] * coef[t[i]:] <= plan.guard))[0]
            raise RuntimeError(f"internal consistency violated: pi_n > p at n = {at}")
        gap = np.full(rows.size, np.inf)
        np.divide(np.log1p(-buf[pos, col]), np.log1p(-lam), out=gap, where=lam > 0)
        j = t + np.floor(gap)
        go = j < n
        rows, pos, sigma, e = rows[go], pos[go], sigma[go], e[go]
        j = j[go].astype(np.int64)
        up = buf[pos, col + 1] * e < coef[j]
        if up.any():
            r, s = rows[up], j[up] + 1
            m = mu[j[up]]
            sigma[up] += m
            b = first_cp[s]
            if past:
                keep = b < width
                r, s, m, b = r[keep], s[keep], m[keep], b[keep]
            if d_xi is not None:
                d_xi[r, b] += 1
            d_sigma[r, b] += m
            if d_w is not None:
                d_w[r, b] += m * tail[s]
        t = j + 1
        go = t < n
        rows, pos, t, sigma = rows[go], pos[go], t[go], sigma[go]
        k += 1
    out = {}
    if d_xi is not None:
        out["xi"] = np.cumsum(d_xi, axis=1) + 1
    sigma_cp = np.cumsum(d_sigma, axis=1) + 1.0
    if "sigma" in record:
        out["sigma"] = sigma_cp
    if d_w is not None:
        w = np.cumsum(d_w, axis=1)
        out["a"] = 1.0 + ((tail[1] - sigma_cp * tail[cps]) + w)
    return out


def _compare_with_events_reference(params, n_steps, seed, start, count, cps, record,
                                   bad_at=None, bad=math.nan):
    """Run the events engine and its reference, with mu_{n+1} = `bad` at
    n = `bad_at`, on the plan that `_run` builds for these arguments.

    Returns the reference's arrays, or None when the guard raised (in both,
    with the same message).
    """
    with pytest.MonkeyPatch.context() as mp:
        if bad_at is not None:
            mp.setattr(walkers, "c_values", _with_bad_mu(bad_at, bad))
        plan = walkers._plan(params, n_steps, seed,
                             walkers._check_checkpoints(cps, n_steps), record)
    try:
        want = _per_round_events_block(plan, start, count)
    except RuntimeError as err:
        with pytest.raises(RuntimeError) as got:
            _run_engine("events", plan, start, count)
        assert str(got.value) == str(err)
        return None
    got = _run_engine("events", plan, start, count)
    assert sorted(got) == sorted(record)
    for name in record:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == (count, len(plan.checkpoints)), name
        assert np.array_equal(got[name], want[name]), name
    return want


class TestEventsKernel:
    """The events engine against its per-round reference, bit for bit."""

    @given(
        p=st.floats(0.001, 0.99),
        beta=st.floats(-0.99, 5.0),
        n_steps=st.one_of(
            st.sampled_from([2, 3, 9, 10, 17, 25, 26, 1000, 3000]),
            st.integers(2, 3000),
        ),
        count=st.one_of(st.sampled_from([1, 2, 127, 128, 300]), st.integers(1, 300)),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
        record=st.sets(st.sampled_from(["xi", "sigma", "a"])).map(sorted).map(tuple),
        bad=st.one_of(st.none(), st.none(), st.none(),
                      st.tuples(st.integers(0, 2**20), st.sampled_from([math.nan, math.inf, 1e-300]))),
        data=st.data(),
    )
    @example(p=0.001, beta=5.0, n_steps=50, count=3, seed=21, start=0,
             record=("a", "sigma", "xi"), bad=None, data=None).via("no up-step at all")
    @example(p=0.9, beta=-0.5, n_steps=2, count=17, seed=3, start=0,
             record=("a", "sigma", "xi"), bad=None, data=None).via("an up-step at j = n - 1")
    @example(p=0.9, beta=-0.5, n_steps=40, count=300, seed=5, start=2**40,
             record=("a", "sigma", "xi"), bad=None, data=None).via("up-steps at j = n - 1 in rows the kernel fills")
    def test_matches_per_round_reference(self, p, beta, n_steps, count, seed, start, record,
                                         bad, data):
        if data is None:
            cps = walkers.geometric_checkpoints(n_steps)
        else:
            kind = data.draw(st.sampled_from(["every", "random", "geometric", "before"]))
            if kind == "every":
                cps = np.arange(1, n_steps + 1)
            elif kind == "random":
                cps = np.unique(data.draw(st.lists(st.integers(1, n_steps), min_size=1,
                                                   max_size=12)))
            elif kind == "geometric":
                cps = walkers.geometric_checkpoints(n_steps)
            else:  # up-steps past the last checkpoint are recorded nowhere
                cps = walkers.geometric_checkpoints(data.draw(st.integers(1, n_steps - 1)))
        bad_at, value = (None, None) if bad is None else bad
        if bad_at is not None:
            bad_at = 1 + bad_at % (n_steps - 1)  # mu[bad_at] = mu_{n+1} at n = bad_at
        with np.errstate(invalid="ignore", over="ignore"):
            _compare_with_events_reference(ModelParams(p, beta), n_steps, seed, start, count,
                                           cps, record, bad_at, value)

    def test_fill_schedule_moves_no_bit(self, monkeypatch):
        # candidate k of replicate r reads draws 2k and 2k + 1 of stream
        # (seed, r) however many candidates the first and the later fills
        # hold; the walks fill by re-keying, the ensemble by the array kernel
        pms, n, reps = ModelParams(0.5, 0.0), 2000, 300
        rec, cps = ("xi", "sigma", "a"), [1, 2, 7, 50, 999, 1500]

        def run():
            res = run_ensemble(pms, n, reps, seed=12, checkpoints=cps, mode="events",
                               record=rec)
            walks = [run_walk(pms, n, seed=12, checkpoints=cps, mode="events",
                              replicate_index=j) for j in (0, 5, 128, reps - 1)]
            return [res.arrays[k] for k in rec] + [np.array([w.xi, w.sigma, w.a])
                                                   for w in walks]

        want = run()
        assert np.array_equal(want[3][0], want[0][0])  # the walks are ensemble rows
        for first, later in itertools.product((1, 3, 8, 24), repeat=2):
            if first > later:  # the buffer holds a later fill
                continue
            monkeypatch.setattr(walkers, "_EVENT_FIRST_FILL", 2 * first)
            monkeypatch.setattr(walkers, "_EVENT_FILL", 2 * later)
            for x, y in zip(want, run()):
                assert np.array_equal(x, y), (first, later)


#: seeds of the pooled oracle ensembles, fixed before any of them was run;
#: one seed per point would be a single correlated draw, so 20 are pooled
_POOL_SEEDS = range(7001, 7021)
_POOL_REPS = 20_000


def _prob_stays_at_one(params, n):
    """P(Xi_n = 1) = prod_{t<n} (1 - c_t), c_t = p(beta+1)/(t mu_{t+1}) the
    step probability at Sigma = 1, with mu_k = Gamma(k+beta)/(Gamma(k) Gamma(1+beta))."""
    t = np.arange(1, n, dtype=np.float64)
    log_mu = gammaln(t + 1.0 + params.beta) - gammaln(t + 1.0) - gammaln(1.0 + params.beta)
    return math.exp(np.log1p(-params.rate / t * np.exp(-log_mu)).sum())


class TestAutoMode:
    """Mode "auto" and the law of the engines it picks between."""

    def test_resolve_mode(self):
        pms = ModelParams(0.5, 1.0)
        assert run_ensemble(pms, 1, 3, seed=1, mode="auto").mode == "collapsed"
        assert run_ensemble(pms, 10**4, 3, seed=1, mode="auto").mode == "events"
        assert run_ensemble(ModelParams(0.8, -0.5), 10**4, 3, seed=1,
                            mode="auto").mode == "collapsed"
        assert run_ensemble(pms, 100, 3, seed=1, mode="full").mode == "full"
        assert run_walk(pms, 10**4, seed=1, mode="auto").mode == "events"

    def test_auto_above_the_direct_path_limit(self):
        # the localized limit mean settles the choice without exact_mean_xi,
        # which refuses an exponent above 1e6
        pms = ModelParams(0.5, 1e7)
        with pytest.raises(ValueError, match="exceeds 1e"):
            exact_mean_xi(50, pms)
        res = run_ensemble(pms, 50, 10, seed=1)
        assert res.mode == "events"
        forced = run_ensemble(pms, 50, 10, seed=1, mode="events")
        for name in res.arrays:
            assert np.array_equal(res.arrays[name], forced.arrays[name]), name

    @pytest.mark.parametrize("beta", [1e7, 1e9])
    def test_martingale_above_the_direct_path_limit(self, beta):
        # M_n = Sigma_n / c_n(rate) once refused a rate past 1e6, where
        # log_poch_ratio loses its digits; the summed log1p form keeps them
        pms = ModelParams(0.5, beta)
        res = run_ensemble(pms, 30, 10, seed=1, checkpoints=[1, 2, 7, 30],
                           record=("sigma",))
        got = res.arrays["sigma"] * walkers._martingale_factor(res.checkpoints, pms.rate)
        with mpmath.workdps(40):
            rate = mpmath.mpf(pms.rate)
            log_c = [mpmath.loggamma(n + rate) - mpmath.loggamma(n) - mpmath.loggamma(rate + 1)
                     for n in res.checkpoints.tolist()]
            want = [[float(s / mpmath.exp(c)) for s, c in zip(row.tolist(), log_c)]
                    for row in res.arrays["sigma"]]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_limit_bound_keeps_every_choice(self):
        # every (p, beta, n) that resolved by exact_mean_xi alone picks the
        # same engine with the localized bound in front
        checked = 0
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for beta in (-0.5, 0.0, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 9.0, 10.0, 100.0,
                         1e3, 1e5, 1e6):
                pms = ModelParams(p, beta)
                for n in (2, 3, 5, 10, 12, 26, 27, 50, 100, 300, 1000, 10**4, 10**6):
                    rate = (exact_mean_xi(n, pms) - 1.0) / (n - 1)
                    old = "events" if rate <= walkers.AUTO_EVENTS_MAX_RATE else "collapsed"
                    assert walkers._resolve_mode("auto", pms, n) == old, (p, beta, n)
                    checked += 1
        assert checked == 5 * 14 * 13

    def test_auto_is_the_engine_it_picks(self):
        pms, cps = ModelParams(0.5, 2.0), [1, 50, 2000]
        auto = run_ensemble(pms, 2000, 300, seed=9, checkpoints=cps, mode="auto",
                            record=("xi", "sigma", "a"))
        events = run_ensemble(pms, 2000, 300, seed=9, checkpoints=cps, mode="events",
                              record=("xi", "sigma", "a"))
        for name in ("xi", "sigma", "a"):
            assert np.array_equal(auto.arrays[name], events.arrays[name]), name

    def test_one_default_policy(self, tmp_path, monkeypatch):
        # the library and the CLI default to "auto", and `_resolve_mode` picks
        for fn in (run_walk, run_ensemble):
            assert inspect.signature(fn).parameters["mode"].default == "auto"
        modes = []

        def recording(*args, **kw):
            modes.append(kw["mode"])
            return run_ensemble(*args, **kw)

        monkeypatch.setattr(cli, "run_ensemble", recording)
        assert cli.main(["simulate", "--n", "50", "--replicates", "5", "--seed", "1",
                         "--out", str(tmp_path)]) == 0
        assert modes == ["auto"]
        # a sparse point (events) and a dense one (collapsed)
        for pms, engine in ((ModelParams(0.5, 2.0), "events"),
                            (ModelParams(0.8, -0.5), "collapsed")):
            cps, rec = [1, 50, 600], ("xi", "sigma", "a")
            plain = run_ensemble(pms, 600, 40, seed=9, checkpoints=cps, record=rec)
            auto = run_ensemble(pms, 600, 40, seed=9, checkpoints=cps, mode="auto",
                                record=rec)
            assert plain.mode == auto.mode == engine
            for name in rec:
                assert np.array_equal(plain.arrays[name], auto.arrays[name]), name
            for j in (0, 17, 39):
                traj = run_walk(pms, 600, seed=9, checkpoints=cps, replicate_index=j)
                assert traj.mode == engine
                for name in rec:
                    assert np.array_equal(getattr(traj, name), plain.arrays[name][j]), name

    def test_prob_stays_at_one_oracle(self):
        pms = ModelParams(0.5, 1.0)
        for n, want in ((2000, 0.296824), (10**4, 0.296705)):
            got = _prob_stays_at_one(pms, n)
            assert got == pytest.approx(want, abs=5e-7)
            # the certified bound's truncated product is the same product
            assert lower_bound_prob_one(pms, n).truncated == pytest.approx(got, rel=1e-12)

    @pytest.mark.parametrize("mode,p,beta", [
        ("events", 0.5, 1.0), ("collapsed", 0.5, 1.0), ("events", 0.5, 2.0),
    ])
    def test_prob_stays_at_one(self, mode, p, beta):
        pms, n = ModelParams(p, beta), 2000
        stay = 0
        for seed in _POOL_SEEDS:
            res = run_ensemble(pms, n, _POOL_REPS, seed=seed, checkpoints=[n], mode=mode,
                               record=("xi",))
            stay += int(np.count_nonzero(res.arrays["xi"][:, -1] == 1))
        total = len(_POOL_SEEDS) * _POOL_REPS
        want = _prob_stays_at_one(pms, n)
        z = (stay / total - want) / math.sqrt(want * (1.0 - want) / total)
        assert abs(z) <= 4.0, f"freq {stay / total:.6f} vs {want:.6f}, z = {z:.2f}"

    def test_stagnation_indicator_matches_collapsed(self):
        # the localized gate's statistic, Xi_4000 == Xi_2000, in law
        pms = ModelParams(0.5, 2.0)
        flags = []
        for mode, seed in (("events", 8101), ("collapsed", 8102)):
            res = run_ensemble(pms, 4000, 20_000, seed=seed, checkpoints=[2000, 4000],
                               mode=mode, record=("xi",))
            xi = res.arrays["xi"]
            flags.append((xi[:, 1] == xi[:, 0]).astype(np.int64))
        p_val = chi_square_two_sample(*flags)
        assert p_val > 1e-3, f"stagnation indicator law rejected: p = {p_val}"


class TestCoupling:
    def test_negative_beta_dominates(self):
        xi, xi_lerw = _coupled(ModelParams(0.5, -0.5), 3000, 100, seed=4)
        assert (xi >= xi_lerw).all()

    def test_positive_beta_dominated(self):
        xi, xi_lerw = _coupled(ModelParams(0.4, 1.0), 3000, 100, seed=4)
        assert (xi <= xi_lerw).all()

    def test_zero_beta_identical(self):
        xi, xi_lerw = _coupled(ModelParams(0.5, 0.0), 1000, 50, seed=12)
        assert np.array_equal(xi, xi_lerw)

    def test_rate_must_be_probability(self):
        with pytest.raises(ValueError):
            _coupled(ModelParams(0.5, 1.5), 100, 1, seed=1)  # rate = 1.25

    def test_rate_checked_before_any_work(self, monkeypatch):
        def no_c_values(xi, n):
            raise AssertionError("c_values reached")

        monkeypatch.setattr(walkers, "c_values", no_c_values)
        with pytest.raises(ValueError, match="coupling needs p"):
            _coupled(ModelParams(0.5, 1.5), 100, 3, seed=1)

    def test_single_run_interface(self):
        res = run_ensemble(ModelParams(0.5, -0.5), 500, 1, seed=6, mode="collapsed",
                           record=("xi", "xi_lerw"))
        assert (res.arrays["xi"] >= res.arrays["xi_lerw"]).all()
        assert res.checkpoints[-1] == 500 and res.mode == "collapsed"

    def test_recorded_with_the_walks_own_fields(self):
        # recording xi_lerw leaves the walk's fields as they are, bit for bit
        pms, cps = ModelParams(0.5, -0.5), [1, 7, 300]
        walk = ("xi", "sigma", "a")
        both, alone = [
            run_ensemble(pms, 300, 50, seed=6, checkpoints=cps, mode="collapsed",
                         record=rec)
            for rec in (walk + ("xi_lerw",), walk)
        ]
        for name in walk:
            assert np.array_equal(both.arrays[name], alone.arrays[name]), name
        xi_lerw = _coupled(pms, 300, 50, seed=6, checkpoints=cps)[1]
        assert np.array_equal(both.arrays["xi_lerw"], xi_lerw)
        assert (both.arrays["xi"] >= xi_lerw).all() and (xi_lerw[:, -1] > 1).any()

    def test_fields_checked_before_any_work(self, monkeypatch):
        # only the collapsed engine records the comparison walk, and there is
        # no mode of its own for it
        def no_c_values(xi, n):
            raise AssertionError("c_values reached")

        monkeypatch.setattr(walkers, "c_values", no_c_values)
        pms = ModelParams(0.5, -0.5)
        with pytest.raises(ValueError, match="mode must be 'auto' or one of"):
            run_ensemble(pms, 10, 3, seed=1, mode="coupled", record=("xi", "xi_lerw"))
        for mode in ("events", "full"):
            with pytest.raises(ValueError, match="cannot record"):
                run_ensemble(pms, 10, 3, seed=1, mode=mode, record=("xi", "xi_lerw"))
        with pytest.raises(ValueError, match="cannot record"):
            run_ensemble(pms, 10, 3, seed=1, mode="collapsed", record=("xi", "m"))


class TestCheckpoints:
    def test_geometric_shape(self):
        cps = geometric_checkpoints(10**4)
        assert cps[0] == 1
        assert cps[-1] == 10**4
        assert (np.diff(cps) > 0).all()

    @staticmethod
    def _loop_checkpoints(n_max, ratio):
        """One Python multiply per factor of ratio: the reference construction."""
        pts, x = [1], 1.0
        while True:
            x *= ratio
            v = math.ceil(x)
            if v >= n_max:
                break
            if v > pts[-1]:
                pts.append(v)
        if n_max > pts[-1]:
            pts.append(n_max)
        return pts

    @pytest.mark.parametrize("ratio", [1.001, 1.01, 1.1, 1.2, 1.5, 2.0, 3.0, 11.0, 1e300])
    def test_geometric_matches_loop(self, ratio):
        for n_max in (1, 2, 3, 7, 12, 100, 999, 4100, 10**4, 10**5, 10**6, 2**23):
            got = geometric_checkpoints(n_max, ratio)
            assert got.dtype == np.int64
            assert got.tolist() == self._loop_checkpoints(n_max, ratio), n_max

    def test_geometric_edge_ratios(self):
        # at most one unit apart below n_max: every integer is a checkpoint
        for ratio in (1 + 1e-7, 1 + 1e-12, 1 + 2**-52):
            assert geometric_checkpoints(100, ratio).tolist() == list(range(1, 101))
        assert geometric_checkpoints(10**4, 1.0001).tolist() == list(range(1, 10**4 + 1))
        for ratio in (math.inf, math.nan, 1.0, 0.5):
            with pytest.raises(ValueError, match="ratio"):
                geometric_checkpoints(100, ratio)

    def test_checkpoints_must_be_integral(self):
        pms = ModelParams(0.5, 1.0)
        for cps in ([2.5, 9.9], [2, 9.5], [math.nan], [1e30]):
            with pytest.raises(ValueError, match="integers"):
                run_ensemble(pms, 10, 3, seed=1, checkpoints=cps, mode="collapsed")
            with pytest.raises(ValueError, match="integers"):
                walkers._check_checkpoints(cps, 10)
        for cps in ([2.0, 9.0], np.array([2, 9], dtype=np.uint8), [np.int32(9), 2]):
            assert walkers._check_checkpoints(cps, 10).tolist() == [2, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_checkpoints(0)
        # 10.5 once gave 1..10, so the last checkpoint was not n_max
        for n_max in (10.5, 10.0, True, np.bool_(True)):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                geometric_checkpoints(n_max)
        assert geometric_checkpoints(np.int32(10)).tolist() == geometric_checkpoints(10).tolist()
        with pytest.raises(ValueError):
            run_walk(ModelParams(0.5, 1.0), 10, seed=1, checkpoints=[0, 5], mode="collapsed")
        with pytest.raises(ValueError):
            run_walk(ModelParams(0.5, 1.0), 10, seed=1, checkpoints=[5, 11], mode="collapsed")

    @pytest.mark.parametrize("beta,longest", [(300.0, 1016), (100.0, 41262)])
    def test_horizon_past_the_weights_overflow(self, beta, longest):
        # n mu_{n+1} overflowed past `longest`: RuntimeWarnings, then a guard
        # failure; the longest horizon runs clean, one more step is refused
        pms = ModelParams(0.5, beta)
        modes = ["collapsed", "events"] if longest < 2000 else ["events"]
        for mode in modes:
            res = run_ensemble(pms, longest, 4, seed=1, mode=mode)
            assert res.checkpoints[-1] == longest
            with pytest.raises(
                ValueError, match=f"n_steps = {longest + 1} .*beta = {beta}.*n = {longest},"
            ):
                run_ensemble(pms, longest + 1, 4, seed=1, mode=mode)
        with pytest.raises(ValueError, match=f"n = {longest},"):
            run_walk(pms, longest + 1, seed=1, mode="collapsed")

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 55.0, 60.0, 100.0, 300.0, 1e5, 1e20, 1e300])
    def test_longest_horizon_is_the_last_finite_weight(self, beta):
        # against log n + log c_{n+1}(beta) in arbitrary precision; beta 1e20
        # is past log_poch_ratio's digits
        def fits(n):
            with mpmath.workdps(40 + max(0, int(math.log10(beta + 1.0)))):
                b, lg = mpmath.mpf(beta), mpmath.loggamma
                log_c = lg(n + 1 + b) - lg(n + 1) - lg(b + 1)
                return math.log(n) + log_c < walkers._LOG_DBL_MAX

        got = walkers._longest_horizon(beta, walkers.MAX_STEPS)
        assert got == 0 or fits(got)
        assert got == walkers.MAX_STEPS or not fits(got + 1)

    def test_horizon_capped_before_any_work(self, monkeypatch):
        # c_values would allocate the whole horizon; the cap is checked first
        class Reached(Exception):
            pass

        def no_c_values(xi, n):
            raise Reached

        monkeypatch.setattr(walkers, "c_values", no_c_values)
        pms, cps = ModelParams(0.5, -0.5), [1]
        calls = [
            lambda n: run_walk(pms, n, seed=1, checkpoints=cps, mode="collapsed"),
            lambda n: run_ensemble(pms, n, 3, seed=1, checkpoints=cps, mode="collapsed"),
            lambda n: _coupled(pms, n, 1, seed=1, checkpoints=cps),
            lambda n: _coupled(pms, n, 3, seed=1, checkpoints=cps),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"n_steps = {walkers.MAX_STEPS + 1}.*"
                               f"MAX_STEPS = {walkers.MAX_STEPS}"):
                call(walkers.MAX_STEPS + 1)
            with pytest.raises(Reached):
                call(walkers.MAX_STEPS)
        assert walkers.MAX_STEPS == 1 << 23

    def test_seed_checked_without_draws(self):
        # n_steps = 1 reads no uniform; the key is still checked up front
        pms = ModelParams(0.5, 1.0)
        calls = [
            lambda s: run_walk(pms, 1, seed=s, mode="collapsed"),
            lambda s: run_ensemble(pms, 1, 3, seed=s, mode="collapsed"),
            lambda s: _coupled(ModelParams(0.5, -0.5), 1, 1, seed=s),
            lambda s: _coupled(ModelParams(0.5, -0.5), 1, 3, seed=s),
        ]
        for call in calls:
            for seed in (-5, 2**64):
                with pytest.raises(ValueError, match="master_seed"):
                    call(seed)
            call(2**64 - 1)
        for index in (-1, 2**64):
            with pytest.raises(ValueError, match="replicate"):
                run_walk(pms, 1, seed=0, replicate_index=index, mode="collapsed")
