import hashlib
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from erwalk import gammaratio
from erwalk.gammaratio import (
    _lgam,
    c_values,
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
        # spans the switch from products to summed logs at index 10^4
        for xi in (-0.7, 0.4, 2.5):
            vals = c_values(xi, 50_001)
            for n in (1, 2, 9_998, 9_999, 10_000, 10_001, 50_000):
                ratio = vals[n] / vals[n - 1]
                assert ratio == pytest.approx((n + xi) / n, rel=1e-13)


# sha256 of c_1(xi), ..., c_n(xi), recorded from the cached recurrence that
# c_values replaced; the lengths straddle its switch to summed logs at 10^4
C_VALUES_GOLDEN = {
    (-0.99, 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (-0.99, 2): "56d0337786df9030a5d83f99f78af7ba0bd70cda8f38fd0aa62bc5e01f63f4b8",
    (-0.99, 9999): "1bacb76ba3d55f42dbc0b0197658718a1301c8c35f29a92c4330b2bd46e63e47",
    (-0.99, 10000): "b30946e253c0a4ab6cd33d1fe69b197bf704146c9f06b285cecb2ec701399c50",
    (-0.99, 10001): "0c561a3faefe47cf76025d587ffff8fc28cb4d7f758e7a3c9e9d2990ccf80635",
    (-0.99, 123457): "0bc67611847076bb8823b85e035af87ae93909fa03606299dac6d73eae1f1c77",
    (-0.5, 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (-0.5, 2): "7ded32179961d3df64ab9071d95eed3a7b5efc1750a16bdc02db400678278fab",
    (-0.5, 9999): "55fd6d2cfaf60d9b3078ff768258ea7812326050d4ff840f103ac807de37895b",
    (-0.5, 10000): "825aeefc09eca6f8038ee94cc5c6801e2a118f47c22418e9aa1c5387a176286b",
    (-0.5, 10001): "d63d0446d777d6b357b84213570e5e144991fc1000cff16eebd1b70a0257c467",
    (-0.5, 123457): "eaaaa297e151f8d6cb6676c731bcb2eec88518cccc30313a3ff77e77ba9d99b3",
    (0.0, 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (0.0, 2): "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005",
    (0.0, 9999): "49880d13a0e430599ab859703ef76e74cacc08f79cb1f8f6f6145e1ab8f0f78b",
    (0.0, 10000): "37895d84a413e2ff48ab788e8d576c42d7511ab125de1f5feb225d15ca7c8e59",
    (0.0, 10001): "8f013b953053cb5338abbb33ae21d5cf6c4e24bb01c9d9787a5d1dd99cc5e4c9",
    (0.0, 123457): "24468fc8264baec1cf25d4cda354108c80375aa4608f4e05e6f87471554dbe46",
    (0.3, 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (0.3, 2): "4aa06060a935f207f9d18596521f833330d026f0bd31502e8b34a26b479cbc0b",
    (0.3, 9999): "8e131552a351cb5de468fb0096f625451000a8b1d6c043752cbf48fda64e9fdf",
    (0.3, 10000): "e7a6292b8d92b5f1ed0ba08ad81501b6a3d62cd6c4eb7ea4bdab2f8aeb0cb118",
    (0.3, 10001): "80483c83c5dc3facad4de111f50175cdf7da6a4ad1960eb3d372ef0f79bd4850",
    (0.3, 123457): "ddd01d28b64601b4b39730c01f36b2f699d715ab6dd7741aeea3e320c335070d",
    (1.0, 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (1.0, 2): "dc91ce9a50ddc828740aa26743716897fdb2bb64f1db662fe263a59be56145ae",
    (1.0, 9999): "453027c91538c5f94dcf76b9505cea2cd09e4000e5999db61870c8054fa5477a",
    (1.0, 10000): "46ef6ea70ad89bdcf1da7228cb7653200e297f2c0d8bf031944d265baa69c50c",
    (1.0, 10001): "b1a169a1e71daa54ac58543fb568046ba15eb58f75582c2a41979729647ff04a",
    (1.0, 123457): "e9bdf32195dd921924ea72161162971af40ab0756ecbfd266faa089c8256a926",
    (3.0, 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (3.0, 2): "61333f2fb3305d797c8979e7930a25f4d5c37377bcf5ef016254e3472fbc4b6c",
    (3.0, 9999): "f61590525cda7a922a1639db9bbb22e258a3fd38ed5275b9716a5da00c856bd1",
    (3.0, 10000): "17acf0d265e298e202f046debe9aba080936597c3d3c6b520501f8214c74bfd4",
    (3.0, 10001): "b0fe9d517204312b6b21f606e0167133fdfcf29eea0983f00f5a4c136e214e25",
    (3.0, 123457): "2eea6a4589ae3fa8a2a40bc70b75baa76d9b6d445301f4074453381e580bc1eb",
    (9.5, 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (9.5, 2): "11d90bcadf229e51075136c9a07cdfac357b65d4b40c35d3a383afcaf89d14c7",
    (9.5, 9999): "6b63bd2c539c1453ddd5177d745fc9eb819080c7932664b53d60888fe6f315b7",
    (9.5, 10000): "d88465b2a7d90c3e0e3fa413618ecf6b3ee7da291da56ede253551b1fb73919f",
    (9.5, 10001): "8a151326c9cc4a71313d4642e425dfba45287459548a2a707cda7062a9420361",
    (9.5, 123457): "7d05c00c8e2f9cefaae4025b48258dcf08788de745e48d63288a6d3a84cc727a",
}


# sha256 of scalar log_poch(n, xi) as little-endian doubles over LOG_POCH_POINTS,
# recorded before the Stirling tail's Horner loop was unrolled
LOG_POCH_GOLDEN = {
    -0.99: "475d80205e40cfb6e7bc4cff1a3aee1aa3ff0864c4528af67677c353cedd12aa",
    -0.5: "608b3ec849d9c618a9485e31ad644671cbee12e75ba46a44e80d47216360a633",
    0.0: "9c23f71db97470548bbba030e248d633cd8e13813df00da8a53677d28e95411d",
    0.3: "d4d14352799f5f0062af4654574f7101f05cc3d8e3882aaf3b0809b14b4d71f0",
    1.0: "520d066e3c2757a8732d66d47bf5e3f9369edb61318b03a57bea9e2ad358f789",
    2.0: "fe3d02dcf54def77e0964eeeb379b8773a96829a37bb3f28e31b955da2b7d511",
    3.0: "4260badaf7739823fd0f35596374160922ef8d3e501d6e130489f562cf5151a8",
    9.5: "52af1a0752d52425c603c1d1cedaf7f3281401fda2e6877fdfd7e5483267a38d",
}

# n = 1..3000, then log-uniform integers (ratio ~1.031) up to 1e15, each
# followed by itself + 0.5 as the Newton steps of the branching cutoff use
LOG_POCH_POINTS = [float(n) for n in range(1, 3001)]
_n = 3001
while _n <= 10**15:
    LOG_POCH_POINTS += [float(_n), _n + 0.5]
    _n = _n * 1031 // 1000 + 1


@pytest.mark.parametrize("xi", list(LOG_POCH_GOLDEN))
def test_log_poch_scalar_golden_digests(xi):
    h = hashlib.sha256()
    for n in LOG_POCH_POINTS:
        h.update(struct.pack("<d", log_poch(n, xi)))
    assert h.hexdigest() == LOG_POCH_GOLDEN[xi]


# sha256 of scalar log_poch(float(n), xi) over CLOSURE_POINTS, recorded
# before log_poch's scalar branch became the _log_poch_scalar closure
CLOSURE_GOLDEN = {
    1e-3: "9c34706f88c5fbc36f8ad5f331cec8be61dda1d86a906b0b120ea2bab929a6b7",
    0.5: "d555e91bbfc65aea58fc789ffc9a7e0cbaabb89778a831e8b22b22063ba19902",
    1.0: "878f4299a37aac9cddba4054e60acd1786dd7acd55ca2cfca025aebfc1af2453",
    3.0: "d0b85d4dfedd478133da995aa80b3a8c6015555a8ba5b404139c40e6f2a3e316",
    1e6: "d9bfd3794a2208d6ce60855b2dd2b545f5a41a77c0b00e3175784ddcad440e5c",
}
# n = 1..64 (both sides of _DIRECT_MIN = 32), then 2**7 .. 2**62
CLOSURE_POINTS = list(range(1, 65)) + [2**j for j in range(7, 63)]


@pytest.mark.parametrize("xi", list(CLOSURE_GOLDEN))
def test_scalar_closure_is_log_poch_bit_for_bit(xi):
    lp = gammaratio._log_poch_scalar(xi)
    assert gammaratio._log_poch_scalar(xi) is lp  # one closure per exponent
    h = hashlib.sha256()
    for n in CLOSURE_POINTS:
        got = struct.pack("<d", lp(float(n)))
        assert got == struct.pack("<d", log_poch(float(n), xi)), n
        h.update(got)
    assert h.hexdigest() == CLOSURE_GOLDEN[xi]


class TestCValues:
    @pytest.mark.parametrize("xi,n", list(C_VALUES_GOLDEN))
    def test_golden_digests(self, xi, n):
        got = c_values(xi, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert hashlib.sha256(got.tobytes()).hexdigest() == C_VALUES_GOLDEN[xi, n]

    def test_prefix_independent_of_length(self):
        # both scans run in order, so c_k does not depend on how many follow
        long = c_values(0.3, 30_001)
        for n in (1, 2, 9_999, 10_000, 10_001, 30_000):
            assert np.array_equal(c_values(0.3, n), long[:n])

    def test_matches_poch_ratio_and_domain(self):
        vals = c_values(1.7, 12_000)
        for n in (1, 5, 10_000, 12_000):
            assert poch_ratio(n, 1.7) == vals[n - 1]
        with pytest.raises(ValueError):
            c_values(-1.0, 5)
        with pytest.raises(ValueError):
            c_values(0.5, 0)


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


class TestDirectPathLimit:
    """The direct path refuses an exponent past 1e6, where the log-Gamma
    difference cancels (log_poch_ratio(101, 1e20) once gave -524288 for a
    true 4241.4)."""

    def test_limit(self):
        assert gammaratio._DIRECT_MAX_XI == 1e6

    def test_log_poch_ratio(self):
        with mpmath.workdps(40):
            b = mpmath.mpf(1e6)
            want = float(mpmath.loggamma(101 + b) - mpmath.loggamma(101) - mpmath.loggamma(b + 1))
        assert log_poch_ratio(101.0, 1e6) == pytest.approx(want, rel=1e-9)
        for xi in (math.nextafter(1e6, math.inf), 1e20):
            with pytest.raises(ValueError, match="exceeds 1e\\+06"):
                log_poch_ratio(101.0, xi)

    def test_poch_ratio_sum(self):
        poch_ratio_sum(0.5e6, 1e6, 50)
        for x, y in ((0.5e20, 1e20), (1e7, 0.5)):
            with pytest.raises(ValueError, match="exceeds 1e\\+06"):
                poch_ratio_sum(x, y, 50)
        # the direct sum near x = y keeps its digits at any exponent
        want = sum(1.0 / (k + 1e20) for k in range(1, 50))
        assert poch_ratio_sum(1e20, 1e20, 50) == pytest.approx(want, rel=1e-14)

    def test_log_poch_is_unchecked(self):
        # the branching sampler's hot scalar path takes any exponent
        assert math.isfinite(log_poch(101.0, 1e20))


# positive arguments for the Cephes lgam port: the dyadic k/64 up to 40, the
# integers and half-integers up to 2000, every power of two from the least
# subnormal to 2^1023 (past the overflow threshold), each branch boundary and
# its neighbours, and inf
LGAM_GRID = np.concatenate([
    np.arange(1, 64 * 40 + 1) / 64.0,
    np.arange(1, 4001) / 2.0,
    2.0 ** np.arange(-1074, 1024),
    [np.nextafter(b, d) for b in (2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305)
     for d in (0.0, b, np.inf)],
    [np.inf],
])
# sha256 of scipy.special.gammaln over LGAM_GRID (scipy 1.17.1)
LGAM_GOLDEN = "84ee9bcedc0151d172d1965299a5c8a08abb0c71b38150dd1ee1cda75a7d21c8"


class TestLgamPort:
    """`_lgam` is Cephes lgam, the function behind scipy.special.gammaln."""

    def test_pinned_grid(self):
        got = np.array([_lgam(x) for x in LGAM_GRID])
        assert hashlib.sha256(got.tobytes()).hexdigest() == LGAM_GOLDEN
        np.testing.assert_array_equal(got, gammaln(LGAM_GRID))

    def test_random_sample_matches_gammaln(self):
        rng = np.random.default_rng(20261019)
        xs = np.concatenate([rng.uniform(0.0, 40.0, 20_000),
                             np.exp(rng.uniform(-20.0, 60.0, 20_000))])
        got = np.array([_lgam(x) for x in xs])
        np.testing.assert_array_equal(got, gammaln(xs))

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.5, -3.0, math.nan, -math.inf])
    def test_outside_the_port_raises(self, x):
        with pytest.raises(ValueError, match="x > 0"):
            _lgam(x)

    def test_inf_follows_cephes(self):
        assert _lgam(math.inf) == gammaln(math.inf) == math.inf

    @pytest.mark.parametrize("xi", [-0.99, -0.5, 0.0, 0.3, 1.0, 9.5])
    def test_array_branch_gives_the_gammaln_bits(self, xi):
        n = np.arange(1.0, 32.0)
        np.testing.assert_array_equal(log_poch(n, xi), gammaln(n + xi) - gammaln(n))
