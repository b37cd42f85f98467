import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kv

from wright_stein.errors import AiryOverflowError, DomainError, RangeError
from wright_stein.numerics import GAMMA_2_3, gamma_fn
from wright_stein import specfun
from wright_stein.specfun import (
    _CHEB_EDGES,
    AIRY_SWITCH,
    _airy_series_core,
    _green_at,
    _ones,
    airy,
    airy_ai_tail_integral,
    airy_many,
    mittag_leffler,
    scorer_gi,
    scorer_gi_norms,
    scorer_gi_prime,
    wright_m_series,
)

mp.mp.dps = 40

# Frozen single-point references (independent high-precision oracles):
#   Gi(0) = Bi(0)/3                    = 0.204975542482000245050...
#   E_{1/3}(-1)                        = 0.451751232381996526008...
#   E_{1/3}(-5)                        = 0.133083758807433862427...
#   M_{1/2}(1) = e^(-1/4)/sqrt(pi)     = 0.439391289467722397047...
GI_AT_ZERO = 0.20497554248200025
ML_THIRD_AT_M1 = 0.4517512323819965
ML_THIRD_AT_M5 = 0.13308375880743386
M_HALF_AT_1 = 0.4393912894677224


class TestAiryPointValues:
    def test_initial_values_against_formulas(self):
        v = airy(0.0)
        assert abs(v.ai - 1.0 / (3.0 ** (2.0 / 3.0) * gamma_fn(2.0 / 3.0))) <= 1e-13
        assert abs(v.ai_prime + 1.0 / (3.0 ** (1.0 / 3.0) * gamma_fn(1.0 / 3.0))) <= 1e-13
        assert abs(v.bi - 1.0 / (3.0 ** (1.0 / 6.0) * gamma_fn(2.0 / 3.0))) <= 1e-13
        assert abs(v.bi_prime - 3.0 ** (1.0 / 6.0) / gamma_fn(1.0 / 3.0)) <= 1e-13

    def test_initial_value_decimals(self):
        v = airy(0.0)
        assert v.ai == pytest.approx(0.3550280538878172, abs=1e-13)
        assert v.bi == pytest.approx(0.6149266274460007, abs=1e-13)
        assert v.ai_prime == pytest.approx(-0.2588194037928068, abs=1e-13)
        assert v.bi_prime == pytest.approx(0.4482883573538264, abs=1e-13)

    def test_vs_oracle_absolute_low_range(self):
        for x in np.linspace(0.0, 5.0, 51):
            v = airy(float(x))
            assert abs(v.ai - float(mp.airyai(float(x)))) <= 1e-12
            assert abs(v.ai_prime - float(mp.airyai(float(x), 1))) <= 1e-12
            assert abs(v.bi - float(mp.airybi(float(x)))) <= 1e-12
            assert abs(v.bi_prime - float(mp.airybi(float(x), 1))) <= 1e-12

    def test_vs_oracle_relative_high_range(self):
        for x in np.linspace(5.0, 40.0, 71):
            v = airy(float(x))
            for got, ref in (
                (v.ai, mp.airyai(float(x))),
                (v.ai_prime, mp.airyai(float(x), 1)),
                (v.bi, mp.airybi(float(x))),
                (v.bi_prime, mp.airybi(float(x), 1)),
            ):
                assert abs(got - float(ref)) <= 1e-10 * abs(float(ref))

    def test_leading_asymptotic_at_10(self):
        v = airy(10.0)
        zeta = (2.0 / 3.0) * 10.0 ** 1.5
        lead = 0.5 / math.sqrt(math.pi) * 10.0 ** -0.25 * math.exp(-zeta)
        assert abs(v.ai / lead - 1.0) <= 2e-2

    def test_positivity(self):
        a = airy_many(np.linspace(0.0, 40.0, 200))
        assert np.all(a.ai > 0)
        assert np.all(a.bi > 0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            airy(-1e-9)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_refused(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                airy_many(np.array([0.5, x]))
            with pytest.raises(DomainError):
                airy(x)

    def test_overflow_error_beyond_200(self):
        with pytest.raises(AiryOverflowError):
            airy(200.0001)
        # Scaled fields remain valid far beyond.
        a = airy_many(np.array([500.0]))
        assert np.isfinite(a.ai_scaled[0]) and np.isfinite(a.bi_scaled[0])

    def test_overflow_error_where_bi_leaves_double_range(self):
        # e^zeta overflows once zeta > 709.78, at x ~ 104.3.
        assert math.isfinite(airy(104.0).bi)
        for x in (104.5, 150.0):
            with pytest.raises(AiryOverflowError, match=f"x={x!r}"):
                airy(x)

    def test_bi_fits_where_e_zeta_overflows(self):
        # e^zeta overflows from x ~ 104.27, Bi only from x ~ 104.43 and
        # Bi' from x ~ 104.22.
        a = airy_many(np.array([104.3, 104.4, 104.5]))
        for x, got in zip((104.3, 104.4), a.bi[:2]):
            assert got == pytest.approx(float(mp.airybi(x)), rel=1e-12)
        assert a.bi[2] == np.inf
        assert not np.isfinite(a.bi_prime).any()
        with pytest.raises(AiryOverflowError, match="x=104.3"):
            airy(104.3)

    def test_zeta_field(self):
        v = airy(4.0)
        assert v.zeta == pytest.approx((2.0 / 3.0) * 8.0, rel=1e-15)

    def test_scaled_product_identity(self):
        for x in [0.5, 3.0, 8.9, 15.0, 30.0]:
            v = airy(x)
            assert v.ai_scaled * v.bi_scaled == pytest.approx(
                v.ai * v.bi, rel=5e-15
            )


class TestAiryStructure:
    def test_wronskian_200_points(self):
        a = airy_many(np.linspace(0.0, 10.0, 200))
        w = a.ai * a.bi_prime - a.ai_prime * a.bi
        assert np.max(np.abs(w - 1.0 / math.pi)) <= 1e-10

    def test_ode_residuals_fd(self):
        # Five-point second derivative, step balanced between truncation
        # and roundoff over [0, 8].
        xs = np.linspace(0.05, 8.0, 120)
        h = 2e-3
        stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        for name in ("ai", "bi"):
            cols = [getattr(airy_many(xs + s * h), name) for s in (-2, -1, 0, 1, 2)]
            d2 = sum(c * col for c, col in zip(stencil, cols)) / h**2
            resid = np.abs(d2 - xs * cols[2])
            if name == "ai":
                assert np.max(resid) <= 1e-6
            else:
                assert np.max(resid / cols[2]) <= 1e-6

    def test_overlap_band_between_branches(self):
        # Past the switch, up to where the double-double series still holds.
        band = np.linspace(AIRY_SWITCH, 10.5, 28)
        ai, aip, bi, bip = _airy_series(band)
        z = (2.0 / 3.0) * band * np.sqrt(band)
        a = airy_many(band)
        assert np.max(np.abs(ai * np.exp(z) / a.ai_scaled - 1.0)) <= 1e-11
        assert np.max(np.abs(aip * np.exp(z) / a.ai_prime_scaled - 1.0)) <= 1e-11
        assert np.max(np.abs(bi * np.exp(-z) / a.bi_scaled - 1.0)) <= 1e-11
        assert np.max(np.abs(bip * np.exp(-z) / a.bi_prime_scaled - 1.0)) <= 1e-11

    def test_cheb_cache_matches_series(self):
        xs = np.linspace(0.0, AIRY_SWITCH - 1e-9, 1234)
        direct = _airy_series(xs)
        cached = airy_many(xs)
        for d, c in zip(direct, (cached.ai, cached.ai_prime, cached.bi, cached.bi_prime)):
            rel = np.abs(c - d) / np.maximum(np.abs(d), 1e-300)
            assert np.max(rel) <= 5e-14

    def test_cheb_table_equals_per_interval_build(self):
        # Reference: the table built one interval at a time, each with its own
        # series call and one DCT per function.
        ld, n = np.longdouble, specfun._CHEB_DEG + 1
        pi_ld = ld(math.pi) + ld(1.2246467991473532e-16)
        k = np.arange(n)
        theta = pi_ld * (2 * k + 1).astype(ld) / ld(2 * n)
        dct = (ld(2) / ld(n)) * np.cos(np.outer(k.astype(ld), theta))
        dct[0] *= ld(0.5)
        ref = np.empty((specfun._N_CHEB_INT, 4, n), dtype=ld)
        for i in range(specfun._N_CHEB_INT):
            a, b = _CHEB_EDGES[i], _CHEB_EDGES[i + 1]
            xs_ld = ld(0.5) * ld(a + b) + ld(0.5) * ld(b - a) * np.cos(theta)
            xs = np.asarray(xs_ld, dtype=float)
            d, u = xs_ld - xs.astype(ld), xs.astype(ld)
            ai, aip, bi, bip = (h.astype(ld) + l.astype(ld) for h, l in
                                specfun._airy_series_core(xs))
            for j, v in enumerate((ai + aip * d, aip + u * ai * d,
                                   bi + bip * d, bip + u * bi * d)):
                ref[i, j] = dct @ v
        expected = ref.astype(float).transpose(2, 1, 0)
        assert np.array_equal(specfun._cheb_coefs(), expected)

    def test_cheb_cache_vs_oracle_relative(self):
        # Dense points, every interval edge and the top of the cache range.
        xs = np.concatenate((
            np.linspace(0.0, AIRY_SWITCH, 2001, endpoint=False),
            _CHEB_EDGES[_CHEB_EDGES < AIRY_SWITCH],
            [AIRY_SWITCH - 1e-12],
        ))
        a = airy_many(xs)
        with mp.workdps(30):
            for got, fn, d in (
                (a.ai, mp.airyai, 0),
                (a.ai_prime, mp.airyai, 1),
                (a.bi, mp.airybi, 0),
                (a.bi_prime, mp.airybi, 1),
            ):
                ref = np.array([float(fn(mp.mpf(x), d)) for x in xs])
                assert np.max(np.abs(got / ref - 1.0)) <= 1e-15

    def test_cheb_cache_keeps_shape_and_order(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, AIRY_SWITCH, (3, 50))
        flat = airy_many(np.sort(xs.ravel()))
        order = np.argsort(xs.ravel())
        a = airy_many(xs)
        for name in ("ai", "ai_prime", "bi", "bi_prime", "ai_scaled", "bi_scaled"):
            got = getattr(a, name)
            assert got.shape == xs.shape
            want = np.empty(xs.size)
            want[order] = getattr(flat, name)
            assert np.array_equal(got.ravel(), want)

    @pytest.mark.parametrize(
        "xs",
        [
            pytest.param(np.geomspace(AIRY_SWITCH, 1e8, 10_000), id="9-to-1e8"),
            pytest.param(np.array([1e300]), id="1e300"),
            pytest.param(
                np.random.default_rng(3).permutation(
                    np.concatenate((np.geomspace(AIRY_SWITCH, 1e4, 598), [1e300, 10.0]))
                ).reshape(40, 15),
                id="unsorted-2d",
            ),
        ],
    )
    def test_asymptotic_matches_full_loop(self, xs):
        # The far series against the expansions summed to their smallest
        # term, in any shape and order.
        a = airy_many(xs)
        got = (a.ai_scaled, a.bi_scaled, a.ai_prime_scaled, a.bi_prime_scaled)
        for g, want in zip(got, _airy_asymptotic_full(xs)):
            assert g.shape == xs.shape
            assert np.max(np.abs(g / want - 1.0)) <= 2e-15

    def test_far_series_vs_oracle_relative(self):
        # Dense in [9, 1e4], the switch, the next double past it, and 1e6.
        xs = np.concatenate((
            np.geomspace(AIRY_SWITCH, 1e4, 800), np.linspace(AIRY_SWITCH, 25.0, 200),
            [AIRY_SWITCH, np.nextafter(AIRY_SWITCH, 10.0), 1e6],
        ))
        a = airy_many(xs)
        with mp.workdps(30):
            for got, fn, d, sign in (
                (a.ai_scaled, mp.airyai, 0, 1),
                (a.ai_prime_scaled, mp.airyai, 1, 1),
                (a.bi_scaled, mp.airybi, 0, -1),
                (a.bi_prime_scaled, mp.airybi, 1, -1),
            ):
                ref = np.array([
                    float(fn(x, d) * mp.exp(sign * 2 * x * mp.sqrt(x) / 3))
                    for x in map(mp.mpf, xs)
                ])
                assert np.max(np.abs(got / ref - 1.0)) <= 5e-16

    def test_far_coefficients_are_the_40_digit_fit(self):
        assert np.array_equal(specfun._FAR_COEFS[:, :, 0].T, _far_fit())
        lead = [float(v / mp.sqrt(mp.pi)) for v in (0.5, -0.5, 1.0, 1.0)]
        assert np.allclose(specfun._FAR_LEAD[:, 0], lead, rtol=2.3e-16, atol=0)
        # The tails the far-series comment cites.
        tail = np.abs(specfun._FAR_COEFS[12:, :, 0])
        assert tail[:, 2:].max() <= 2.3e-18 and tail[:, :2].max() <= 7.6e-21

    def test_far_series_at_the_top_of_double_range(self):
        xs = np.array([1e300, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = airy_many(xs)
            fields = specfun._scaled_pair(xs, False) + specfun._scaled_pair(xs, True)
        for f in (a.ai_scaled, a.bi_scaled, a.ai_prime_scaled, a.bi_prime_scaled):
            assert np.all(np.isfinite(f)) and np.all(f != 0)
        assert [_bits(f) for f in fields] == [
            _bits(a.ai_scaled), _bits(a.bi_scaled),
            _bits(a.ai_prime_scaled), _bits(a.bi_prime_scaled),
        ]
        assert np.all(a.ai == 0) and np.all(a.ai_prime == 0)

    def test_node_fields_match_airy_many(self):
        # The Green's pass's fields are airy_many's, bit for bit, on both
        # sides of the switch and at it, for the value pair and the
        # derivative pair alike.
        rng = np.random.default_rng(11)
        u = np.concatenate((
            rng.uniform(0.0, 2.0 * AIRY_SWITCH, 2984),
            np.geomspace(2.0 * AIRY_SWITCH, 1e8, 10),
            [0.0, 5e-324, np.nextafter(AIRY_SWITCH, 0.0), AIRY_SWITCH,
             np.nextafter(AIRY_SWITCH, 10.0), 1e300],
        )).reshape(200, 15)
        a = airy_many(u)
        for primes, want in ((False, (a.ai_scaled, a.bi_scaled)),
                             (True, (a.ai_prime_scaled, a.bi_prime_scaled))):
            fields = specfun._scaled_pair(u, primes)
            assert [_bits(f) for f in fields] == [_bits(w) for w in want]

    def test_bessel_cross_check(self):
        # Ai(x) = (1/pi) sqrt(x/3) K_{1/3}(zeta) for x > 0.
        for x in (1.0, 4.0):
            zeta = (2.0 / 3.0) * x ** 1.5
            ref = math.sqrt(x / 3.0) / math.pi * kv(1.0 / 3.0, zeta)
            assert abs(airy(x).ai - ref) <= 1e-8


def _airy_series(x):
    """Maclaurin branch collapsed to doubles: (ai, aip, bi, bip)."""
    return tuple(hi + lo for hi, lo in _airy_series_core(x))


def _airy_asymptotic_full(x):
    """The scaled fields (ai, bi, ai', bi') from the expansions DLMF
    9.7.5-9.7.8, every point carried until the slowest one stops at its
    smallest term: an oracle for the far series that shares none of its
    code."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        zeta = (2.0 / 3.0) * x * np.sqrt(x)
    s = 1.0 / zeta

    sum_ai = np.ones_like(x)
    sum_bi = np.ones_like(x)
    sum_aip = np.ones_like(x)
    sum_bip = np.ones_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    sign = 1.0

    for k in range(1, 60):
        ratio = ((6 * k - 5) * (6 * k - 3) * (6 * k - 1)) / (216.0 * k * (2 * k - 1))
        term = term * s * ratio
        grown = np.abs(term) >= prev
        active &= ~grown
        if not active.any():
            break
        sign = -sign
        vfac = -(6 * k + 1) / (6 * k - 1.0)
        tu = np.where(active, term, 0.0)
        sum_ai += sign * tu
        sum_bi += tu
        sum_aip += sign * vfac * tu
        sum_bip += vfac * tu
        prev = np.abs(term)
        if float(np.max(np.where(active, np.abs(term), 0.0))) < 1e-19:
            break

    q = np.power(x, 0.25)
    inv_2sp = 1.0 / (2.0 * math.sqrt(math.pi))
    inv_sp = 1.0 / math.sqrt(math.pi)
    ai_s = sum_ai * inv_2sp / q
    bi_s = sum_bi * inv_sp / q
    aip_s = -sum_aip * q * inv_2sp
    bip_s = sum_bip * q * inv_sp
    return ai_s, bi_s, aip_s, bip_s


def _far_fit(n=17):
    """The far series rebuilt: the 40-digit interpolant at n Chebyshev
    nodes of u^(1/4) ai_scaled, u^(-1/4) ai_prime_scaled, u^(1/4) bi_scaled
    and u^(-1/4) bi_prime_scaled in t = 2 (AIRY_SWITCH / u)^(3/2) - 1, lead
    taken off the first coefficient, rounded to doubles: (4, n)."""
    with mp.workdps(40):
        theta = [mp.pi * (2 * k + 1) / (2 * n) for k in range(n)]
        vals = []
        for th in theta:
            u = AIRY_SWITCH * ((1 + mp.cos(th)) / 2) ** (-mp.mpf(2) / 3)
            z = 2 * u * mp.sqrt(u) / 3
            q = mp.root(u, 4)
            vals.append((q * mp.exp(z) * mp.airyai(u), mp.exp(z) * mp.airyai(u, 1) / q,
                         q * mp.exp(-z) * mp.airybi(u), mp.exp(-z) * mp.airybi(u, 1) / q))
        c = [[2 * mp.fsum(v[r] * mp.cos(j * th) for v, th in zip(vals, theta)) / n
              for j in range(n)] for r in range(4)]
        for r in range(4):
            c[r][0] = c[r][0] / 2 - specfun._FAR_LEAD[r, 0]
        return np.array([[float(x) for x in row] for row in c])


def _bits(a):
    return np.asarray(a).shape, np.asarray(a).tobytes()


def _grid_max(values_fn, xs, vals, rounds=2):
    """Deterministic grid search with local refinement; returns (x*, max).

    ``vals`` are the values of ``values_fn`` on the first-round grid ``xs``,
    so searches over several functions can share that pass; each refinement
    round evaluates ``values_fn`` on 201 points around the current maximizer.
    """
    while True:
        vals = np.abs(vals)
        i = int(np.argmax(vals))
        x_star, v_star = float(xs[i]), float(vals[i])
        if rounds == 0:
            return x_star, v_star
        rounds -= 1
        step = xs[1] - xs[0]
        xs = np.linspace(max(0.0, x_star - 2 * step), x_star + 2 * step, 201)
        vals = values_fn(xs)


def _scorer_norm_search():
    """The search that located the frozen Scorer norms in ``specfun``."""
    # One pass on [0, 40] yields Gi and Gi' for all three first rounds.
    xs = np.linspace(0.0, 40.0, 8001)
    gi, gip, _ = _green_at(xs, _ones, 1.0, "scorer_gi")
    gi_argmax, gi_norm = _grid_max(scorer_gi, xs, gi)
    xgi_argmax, xgi_norm = _grid_max(lambda xs: xs * scorer_gi(xs), xs, xs * gi)
    gip_argmax, gip_norm = _grid_max(scorer_gi_prime, xs, gip)
    return {
        "gi_norm": gi_norm,
        "gi_argmax": gi_argmax,
        "xgi_norm": xgi_norm,
        "xgi_argmax": xgi_argmax,
        "gi_prime_norm": gip_norm,
        "gi_prime_argmax": gip_argmax,
    }


class TestScorer:
    def test_subnormal_point_without_warning(self):
        # The cell [0, 5e-324] has nodes that round to 0 at both ends of
        # their zeta gap: the gap is 0, with no 0/0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scorer_gi(5e-324)
            assert scorer_gi_prime(5e-324) == scorer_gi_prime(0.0)
        assert got == scorer_gi(0.0)

    def test_value_at_zero(self):
        got = scorer_gi(0.0)
        assert got == pytest.approx(GI_AT_ZERO, abs=1e-12)
        assert got == pytest.approx(airy(0.0).bi / 3.0, abs=1e-12)

    def test_vs_oracle(self):
        xs = [0.0, 0.25, 1.0, 2.5, 5.0, 10.0, 25.0, 40.0]
        for x in xs:
            assert abs(scorer_gi(x) - float(mp.scorergi(x))) <= 1e-9
        # An array goes through one pass and keeps its shape and order.
        got = scorer_gi(np.array(xs[::-1]))
        ref = np.array([float(mp.scorergi(x)) for x in xs[::-1]])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14

    def test_asymptotic_at_20(self):
        assert abs(20.0 * math.pi * scorer_gi(20.0) - 1.0) <= 1e-3

    def test_ode_residual_and_sign(self):
        # Direct substitution of the defining integrals gives
        # Gi'' - x Gi = -1/pi (note the sign; see the derivative of the
        # cross terms through the Wronskian).
        h = 1e-3
        for x in (0.5, 1.0, 2.0):
            d2 = (scorer_gi(x + h) - 2 * scorer_gi(x) + scorer_gi(x - h)) / h**2
            assert abs(abs(d2 - x * scorer_gi(x)) - 1.0 / math.pi) <= 1e-7
            assert d2 - x * scorer_gi(x) == pytest.approx(-1.0 / math.pi, abs=1e-7)

    def test_prime_vs_oracle(self):
        for x in [0.0, 1.0, 5.0, 20.0]:
            ref = float(mp.diff(mp.scorergi, x))
            assert abs(scorer_gi_prime(x) - ref) <= 1e-9

    def test_prime_asymptotic_at_20(self):
        got = scorer_gi_prime(20.0)
        ref = -1.0 / (math.pi * 400.0)
        assert abs(got - ref) <= 5e-3 * abs(ref)

    def test_prime_at_zero(self):
        # Gi'(0) = Bi'(0)/3 from the defining integrals.
        assert scorer_gi_prime(0.0) == pytest.approx(
            airy(0.0).bi_prime / 3.0, abs=1e-12
        )

    def test_norms(self):
        # The frozen constants are what the search finds, bit for bit, and
        # the oracle agrees at each maximizer.
        d = _scorer_norm_search()
        assert scorer_gi_norms() == (d["gi_norm"], d["xgi_norm"])
        assert (d["gi_norm"], d["xgi_norm"], d["gi_prime_norm"]) == (
            specfun._GI_NORM, specfun._XGI_NORM, specfun._GI_PRIME_NORM,
        )
        assert d["gi_argmax"] == pytest.approx(0.609076, abs=1e-12)
        assert d["xgi_argmax"] == pytest.approx(2.530764, abs=1e-12)
        assert d["gi_prime_argmax"] == 0.0
        gi = lambda x: float(mp.scorergi(x))
        assert d["gi_norm"] == pytest.approx(gi(d["gi_argmax"]), abs=1e-15)
        assert d["xgi_norm"] == pytest.approx(d["xgi_argmax"] * gi(d["xgi_argmax"]), abs=1e-15)
        gip0 = 1 / (mp.mpf(3) ** (mp.mpf(5) / 6) * mp.gamma(mp.mpf(1) / 3))
        assert d["gi_prime_norm"] == pytest.approx(float(gip0), abs=1e-15)
        # The sup of Gi is attained at an interior maximizer, not at 0.
        assert d["gi_norm"] >= GI_AT_ZERO
        assert d["xgi_norm"] >= 1.0 / math.pi - 1e-3

    def test_norm_search_shares_first_round(self, monkeypatch):
        def separate(values_fn, lo=0.0, hi=40.0, n=8001, rounds=2):
            # The search as three independent runs, each with its own pass
            # over the first-round grid.
            for _ in range(rounds + 1):
                xs = np.linspace(lo, hi, n)
                vals = np.abs(values_fn(xs))
                i = int(np.argmax(vals))
                x_star, v_star = float(xs[i]), float(vals[i])
                step = xs[1] - xs[0]
                lo, hi, n = max(0.0, x_star - 2 * step), x_star + 2 * step, 201
            return x_star, v_star

        points = []
        real = specfun.green_pass

        def counting(grid, *args, **kwargs):
            points.append(len(grid))
            return real(grid, *args, **kwargs)

        monkeypatch.setattr(specfun, "green_pass", counting)
        d = _scorer_norm_search()
        # One 8001-point first round, then 2 refinement rounds of 201 points
        # for each of Gi, x Gi and Gi'.
        assert sum(points) == 8001 + 3 * 2 * 201
        for key, fn in (
            ("gi", scorer_gi),
            ("xgi", lambda xs: xs * scorer_gi(xs)),
            ("gi_prime", scorer_gi_prime),
        ):
            assert (d[f"{key}_argmax"], d[f"{key}_norm"]) == separate(fn)

    def test_no_adaptive_fallback(self, monkeypatch):
        # Every cell of these Green's passes meets the quadrature tolerance
        # with its nested K15/G7 pair, from x = 1e-9 to 1e8: none is redone by
        # the adaptive integrator.
        from wright_stein.mwright import cdf

        calls = []
        real = specfun.integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(specfun, "integrate", counting)
        xs = np.geomspace(1e-9, 1e8, 3000)
        for fn in (scorer_gi, scorer_gi_prime, airy_ai_tail_integral, cdf):
            fn(xs)
        assert calls == []

    def test_evaluations_are_15_per_cell(self):
        # Without a fallback, a pass evaluates every right-hand side once at
        # the 15 Kronrod nodes of each cell.
        grid = np.linspace(0.0, 12.0, 401)
        rhs = [_ones, np.cos, np.sin]
        out = specfun.green_pass(grid, rhs, 3.0**-0.5)
        cells = specfun._cell_edges(grid, 3.0**-0.5)[0].size - 1
        assert out["evaluations"] == 15 * cells * len(rhs)

    @pytest.mark.parametrize("grid", [[1.0, 30.0], [250.0, 310.0]])
    def test_wide_gap_graded_exactly_to_the_cut(self, grid):
        # A cell over 2 * _ZETA_CUT e-folds wide (the grid cell, and for the
        # second grid the head [0, 250] too) is graded from each end in
        # ceil(_ZETA_CUT / _ZETA_STEP) equal zeta steps, and the dropped cell
        # between starts exactly _ZETA_CUT e-folds in.
        grid = np.array(grid)
        edges, dropped = specfun._cell_edges(grid, 1.0)
        z = (2.0 / 3.0) * edges * np.sqrt(edges)
        pos = np.searchsorted(edges, np.concatenate(([0.0], grid)))
        wide = np.nonzero(np.diff(z[pos]) > 2 * specfun._ZETA_CUT)[0]
        assert wide.size == np.count_nonzero(dropped) >= 1
        n = math.ceil(specfun._ZETA_CUT / specfun._ZETA_STEP)
        tol = 16 * np.finfo(float).eps * z[-1]
        for w, i in zip(wide, np.nonzero(dropped)[0]):
            lo, hi = pos[w], pos[w + 1]
            assert i - lo == hi - (i + 1) == n
            assert z[i] - z[lo] == pytest.approx(specfun._ZETA_CUT, abs=tol)
            assert z[hi] - z[i + 1] == pytest.approx(specfun._ZETA_CUT, abs=tol)
            steps = np.concatenate((np.diff(z[lo : i + 1]), np.diff(z[i + 1 : hi + 1])))
            assert np.max(np.abs(steps - specfun._ZETA_CUT / n)) <= tol

    @pytest.mark.parametrize("m", [1, 12])
    def test_scan_matches_recurrence(self, m):
        rng = np.random.default_rng(m)
        n = 2043
        c = rng.uniform(-1.0, 1.0, (m, n))
        d = rng.uniform(0.0, 1.0, n)
        d[rng.choice(n, 40, replace=False)] = 0.0
        want = np.empty((m, n))
        x = np.zeros(m)
        for i in range(n):
            x = d[i] * x + c[:, i]
            want[:, i] = x
        got = specfun._scan(c, d)
        assert got.shape == (m, n)
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
        # A zero factor restarts the recurrence exactly.
        i = int(np.nonzero(d == 0.0)[0][0])
        assert np.array_equal(got[:, i], c[:, i])

    def test_domain(self):
        with pytest.raises(DomainError):
            scorer_gi(-0.1)

    def test_empty_input(self):
        for fn in (scorer_gi, scorer_gi_prime, airy_ai_tail_integral):
            for xs in ([], np.empty((2, 0))):
                out = fn(xs)
                assert isinstance(out, np.ndarray) and out.shape == np.shape(xs)

    def test_ai_tail_integral(self):
        assert airy_ai_tail_integral(0.0) == pytest.approx(1.0 / 3.0, abs=1e-10)
        ref = float(mp.quad(lambda t: mp.airyai(t), [2.0, mp.inf]))
        assert airy_ai_tail_integral(2.0) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("x", [250.0, 300.0, 1e3, 1e4])
    def test_far_oracle(self, x):
        # Past x ~ 250 an adaptive rule on [0, x] used to miss the Bi peak
        # within ~1/sqrt(x) of x and return half of Gi.
        assert scorer_gi(x) == pytest.approx(float(mp.scorergi(x)), rel=1e-12)
        # Gi' = Ai' P + Bi' S cancels by a factor ~x^(3/2).
        ref = float(mp.diff(mp.scorergi, x))
        assert abs(scorer_gi_prime(x) - ref) <= 1e-15 * x**1.5 * abs(ref)
        # The tail integral is ~e^-zeta(x): below double range here.
        with mp.workdps(60):
            tail = float(mp.quad(mp.airyai, [x, x + 1.0 / math.sqrt(x), mp.inf]))
        assert airy_ai_tail_integral(x) == tail == 0.0

    @pytest.mark.parametrize("x", [25.0, 40.0, 100.0])
    def test_ai_tail_integral_far(self, x):
        # 1/3 - int_0^x Ai cancels ~zeta(x) / ln(10) digits.
        with mp.workdps(30 + int(x**1.5 / 3.0)):
            ref = float(mp.mpf(1) / 3 - mp.airyai(x, derivative=-1))
        assert airy_ai_tail_integral(x) == pytest.approx(ref, rel=1e-13)

    def test_range_cap(self):
        assert math.pi * 1e8 * scorer_gi(1e8) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(RangeError):
            scorer_gi(1.5e8)


class TestGreenPassTaps:
    """Points inside a pass's cells read their integrals from the cell's
    15-node interpolant (the solver's stencil probes; see test_stein)."""

    def test_partial_weights_at_the_ends(self):
        from wright_stein.numerics import _K15_W, _k15_partial_weights

        w = _k15_partial_weights(np.array([-1.0, 1.0]))
        assert w.shape == (2, 2, 15)
        assert np.all(w[0, 0] == 0.0) and np.all(w[1, 1] == 0.0)
        assert np.max(np.abs(w[0, 1] - _K15_W)) <= 1e-15
        assert np.max(np.abs(w[1, 0] - _K15_W)) <= 1e-15

    def test_partial_weights_exact_on_legendre(self):
        from numpy.polynomial import legendre

        from wright_stein.numerics import _K15_X, _k15_partial_weights

        tau = np.random.default_rng(20).uniform(-1.0, 1.0, 64)
        w = _k15_partial_weights(tau)
        for n in range(15):
            c = np.zeros(n + 1)
            c[n] = 1.0
            antider = legendre.legint(c, lbnd=-1.0)
            lower = legendre.legval(tau, antider)
            upper = legendre.legval(1.0, antider) - lower
            vals = legendre.legval(_K15_X, c)
            assert np.max(np.abs(w[0] @ vals - lower)) <= 1e-14, n
            assert np.max(np.abs(w[1] @ vals - upper)) <= 1e-14, n

    def test_distinct(self):
        empty = specfun._distinct(np.empty(0))
        assert empty.shape == (0,) and empty.dtype == float
        a = np.random.default_rng(21).integers(0, 50, 200).astype(float)
        assert np.array_equal(specfun._distinct(a), np.unique(a))

    def test_point_in_dropped_cell_joins_the_grid(self):
        # [1, 30] spans ~109 e-folds, so its middle is dropped; 18 lies
        # there and is read as a cell edge.
        grid = np.array([1.0, 30.0])
        edges, dropped = specfun._cell_edges(grid, 1.0)
        i = np.searchsorted(edges, 18.0) - 1
        assert dropped[i]
        out = specfun.green_pass(grid, [np.cos, _ones], 1.0, points=np.array([1.0, 18.0, 30.0]))
        want = specfun.green_pass(np.array([1.0, 18.0, 30.0]), [np.cos, _ones], 1.0)
        for key in ("g", "g_prime", "tail", "full_line"):
            assert np.array_equal(out[key], want[key])

    @pytest.mark.parametrize(
        "points", [[], [1.0, 0.5], [-0.5, 1.0], [1.0, 2.5], [[0.5, 1.0]], [0.5, np.nan]]
    )
    def test_points_checked(self, points):
        with pytest.raises(DomainError):
            specfun.green_pass(np.array([0.0, 1.0, 2.0]), [_ones], 1.0, points=np.array(points))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(x=st.floats(20.0, 1e4))
def test_scorer_asymptotic_series(x):
    # pi x Gi(x) = 1 + 2/x^3 + 40/x^6 + O(x^-9).
    assert abs(math.pi * x * scorer_gi(x) - (1.0 + 2.0 / x**3)) <= 50.0 / x**6 + 1e-12


class TestMittagLeffler:
    @pytest.mark.parametrize("z", [-1.0, 0.0, 1.0, -30.0, -12.5, 7.25, 30.0])
    def test_beta_one_is_exp(self, z):
        assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), abs=1e-12)

    @pytest.mark.parametrize("fn, beta, x", [
        (mittag_leffler, 1.0 / 3.0, -1.0),
        (mittag_leffler, 0.5, 2.0),
        (wright_m_series, 0.25, 1.0),
        (wright_m_series, 0, 2.0),
    ])
    def test_zero_d_array_beta(self, fn, beta, x):
        # The cached rules are keyed on the float a 0-d array holds.
        assert fn(np.array(beta), x) == fn(float(beta), x)

    @pytest.mark.parametrize("beta", [0.2, 1.0 / 3.0, 0.5, 0.9, 1.0])
    def test_at_zero(self, beta):
        assert mittag_leffler(beta, 0.0) == 1.0

    def test_one_third_at_minus_one(self):
        assert mittag_leffler(1.0 / 3.0, -1.0) == pytest.approx(
            ML_THIRD_AT_M1, abs=1e-10
        )

    def test_one_third_deep_negative(self):
        # The power series loses ~50 digits to cancellation here; the
        # spectral integrand has one sign.
        assert mittag_leffler(1.0 / 3.0, -5.0) == pytest.approx(
            ML_THIRD_AT_M5, abs=1e-10
        )

    def test_irrational_beta_vs_oracle(self):
        beta = 0.77
        ref = float(
            mp.nsum(lambda n: mp.mpf(-4.0) ** n / mp.gamma(beta * n + 1), [0, mp.inf])
        )
        assert mittag_leffler(beta, -4.0) == pytest.approx(ref, abs=1e-10)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            mittag_leffler(0.5, 31.0)
        with pytest.raises(RangeError):
            mittag_leffler(0.5, -30.5)
        with pytest.raises(RangeError):
            # Result ~ exp(20^3) overflows any double.
            mittag_leffler(1.0 / 3.0, 20.0)

    def test_domain_errors(self):
        for beta in (0.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                mittag_leffler(beta, 0.5)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, np.array([-1.0, math.nan]))

    def test_beta_floor(self):
        assert mittag_leffler(specfun.ML_BETA_MIN, -0.5) == pytest.approx(
            _ml_power_series(specfun.ML_BETA_MIN, -0.5), rel=1e-13
        )
        with pytest.raises(RangeError, match="beta >= "):
            mittag_leffler(0.99 * specfun.ML_BETA_MIN, -0.5)

    def test_monotone_decay_on_negative_axis(self):
        vals = [mittag_leffler(1.0 / 3.0, -t) for t in np.linspace(0.0, 5.0, 21)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "beta,zs",
        [
            (0.02, [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9]),
            (0.05, [-1.1, -0.7, -0.2, 0.2, 0.7, 1.1]),
            *((b, [-8.0, -5.5, -3.0, -1.0, -0.25, 0.25, 1.0, 3.0, 5.5, 8.0])
              for b in (0.77, 0.9, 0.99, 0.999)),
        ],
    )
    def test_vs_power_series(self, beta, zs):
        got = mittag_leffler(beta, np.array(zs))
        ref = np.array([_ml_power_series(beta, z) for z in zs])
        assert np.all(np.abs(got - ref) <= np.maximum(1e-10, 1e-13 * np.abs(ref)))

    @pytest.mark.parametrize("q", [7, 4, 3, 2])
    def test_vs_asymptotic_series(self, q):
        xs = np.linspace(15.0, 30.0, 13)
        got = mittag_leffler(1.0 / q, -xs)
        ref = np.array([_ml_asymptotic(q, x) for x in xs])
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("q,z", [(7, -4.5), (4, -15.5), (3, -12.0)])
    def test_former_refusals_and_cliff(self, q, z):
        # The power series refused (1/7, -4.5) and (1/4, -15.5) and ran for
        # seconds at (1/3, -12).
        assert mittag_leffler(1.0 / q, z) == pytest.approx(_ml_asymptotic(q, -z), rel=1e-14)

    def test_half_is_erfcx(self):
        zs = np.arange(-30.0, 26.25 + 1e-9, 0.75)
        ref = np.array([float(mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z))) for z in zs])
        assert np.max(np.abs(mittag_leffler(0.5, zs) - ref) / ref) <= 1e-14

    def test_shapes(self):
        assert isinstance(mittag_leffler(0.3, -2.0), float)
        assert isinstance(mittag_leffler(0.3, np.float64(0.0)), float)
        assert isinstance(mittag_leffler(1.0, -2.0), float)
        out = mittag_leffler(0.3, np.array([[-2.0, 0.0], [0.5, -30.0]]))
        assert out.shape == (2, 2)
        assert out[0, 0] == mittag_leffler(0.3, -2.0)
        assert out[0, 1] == 1.0
        assert mittag_leffler(0.3, np.array([])).shape == (0,)

    def test_blocks_are_bitwise_equal_to_single_points(self):
        beta = 1.0 / 3.0
        zs = np.concatenate((np.linspace(-30.0, 8.0, 397), [0.0, -1e-300]))
        per_point = 15 * sum(e.size for e in specfun._ml_layout(beta)[2:])
        assert zs.size > 3 * (specfun._BLOCK_NODES // per_point)
        together = mittag_leffler(beta, zs)
        alone = np.array([mittag_leffler(beta, float(z)) for z in zs])
        assert np.array_equal(together, alone)

    @pytest.mark.parametrize("beta", [specfun.ML_BETA_MIN, 0.5, 0.999, 1 - 1e-12])
    def test_no_warnings_at_extremes(self, beta):
        zmax = min(specfun.ML_Z_MAX, 0.999 * 700.0**beta)
        zs = np.array([-30.0, -1e-300, -5e-324, 5e-324, 1e-300, zmax])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mittag_leffler(beta, zs)
        assert np.all(np.isfinite(out)) and np.all(out > 0)
        assert out[1] == out[2] == out[3] == out[4] == 1.0


def test_import_leaves_out_mpmath():
    import wright_stein

    src = os.path.dirname(os.path.dirname(wright_stein.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, wright_stein; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _ml_power_series(beta, z):
    """sum z^n / Gamma(beta n + 1) in mpmath, with the digits its largest
    term cancels added to the working precision; summed until the terms
    fall below e^-92 (40 digits) and decrease."""
    b, logs = mp.mpf(beta), [0.0]
    while not (len(logs) > 5 and -92.0 > logs[-1] < logs[-2]):
        n = len(logs)
        logs.append(n * math.log(abs(z)) - float(mp.loggamma(b * n + 1)))
    with mp.workdps(40 + int(max(logs) / math.log(10.0))):
        b, zz = mp.mpf(beta), mp.mpf(z)
        return float(mp.fsum(zz**k * mp.rgamma(b * k + 1) for k in range(len(logs))))


def _ml_asymptotic(q, x):
    """E_{1/q}(-x) from sum_{k>=1} (-1)^(k+1) x^-k / Gamma(1 - k/q), summed to
    its smallest nonzero term.  1 - k/q is exact, so the pole terms vanish."""
    with mp.workdps(40):
        xx, total, smallest = mp.mpf(x), mp.mpf(0), mp.inf
        for k in range(1, 10_000):
            term = (-1) ** (k + 1) * xx ** (-k) * mp.rgamma(mp.mpf(q - k) / q)
            if term == 0:
                continue
            if abs(term) > smallest or abs(term) < mp.mpf(10) ** -40 * abs(total):
                return float(total)
            smallest = abs(term)
            total += term
    raise AssertionError("asymptotic series did not reach its smallest term")


class TestWrightMSeries:
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
    def test_beta_zero_is_exp(self, x):
        assert wright_m_series(0.0, x) == pytest.approx(math.exp(-x), abs=1e-12)

    def test_half_closed_form_at_one(self):
        assert wright_m_series(0.5, 1.0) == pytest.approx(M_HALF_AT_1, abs=1e-12)

    def test_third_matches_airy_form(self):
        ref = 3.0 ** (2.0 / 3.0) * airy(2.0 * 3.0 ** (-1.0 / 3.0)).ai
        assert wright_m_series(1.0 / 3.0, 2.0) == pytest.approx(ref, abs=1e-9)

    def test_closed_forms_on_interval(self):
        xs = np.linspace(0.0, 5.0, 26)
        for x in xs:
            got_half = wright_m_series(0.5, float(x))
            ref_half = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
            assert abs(got_half - ref_half) <= 1e-9
            got_third = wright_m_series(1.0 / 3.0, float(x))
            ref_third = 3.0 ** (2.0 / 3.0) * airy(float(x) * 3.0 ** (-1.0 / 3.0)).ai
            assert abs(got_third - ref_third) <= 1e-9

    def test_beyond_documented_cutoff_still_accurate(self):
        # The adaptive-precision fallback extends well past x = 8.
        for beta, x in [(0.5, 10.0), (1.0 / 3.0, 12.0)]:
            s = mp.mpf(0)
            for n in range(500):
                s += (-mp.mpf(x)) ** n / mp.factorial(n) * mp.rgamma(
                    1 - mp.mpf(beta) - mp.mpf(beta) * n
                )
            assert wright_m_series(beta, x) == pytest.approx(float(s), rel=1e-8)

    def test_pole_terms_dropped(self):
        # For beta = 1/2 every odd-index term hits a Gamma pole; the series
        # must reduce to even powers only, i.e. an even function of x.
        xs = np.linspace(0.1, 3.0, 8)
        for x in xs:
            direct = wright_m_series(0.5, float(x))
            # math.gamma handles the negative non-integer arguments of the
            # surviving even-index terms.
            even_only = sum(
                (-x) ** n / (math.factorial(n) * math.gamma(0.5 - 0.5 * n))
                for n in range(0, 40, 2)
            )
            # Tolerance limited by the plain-float oracle's own cancellation.
            assert direct == pytest.approx(even_only, rel=1e-10)

    def test_value_at_zero(self):
        assert wright_m_series(1.0 / 3.0, 0.0) == pytest.approx(
            1.0 / GAMMA_2_3, abs=1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            wright_m_series(1.0, 1.0)
        with pytest.raises(DomainError):
            wright_m_series(0.5, -0.5)

    def test_irrational_beta(self):
        beta = 0.613
        s = mp.mpf(0)
        for n in range(400):
            s += (-mp.mpf(4.0)) ** n / mp.factorial(n) * mp.rgamma(
                1 - mp.mpf(beta) - mp.mpf(beta) * n
            )
        assert wright_m_series(beta, 4.0) == pytest.approx(float(s), rel=1e-10)


def _m_series_mp(beta, x, digits):
    """sum (-x)^n rgamma(1 - beta - beta n) / n! in mpmath.

    The precision covers the largest term plus ``digits`` more decimal
    digits, and the sum stops only once the envelope x^n Gamma(beta(n+1)) /
    (pi n!) of |term_n|, past its peak, is 10^-digits: a pole term, which is
    exactly zero, never stops it.
    """
    lx = math.log(x)

    def env(n):  # log10 of the envelope
        return (n * lx + math.lgamma(beta * (n + 1)) - math.lgamma(n + 1)) / math.log(10)

    n, peak = 0, env(0)
    while env(n + 1) > env(n) or n < 5:
        n += 1
        peak = max(peak, env(n))
    with mp.workdps(int(max(peak, 0.0)) + digits + 15):
        b, xm = mp.mpf(beta), mp.mpf(x)
        total, fac, n = mp.mpf(0), mp.mpf(1), 0  # fac = (-x)^n / n!
        while n < 5 or env(n) > -digits or env(n) > env(n - 1):
            total += fac * mp.rgamma(1 - b - b * n)
            n += 1
            fac *= -xm / n
        return total


# M_0.613(20) = _m_series_mp(0.613, 20.0, 203), ~600 working digits: too slow
# for the suite, so frozen here.
M_0613_AT_20 = 1.0512943179435457e-178
_SMALL_X = 1e-8
_M_XS = [1e-300, 1e-12, math.nextafter(_SMALL_X, 0.0), _SMALL_X,
         math.nextafter(_SMALL_X, 1.0), 1e-4, 0.5, 5.0, 20.0]


class TestWrightMKanter:
    @pytest.mark.parametrize("beta", [0.05, 1.0 / 7.0, 0.2, 0.25, 0.613, 0.9])
    @pytest.mark.parametrize("x", _M_XS)
    def test_against_mpmath_series(self, beta, x):
        got = wright_m_series(beta, x)
        tol = 1e-12 if beta <= 0.5 else 1e-10
        if beta == 0.613 and x == 20.0:
            assert got == pytest.approx(M_0613_AT_20, rel=tol)
            return
        if beta == 0.9 and x > 1.0:
            # K is increasing on [0, pi), so M <= x^(b/(1-b)) K(0) e^(-x^(1/(1-b)) K(0)) / (1-b).
            with mp.workdps(30):
                b = mp.mpf(beta)
                k0 = (b**b * (1 - b) ** (1 - b)) ** (1 / (1 - b))
                bound = x ** (b / (1 - b)) * k0 * mp.exp(-(x ** (1 / (1 - b))) * k0) / (1 - b)
            assert bound < 1e-320
            assert got == 0.0
            return
        digits = 25 + max(0, int(-math.log10(got)))
        ref = _m_series_mp(beta, x, digits)
        assert abs(_m_series_mp(beta, x, digits + 20) - ref) <= 1e-20 * abs(ref)
        assert got == pytest.approx(float(ref), rel=tol)

    @pytest.mark.parametrize("beta", [0.45, 0.48])
    def test_documented_bound_where_it_peaks(self, beta):
        # The README's 3e-14 for beta <= 1/2: the error grows like z ulps of
        # e^-z, z = (x kappa)^(1/(1-beta)), and peaks at x = 20 near beta = 1/2
        # (2.8e-14 at 0.48, 1.7e-14 at 0.45).
        got = wright_m_series(beta, 20.0)
        ref = _m_series_mp(beta, 20.0, 25 + int(-math.log10(got)))
        assert got == pytest.approx(float(ref), rel=3e-14)

    def test_far_tail_underflows_to_zero(self):
        # Far past the series' reach (~1e13 terms); the value underflows.
        assert wright_m_series(0.9, 50.0) == 0.0
        assert wright_m_series(0.5, 1e300) == 0.0

    def test_value_at_zero(self):
        for beta in (0.05, 0.25, 0.5, 0.613, 0.9):
            ref = float(mp.rgamma(1 - mp.mpf(beta)))
            assert wright_m_series(beta, 0.0) == pytest.approx(ref, rel=1e-15)

    def test_scalar_and_array(self):
        assert isinstance(wright_m_series(0.2, 1.0), float)
        out = wright_m_series(0.2, np.array([[0.5, 1.0], [0.0, 2.0]]))
        assert out.shape == (2, 2)
        assert out[0, 1] == wright_m_series(0.2, 1.0)

    def test_blocks_are_bitwise_equal_to_single_points(self):
        beta = 1.0 / 7.0
        xs = np.concatenate(([0.0, 1e-9], np.linspace(1e-6, 30.0, 997)))
        kappa, _ = specfun._kanter_rule(beta)
        assert xs.size > 3 * (specfun._BLOCK_NODES // kappa.size)
        together = wright_m_series(beta, xs)
        alone = np.array([wright_m_series(beta, float(x)) for x in xs])
        assert np.array_equal(together, alone)

    @pytest.mark.parametrize("beta", [0.0, 0.05, 0.5, 0.95, specfun.WRIGHT_BETA_MAX])
    def test_no_warnings_at_extremes(self, beta):
        xs = np.array([0.0, 1e-300, _SMALL_X, 1.0, 1e3, 1e300, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = wright_m_series(beta, xs)
        assert np.all(np.isfinite(out)) and np.all(out >= 0)
        assert out[-1] == 0.0

    def test_domain_and_range(self):
        for x in (math.nan, math.inf, -1e-300):
            with pytest.raises(DomainError):
                wright_m_series(0.25, x)
        with pytest.raises(RangeError):
            wright_m_series(0.995, 1.0)
