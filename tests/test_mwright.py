import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from wright_stein.errors import DomainError, RangeError
from wright_stein.mwright import (
    SampleSet,
    WrightParameter,
    _kappa_third,
    cdf,
    density,
    density_prime_at_zero,
    density_sym,
    laplace_check,
    moment,
    sample,
)
from wright_stein.numerics import (
    GAMMA_1_3,
    GAMMA_2_3,
    GAMMA_4_3,
    cell_integrals,
    integrate,
)
from wright_stein.specfun import airy, wright_m_series

THIRD = 1.0 / 3.0


class TestDensity:
    def test_value_at_zero_third(self):
        # M_{1/3}(0) = 1/Gamma(2/3) = 0.738488111621648...
        assert density(THIRD, 0.0) == pytest.approx(1.0 / GAMMA_2_3, rel=1e-14)

    def test_value_at_zero_half(self):
        assert density(0.5, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_beta_zero_exponential(self):
        assert density(0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_routing_to_series(self):
        for x in (0.0, 0.7, 3.0):
            assert density(0.2, x) == pytest.approx(
                wright_m_series(0.2, x), rel=1e-13
            )

    def test_third_is_airy_form(self):
        for x in (0.3, 1.0, 4.0):
            ref = 3.0 ** (2.0 / 3.0) * airy(x * 3.0 ** (-1.0 / 3.0)).ai
            assert density(THIRD, x) == pytest.approx(ref, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            density(THIRD, -0.5)

    @pytest.mark.parametrize("beta", [0.0, 1 / 7, THIRD, 0.5])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_refused(self, beta, x):
        for fn in (density, density_sym):
            with pytest.raises(DomainError, match="finite"):
                fn(beta, x)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            WrightParameter(1.0)
        with pytest.raises(DomainError):
            WrightParameter(-0.1)

    def test_accepts_parameter_object(self):
        p = WrightParameter(0.5)
        assert density(p, 1.0) == density(0.5, 1.0)


class TestDensityPrimeAtZero:
    def test_formula(self):
        # -1/Gamma(1/3) = -0.373282173907395...
        assert density_prime_at_zero() == pytest.approx(-1.0 / GAMMA_1_3, rel=1e-15)

    def test_chain_rule_consistency(self):
        # d/dx 3^(2/3) Ai(x 3^(-1/3)) at 0 equals 3^(1/3) Ai'(0).
        val = 3.0 ** (2.0 / 3.0) * 3.0 ** (-1.0 / 3.0) * airy(0.0).ai_prime
        assert abs(val - density_prime_at_zero()) <= 1e-12

    def test_finite_difference(self):
        h = 1e-5
        fd = (density(THIRD, h) - density(THIRD, 0.0)) / h
        assert abs(fd - density_prime_at_zero()) <= 1e-5
        fd2 = (density(THIRD, 2 * h) - density(THIRD, 0.0)) / (2 * h)
        slope = 2 * fd - fd2  # Richardson, kills the O(h) term
        assert abs(slope - density_prime_at_zero()) <= 1e-6


class TestDensitySym:
    def test_at_zero(self):
        assert density_sym(THIRD, 0.0) == pytest.approx(
            0.5 / GAMMA_2_3, rel=1e-14
        )

    def test_half_is_gaussian_variance_two(self):
        for x in (-3.0, 0.5, 2.0):
            ref = math.exp(-x * x / 4.0) / (2.0 * math.sqrt(math.pi))
            assert density_sym(0.5, x) == pytest.approx(ref, rel=1e-13)
        # Quadrature oracle: unit mass and second moment 2.
        mass = integrate(lambda x: density_sym(0.5, x), -40.0, 40.0)
        assert mass.value == pytest.approx(1.0, abs=1e-8)
        m2 = integrate(lambda x: x * x * density_sym(0.5, x), -40.0, 40.0)
        assert m2.value == pytest.approx(2.0, abs=1e-6)

    def test_even_exactly(self):
        for x in (0.3, 1.7, 2.0, 11.0):
            assert density_sym(THIRD, x) == density_sym(THIRD, -x)

    @pytest.mark.parametrize("beta", [0.0, 1 / 7, 0.25, THIRD, 0.5])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_is_half_density_at_abs(self, beta, shape):
        x = np.linspace(-6.5, 4.0, max(math.prod(shape), 1)).reshape(shape)
        if not shape:
            x = float(x)
        got = density_sym(beta, x)
        ref = 0.5 * density(beta, np.abs(x))
        assert type(got) is type(ref) and np.shape(got) == shape
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestCdf:
    def test_at_zero(self):
        assert cdf(0.0) == 0.0

    def test_at_truncation(self):
        assert cdf(40.0) == pytest.approx(1.0, abs=1e-8)

    def test_monotone(self):
        xs = np.arange(0.0, 10.0 + 1e-12, 0.1)
        vals = np.array([cdf(float(x)) for x in xs])
        assert np.all(np.diff(vals) >= 0)

    def test_against_quadrature(self):
        for x in (0.5, 2.0, 5.0):
            ref = integrate(lambda t: density(THIRD, t), 0.0, x)
            assert cdf(x) == pytest.approx(ref.value, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            cdf(-1.0)

    def test_empty_input(self):
        for xs in ([], np.empty((0, 2))):
            assert cdf(xs).shape == np.shape(xs)

    def test_vectorized(self):
        xs = np.array([[3.0, 0.0], [0.5, 12.0]])
        vals = cdf(xs)
        assert vals.shape == xs.shape
        ref = np.array([[cdf(float(x)) for x in row] for row in xs])
        assert np.max(np.abs(vals - ref)) <= 1e-15
        assert isinstance(cdf(2.0), float)
        for bad in (np.array([1.0, -1.0]), np.array([1.0, np.nan])):
            with pytest.raises(DomainError):
                cdf(bad)


class TestNormalization:
    @pytest.mark.parametrize("beta", [0.0, THIRD, 0.5])
    def test_half_line(self, beta):
        r = integrate(lambda x: density(beta, x), 0.0, 40.0)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.0, THIRD, 0.5])
    def test_symmetric(self, beta):
        r = integrate(lambda x: density_sym(beta, x), -40.0, 40.0)
        assert r.value == pytest.approx(1.0, abs=1e-8)


class TestOdeResiduals:
    def test_q3_second_order(self):
        # M_{1/3}'' = (1/3) x M_{1/3}; five-point FD second derivative.
        xs = np.linspace(0.05, 8.0, 100)
        h = 2e-3
        stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        cols = [density(THIRD, xs + s * h) for s in (-2, -1, 0, 1, 2)]
        d2 = sum(c * col for c, col in zip(stencil, cols)) / h**2
        assert np.max(np.abs(d2 - xs / 3.0 * cols[2])) <= 1e-6

    def test_q2_first_order(self):
        # M_{1/2}' + (1/2) x M_{1/2} = 0; seven-point FD first derivative.
        xs = np.linspace(0.15, 8.0, 90)
        h = 0.02
        weights = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        shifts = np.array([-3, -2, -1, 0, 1, 2, 3])
        cols = [density(0.5, xs + s * h) for s in shifts]
        d1 = sum(w * col for w, col in zip(weights, cols)) / h
        assert np.max(np.abs(d1 + 0.5 * xs * cols[3])) <= 1e-8


class TestSampler:
    def test_mean_half_line(self):
        s = sample(100_000, seed=321)
        se = s.values.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.values.mean() - 1.0 / GAMMA_4_3) <= 4 * se
        assert np.all(s.values >= 0)
        assert s.generator == "mwright-1/3"

    def test_mean_symmetric(self):
        s = sample(100_000, seed=321, symmetric=True)
        se = s.values.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.values.mean()) <= 4 * se
        assert s.generator == "mwright-sym-1/3"

    def test_single_draw_deterministic(self):
        a = sample(1, seed=99)
        b = sample(1, seed=99)
        assert a.values[0] == b.values[0]
        assert a.values[0] >= 0

    def test_determinism_full(self):
        a = sample(1000, seed=5, symmetric=True)
        b = sample(1000, seed=5, symmetric=True)
        assert np.array_equal(a.values, b.values)

    def test_kolmogorov_smirnov(self):
        # KS distance of 1e5 draws against the CDF; 1.95/sqrt(n) is the
        # 99.9% critical value.  Forward CDF via a dense monotone table.
        n = 100_000
        s = sample(n, seed=2024)
        xs = np.linspace(0.0, 40.0, 4001)
        cells, _, _ = cell_integrals(lambda t: density(THIRD, t), xs)
        cum = np.concatenate(([0.0], np.cumsum(cells)))
        fwd = PchipInterpolator(xs, np.minimum(cum, 1.0))
        u = np.sort(fwd(np.sort(s.values)))
        i = np.arange(1, n + 1)
        ks = max(np.max(u - (i - 1) / n), np.max(i / n - u))
        assert ks <= 1.95 / math.sqrt(n)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            sample(0, seed=1)
        with pytest.raises(DomainError):
            sample(True, seed=1)
        # Sizes no array can have: a DomainError, not numpy's ValueError.
        for n in (np.iinfo(np.intp).max + 1, 10**400):
            with pytest.raises(DomainError, match="the largest array"):
                sample(n, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True])
    def test_invalid_seed(self, seed):
        with pytest.raises(DomainError):
            sample(5, seed=seed)

    def test_draw_order(self):
        # Uniforms, then exponentials, then signs, from one stream.
        rng = np.random.default_rng(77)
        u = rng.random(500)
        e = rng.standard_exponential(500)
        signs = np.where(rng.random(500) < 0.5, -1.0, 1.0)
        kappa = _kappa_third(u)
        assert np.array_equal(sample(500, seed=77).values, e ** (2.0 / 3.0) / kappa)
        assert np.array_equal(
            sample(500, seed=77, symmetric=True).values, signs * e ** (2.0 / 3.0) / kappa
        )

    def test_kappa_against_mpmath(self):
        # Kanter's kappa(pi u) at beta = 1/3 to 50 digits, up to the last
        # uniform below 1, where the sinc form was off by 0.38.
        u = np.concatenate(
            ([0.0, 0.5, 1.0 - 2.0**-30, 1.0 - 2.0**-53], np.random.default_rng(8).random(200))
        )
        got = _kappa_third(u)
        with mp.workdps(50):
            for ui, k in zip(u, got):
                phi = mp.pi * mp.mpf(float(ui))
                if ui == 0.0:
                    ref = mp.cbrt(4) / 3
                else:
                    ref = (mp.sin(phi / 3) ** (mp.mpf(1) / 3)
                           * mp.sin(2 * phi / 3) ** (mp.mpf(2) / 3) / mp.sin(phi))
                assert abs(k - ref) <= 1e-15 * ref, ui

    def test_uniform_zero_gives_finite_draw(self, monkeypatch):
        class Edge:
            def __init__(self, seed):
                pass

            def random(self, n):
                return np.zeros(n)

            def standard_exponential(self, n):
                return np.ones(n)

        monkeypatch.setattr(np.random, "default_rng", Edge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = sample(3, seed=0, symmetric=True).values
        # kappa(0) = (1/3)^(1/3) (2/3)^(2/3) = 2^(2/3) / 3.
        assert np.allclose(vals, -3.0 / 2.0 ** (2.0 / 3.0), rtol=1e-15, atol=0.0)

    def test_moments(self):
        # Higher moments weigh the far tail, which exact draws keep.
        s = sample(200_000, seed=4321).values
        for n in (1, 2, 4):
            m = np.mean(s**n)
            se = np.std(s**n, ddof=1) / math.sqrt(s.size)
            assert abs(m - moment(n)) <= 4 * se

    def test_csv_roundtrip(self):
        s = sample(10, seed=7)
        text = s.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "# generator=mwright-1/3 seed=7 n=10"
        parsed = np.array([float(v) for v in lines[1:]])
        assert np.array_equal(parsed, s.values)
        assert lines[1:] == [f"{v:.17g}" for v in s.values]

    def test_sampleset_immutable(self):
        s = sample(5, seed=1)
        with pytest.raises(ValueError):
            s.values[0] = 3.0

    def test_sampleset_copies_the_callers_array(self):
        g = np.linspace(0.0, 1.0, 5)
        s = SampleSet(values=g, seed=0, generator="x")
        assert g.flags.writeable
        g[0] = 3.0
        assert s.values[0] == 0.0 and not s.values.flags.writeable

    def test_sampleset_size_is_not_an_argument(self):
        # A size argument used to be accepted and then overwritten.
        with pytest.raises(TypeError, match="size"):
            SampleSet(np.ones(3), 1, "x", size=99)
        assert SampleSet(np.ones(3), 1, "x").size == 3

    @pytest.mark.parametrize("shape", [(), (2, 3), (2, 300)])
    def test_sampleset_refuses_values_not_1d(self, shape):
        # Such values used to report size 6 or 600 and then fail in to_csv.
        with pytest.raises(DomainError, match="1-d"):
            SampleSet(values=np.ones(shape), seed=0, generator="x")


class TestMoment:
    def test_zeroth(self):
        assert moment(0) == 1.0

    def test_first(self):
        assert moment(1) == pytest.approx(1.0 / GAMMA_4_3, rel=1e-14)

    def test_third(self):
        assert moment(3) == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 12])
    def test_against_quadrature(self, n):
        r = integrate(lambda x: x**n * density(THIRD, x), 0.0, 40.0)
        assert abs(moment(n) - r.value) <= 1e-6 * abs(r.value)

    def test_range_error(self):
        with pytest.raises(RangeError):
            moment(13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            moment(-1)
        with pytest.raises(DomainError):
            moment(True)


class TestLaplace:
    def test_at_zero(self):
        a, b = laplace_check(0.0)
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == 1.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_identity(self, t):
        a, b = laplace_check(t)
        assert abs(a - b) <= 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_check(6.0)
        with pytest.raises(DomainError):
            laplace_check(-0.1)
