import math
import warnings

import numpy as np
import pytest

import wright_stein as ws
from wright_stein.errors import DomainError, NonFiniteError, RangeError, ToleranceNotMetError
from wright_stein import numerics
from wright_stein.numerics import (
    _K15_W,
    _K15_X,
    cell_integrals,
    gamma_fn,
    integrate,
)
from wright_stein.gof import default_test_functions
from wright_stein.stein import stein_apply_sym

# Independent 30-digit references (high-precision series/Lanczos, computed
# once with mpmath and frozen):
#   Gamma(1/3) = 2.67893853470774763365569294098
#   2/sqrt(pi) = 1.12837916709551257389615890312
GAMMA_1_3_REF = 2.6789385347077476
TWO_OVER_SQRT_PI = 1.1283791670955126


class TestGamma:
    def test_gamma_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_gamma_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_gamma_third_vs_frozen_reference(self):
        assert gamma_fn(1.0 / 3.0) == pytest.approx(GAMMA_1_3_REF, rel=1e-12)

    def test_recurrence_on_grid(self):
        xs = np.linspace(0.1, 20.0, 200)
        for x in xs:
            lhs = gamma_fn(x + 1.0)
            rhs = x * gamma_fn(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)

    def test_overflow_is_range_error(self):
        # Gamma(171.6) is the largest below the double limit.
        assert math.isfinite(gamma_fn(171.6))
        with pytest.raises(RangeError):
            gamma_fn(200.0)
        with pytest.raises(RangeError):
            gamma_fn(math.inf)

    def test_relative_accuracy_sweep(self):
        # Against math.lgamma-independent identity: duplication formula
        # Gamma(2x) = Gamma(x) Gamma(x+1/2) 2^(2x-1) / sqrt(pi).
        for x in np.linspace(0.2, 24.9, 120):
            lhs = gamma_fn(2 * x)
            rhs = (
                gamma_fn(x)
                * gamma_fn(x + 0.5)
                * 2.0 ** (2 * x - 1)
                / math.sqrt(math.pi)
            )
            assert abs(lhs - rhs) <= 4e-12 * abs(lhs)


class TestIntegrate:
    def test_constant(self):
        r = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-13)

    def test_exponential_normalization(self):
        r = integrate(lambda x: np.exp(-x), 0.0, 40.0)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_first_moment_of_gaussian_family(self):
        # x e^{-x^2/4}/sqrt(pi) integrates to 2/sqrt(pi); this equals the
        # first moment identity 1/Gamma(3/2) checked in the mwright tests.
        r = integrate(
            lambda x: x * np.exp(-0.25 * x * x) / math.sqrt(math.pi), 0.0, 40.0
        )
        assert r.value == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-10)

    def test_error_estimate_postcondition(self):
        cases = [
            (lambda x: np.sin(3 * x), 0.0, 5.0, (1 - math.cos(15.0)) / 3.0),
            (lambda x: np.exp(-x) * np.cos(x), 0.0, 30.0, 0.5 * (1 + math.exp(-30) * (math.sin(30) - math.cos(30)))),
            (lambda x: 1.0 / (1.0 + x * x), -4.0, 9.0, math.atan(9.0) + math.atan(4.0)),
        ]
        for f, a, b, truth in cases:
            r = integrate(f, a, b)
            budget = numerics.TOL * max(1.0, abs(r.value))
            assert r.error_estimate <= budget
            assert abs(r.value - truth) <= 10 * budget
            assert r.evaluations > 0

    def test_additivity(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            a = rng.uniform(-3, 0)
            c = rng.uniform(0, 2)
            b = rng.uniform(2, 5)
            w = rng.uniform(0.5, 2.0)
            f = lambda x, w=w: np.exp(-0.3 * x * x) * np.cos(w * x)
            left = integrate(f, a, c)
            right = integrate(f, c, b)
            full = integrate(f, a, b)
            tol = left.error_estimate + right.error_estimate + full.error_estimate
            assert abs(left.value + right.value - full.value) <= tol + 1e-13

    def test_linearity(self):
        f = lambda x: np.exp(-x)
        g = lambda x: np.sin(x)
        alpha, beta = 2.5, -1.25
        combo = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 6.0)
        parts = alpha * integrate(f, 0.0, 6.0).value + beta * integrate(g, 0.0, 6.0).value
        assert combo.value == pytest.approx(parts, abs=1e-10)

    def test_reversed_limits_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)])
    def test_infinite_bounds_rejected(self, a, b):
        with pytest.raises(DomainError, match="finite"):
            integrate(np.cos, a, b)

    def test_empty_interval(self):
        r = integrate(lambda x: x, 2.0, 2.0)
        assert r.value == 0.0 and r.error_estimate == 0.0

    def test_tolerance_not_met_carries_best_estimate(self):
        # sign(sin(1/x)) jumps infinitely often near 0, so the fixed budget
        # of subdivisions runs out before the tolerance is met.
        with pytest.raises(ToleranceNotMetError) as exc:
            integrate(lambda x: np.sign(np.sin(1.0 / x)), 0.0, 1.0)
        best = exc.value.result
        assert best.value == pytest.approx(0.5587, abs=1e-3)
        assert best.error_estimate > numerics.TOL

    def test_nan_names_abscissa(self):
        def f(x):
            return np.where(x > 0.5, np.nan, 1.0)

        with pytest.raises(NonFiniteError) as exc:
            integrate(f, 0.0, 1.0)
        assert exc.value.x is not None and exc.value.x > 0.5
        assert str(exc.value.x) in str(exc.value)

    def test_scalar_only_integrand_supported(self):
        r = integrate(math.exp, 0.0, 1.0)
        assert r.value == pytest.approx(math.e - 1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "f, b",
        [
            (lambda x: np.full_like(x, 1e308), 1.0),
            (lambda x: np.where(x < 0.5, 1e308, -1e308), 1.0),
            # Every bisected piece fits; their sum, 2e308, does not.
            (lambda x: np.where(x < 2e8, 1e300, 0.0), 1e10),
        ],
        ids=["rule-sum", "mixed-signs", "total"],
    )
    def test_overflow_is_range_error(self, f, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="leaves double range"):
                integrate(f, 0.0, b)


class TestCellIntegrals:
    def test_matches_adaptive(self):
        edges = np.linspace(0.0, 6.0, 41)
        vals, err, _ = cell_integrals(lambda x: np.exp(-x) * np.sin(2 * x), edges)
        total = integrate(lambda x: np.exp(-x) * np.sin(2 * x), 0.0, 6.0)
        assert np.sum(vals) == pytest.approx(total.value, abs=1e-11)
        assert err < 1e-10

    def test_needs_two_edges(self):
        with pytest.raises(DomainError):
            cell_integrals(lambda x: x, np.array([1.0]))

    @pytest.mark.parametrize(
        "edges", [[0.0, np.inf], [0.0, np.nan, 1.0], [0.0, 1.0, 0.5]],
        ids=["infinite", "nan", "decreasing"],
    )
    def test_bad_edges_refused(self, edges):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite and strictly increasing"):
                cell_integrals(np.cos, np.array(edges))


def _family(t, which):
    """One integrand per interval: smooth, a jump at 1.3, fast oscillation,
    a square-root cusp at 0.7, and sign(sin(1/t)), which no budget settles."""
    w = which[:, None]
    with np.errstate(divide="ignore"):
        wild = np.sign(np.sin(1.0 / t))
    return np.select(
        [w == 0, w == 1, w == 2, w == 3],
        [np.exp(-t), (t <= 1.3) * 1.0, np.cos(40.0 * t), np.abs(t - 0.7) ** 0.5],
        wild,
    )


class TestAdaptive:
    """``numerics._adaptive`` settles many intervals in one call."""

    A = np.array([0.0, 0.0, 2.0, 0.0, 0.0])
    B = np.array([1.0, 3.0, 7.0, 2.0, 1.0])
    TRUTH = [
        1.0 - math.exp(-1.0),
        1.3,
        (math.sin(280.0) - math.sin(80.0)) / 40.0,
        (0.7**1.5 + 1.3**1.5) / 1.5,
    ]

    def run(self, ids):
        ids = np.asarray(ids)
        return numerics._adaptive(lambda t, k: _family(t, ids[k]), self.A[ids], self.B[ids])

    def test_values_within_tolerance(self):
        vals, errs, evals = self.run([0, 1, 2, 3])
        for v, e, truth in zip(vals, errs, self.TRUTH):
            budget = numerics.TOL * max(1.0, abs(v))
            assert e <= budget
            assert abs(v - truth) <= budget
        assert evals[0] == 15 and np.all(evals[1:] > 15)

    def test_each_interval_as_if_alone(self):
        # Bit for bit, in any order and company.
        together = self.run([0, 1, 2, 3])
        backwards = self.run([3, 2, 1, 0])
        for i in range(4):
            alone = self.run([i])
            for got, rev, want in zip(together, backwards, alone):
                assert got[i].tobytes() == want[0].tobytes() == rev[3 - i].tobytes()

    def test_refusal_as_if_alone(self):
        refusals = []
        for ids in ([4], [0, 4, 1], [2, 3, 4]):
            with pytest.raises(ToleranceNotMetError) as exc:
                self.run(ids)
            refusals.append((str(exc.value), exc.value.result))
        assert refusals[0] == refusals[1] == refusals[2]
        best = refusals[0][1]
        assert best.value == pytest.approx(0.5587, abs=1e-3)
        assert best.error_estimate > numerics.TOL


class TestKronrod:
    def test_exact_to_degree_22(self):
        # K15 integrates every polynomial of degree <= 3 * 7 + 1 exactly.
        for d in range(23):
            exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
            assert abs(_K15_W @ _K15_X**d - exact) <= 1e-15

    def test_gauss_nodes_are_nested(self):
        g7 = np.polynomial.legendre.leggauss(7)[0]
        assert np.all(np.abs(_K15_X[1::2] - g7) <= np.spacing(np.abs(g7)))
        assert np.all(np.diff(_K15_X) > 0)




_HS = default_test_functions(3)
_GOF_VALS = ws.sample(200, seed=1).values
# Each function with an argument form that takes the number: a scalar, or a
# list of 300 ones and then the number.  The grid cases end their grid with
# it, and the beta cases take it as beta.
_HUGE_INT_CASES = {
    "airy": (ws.airy, False),
    "airy_many": (ws.airy_many, True),
    "density": (lambda x: ws.density(1 / 3, x), True),
    "density_sym": (lambda x: ws.density_sym(1 / 3, x), True),
    "cdf": (ws.cdf, True),
    "scorer_gi": (ws.scorer_gi, True),
    "stein_apply": (lambda x: ws.stein_apply(np.cos, x), False),
    "stein_apply_sym": (lambda x: stein_apply_sym(np.cos, x), False),
    "discrepancy": (lambda x: ws.discrepancy(x, _HS), True),
    "discrepancy_sym": (lambda x: ws.discrepancy_sym(x, _HS), True),
    "mittag_leffler": (lambda z: ws.mittag_leffler(1 / 3, z), True),
    "wright_m_series": (lambda x: ws.specfun.wright_m_series(0.2, x), True),
    "density_beta": (lambda b: ws.density(b, 1.0), False),
    "density_sym_beta": (lambda b: ws.density_sym(b, 1.0), False),
    "integrate": (lambda b: integrate(np.cos, 0, b), False),
    "laplace_check": (ws.laplace_check, False),
    "general_particular_solution": (
        lambda k: ws.general_particular_solution(k, np.cos, 1.0), False
    ),
    "solve_stein_grid": (lambda x: ws.solve_stein(np.cos, [0.0, 1.0, x]), False),
    "solve_stein_sym_grid": (
        lambda x: ws.solve_stein_sym(np.cos, [-1.0, 0.0, 1.0, x]), False
    ),
    "discrepancy_grid": (lambda x: ws.discrepancy(_GOF_VALS, _HS, [0.0, 1.0, x]), False),
}


def _refusal(call, x) -> tuple:
    """The type and message of the WrightSteinError that call(x) raises."""
    with pytest.raises((DomainError, RangeError)) as exc:
        call(x)
    return type(exc.value), str(exc.value)


class TestHugeInt:
    """An int past the double range is refused as the infinity of its sign
    is: the same exception type and message, not an OverflowError."""

    @pytest.mark.parametrize("name", list(_HUGE_INT_CASES))
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_refused_like_inf(self, name, sign):
        call, listed = _HUGE_INT_CASES[name]
        huge, inf = sign * 10**400, sign * math.inf
        if listed:
            huge, inf = [1.0] * 300 + [huge], [1.0] * 300 + [inf]
        assert _refusal(call, huge) == _refusal(call, inf)

    def test_mittag_leffler_range_error(self):
        # |z| past ML_Z_MAX is a range refusal, not a domain one.
        call, _ = _HUGE_INT_CASES["mittag_leffler"]
        assert _refusal(call, 10**400)[0] is RangeError

    @pytest.mark.parametrize("name", ["airy_many", "density", "cdf", "scorer_gi"])
    def test_scalar_to_array_functions(self, name):
        call, _ = _HUGE_INT_CASES[name]
        assert _refusal(call, 10**400) == _refusal(call, math.inf)

    def test_as_floats_keeps_shape_and_values(self):
        x = numerics._as_floats([[1, 2**1024], [-(2**1024), 3]])
        assert x.dtype == float and x.shape == (2, 2)
        assert x.tolist() == [[1.0, math.inf], [-math.inf, 3.0]]
        assert numerics._as_float(-(10**400)) == -math.inf
        assert numerics._as_float(10**308) == 1e308


# Calls that take a value that is not a number where a real is expected.
_NON_NUMBER_CASES = {
    "airy": (lambda: ws.airy("a"), "'a'"),
    "airy_none": (lambda: ws.airy(None), "None"),
    "airy_many": (lambda: ws.airy_many(["a"]), "'a'"),
    "airy_many_ragged": (lambda: ws.airy_many([[1.0, 2.0], [3.0]]), "[1.0, 2.0]"),
    "density": (lambda: ws.density("a", 1), "'a'"),
    "density_x": (lambda: ws.density(1 / 3, "a"), "'a'"),
    "stein_apply": (lambda: ws.stein_apply(np.cos, "a"), "'a'"),
    "stein_apply_sym": (lambda: stein_apply_sym(np.cos, None), "None"),
    "wright_parameter": (lambda: ws.WrightParameter("a"), "'a'"),
    "mittag_leffler": (lambda: ws.mittag_leffler(None, 1), "None"),
    "mittag_leffler_z": (lambda: ws.mittag_leffler(0.5, "a"), "'a'"),
    "wright_m_series": (lambda: ws.specfun.wright_m_series(None, 1.0), "None"),
    "integrate": (lambda: integrate(np.cos, 0, "a"), "'a'"),
    "laplace_check": (lambda: ws.laplace_check(object), "<class 'object'>"),
    "solve_stein_grid": (lambda: ws.solve_stein(np.cos, [0.0, "a"]), "'a'"),
}


class TestNonNumber:
    """A value that is not a number is refused with a DomainError that
    names it, not a TypeError or a bare ValueError."""

    @pytest.mark.parametrize("name", list(_NON_NUMBER_CASES))
    def test_refused_naming_value(self, name):
        call, shown = _NON_NUMBER_CASES[name]
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"expected a real number, got {shown}"

    def test_numeric_strings_still_read(self):
        assert numerics._as_float("2.5") == 2.5
        assert numerics._as_floats(["1", 2]).tolist() == [1.0, 2.0]
