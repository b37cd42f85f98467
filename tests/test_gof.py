import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wright_stein import gof, specfun
from wright_stein.errors import DomainError, RangeError
from wright_stein.gof import (
    ACCEPT_THRESHOLD,
    REJECT_THRESHOLD,
    default_test_functions,
    discrepancy,
    discrepancy_sym,
)
from wright_stein.mwright import SampleSet, sample
from wright_stein.numerics import _vectorized, integrate
from wright_stein.stein import (
    TestFunction,
    _solve_batch,
    default_grid,
    solve_stein,
    solve_stein_sym,
)

N_MC = 20_000
SEED_H0 = 20260811


@pytest.fixture(scope="module")
def hs():
    return default_test_functions(11)


@pytest.fixture(scope="module")
def h0_halfline(hs):
    return discrepancy(sample(N_MC, seed=SEED_H0), hs)


@pytest.fixture(scope="module")
def h0_symmetric(hs):
    return discrepancy_sym(sample(N_MC, seed=SEED_H0, symmetric=True), hs)


def _within_sup_norm(h, grid) -> bool:
    """|h| stays within its declared sup norm, to rounding, on grid."""
    return bool(np.all(np.abs(_vectorized(h.fn)(grid)) <= h.sup_norm * (1 + 1e-12)))


class TestFamily:
    def test_first_is_cos(self):
        fam = default_test_functions(1)
        assert len(fam) == 1
        assert fam[0].label == "cos" and fam[0].sup_norm == 1.0

    def test_atan_is_odd(self):
        fam = default_test_functions(11)
        atan = [h for h in fam if h.label == "atan"][0]
        assert atan.even is False

    def test_bounded_on_working_grid(self):
        grid = np.linspace(0.0, 40.0, 401)
        for h in default_test_functions(16):
            assert _within_sup_norm(h, grid), h.label

    def test_bounded_on_real_line(self):
        grid = np.linspace(-40.0, 40.0, 801)
        for h in default_test_functions(16):
            assert _within_sup_norm(h, grid), h.label

    @pytest.mark.parametrize("k", [0, 17, -1, True])
    def test_k_out_of_range(self, k):
        with pytest.raises(RangeError):
            default_test_functions(k)

    def test_evenness_flags_match_functions(self):
        xs = np.linspace(0.1, 10.0, 23)
        for h in default_test_functions(16):
            mirrored = np.allclose(h.fn(-xs), h.fn(xs), rtol=0, atol=1e-15)
            assert mirrored == h.even, h.label


class TestHalfLine:
    def test_h0_consistent(self, h0_halfline):
        assert h0_halfline.verdict == "consistent"
        assert all(s.standardized <= ACCEPT_THRESHOLD for s in h0_halfline.per_function)
        assert h0_halfline.n == N_MC
        assert not h0_halfline.clipped_warning

    def test_exponential_alternative_rejected(self, hs):
        rng = np.random.default_rng(424242)
        s = SampleSet(values=rng.exponential(1.0, N_MC), seed=424242, generator="exp(1)")
        rep = discrepancy(s, hs)
        assert rep.verdict == "rejected"
        assert rep.max_standardized >= 10.0

    def test_population_separation_oracle(self, hs):
        # Quadrature against the Exp(1) density: at least one member of the
        # family separates the two laws at population level.
        best = 0.0
        for h in hs[:6]:
            sol = solve_stein(h)
            f_at, fpp_at = sol.interpolators()
            r = integrate(
                lambda x: (fpp_at(x) - x / 3.0 * f_at(x)) * np.exp(-x), 0.0, 12.0
            )
            best = max(best, abs(r.value))
        assert best > 0.01

    def test_small_sample_rejected(self, hs):
        with pytest.raises(DomainError):
            discrepancy(sample(200, seed=1).values[:50], hs)
        # A sample that is not 1-d is refused, not flattened.
        for test, symmetric in ((discrepancy, False), (discrepancy_sym, True)):
            vals = sample(20000, seed=7, symmetric=symmetric).values
            for bad in (vals.reshape(100, 200), vals[:, None], np.float64(vals[0])):
                with pytest.raises(DomainError, match="1-d"):
                    test(bad, hs)

    def test_negative_sample_rejected(self, hs):
        with pytest.raises(DomainError):
            discrepancy(np.array([0.5] * 150 + [-0.1]), hs)

    def test_reproducible_bitwise(self, hs):
        s = sample(2000, seed=99)
        a = discrepancy(s, hs[:3])
        b = discrepancy(s, hs[:3])
        assert a == b

    def test_constant_h_degenerate_stats(self):
        from wright_stein.stein import TestFunction

        const = TestFunction(
            lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0, "const"
        )
        rep = discrepancy(sample(500, seed=3), [const])
        s = rep.per_function[0]
        assert s.standardized == 0.0

    def test_clipping_is_counted(self, hs):
        vals = np.concatenate((sample(500, seed=8).values, [15.0, 14.0]))
        rep = discrepancy(vals, hs[:2])
        assert rep.clipped == 2
        assert not rep.clipped_warning
        vals2 = np.concatenate((sample(100, seed=8).values, [15.0] * 5))
        rep2 = discrepancy(vals2, hs[:2])
        assert rep2.clipped_warning

    def test_std_error_positive(self, h0_halfline):
        for s in h0_halfline.per_function:
            assert s.std_error > 0


class TestSymmetric:
    def test_h0_consistent(self, h0_symmetric):
        assert h0_symmetric.verdict == "consistent"
        assert abs(h0_symmetric.sign_balance.z_score) < 3.0

    def test_gaussian_alternative_rejected(self, hs):
        rng = np.random.default_rng(777)
        s = SampleSet(
            values=rng.normal(0.0, math.sqrt(2.0), N_MC), seed=777, generator="N(0,2)"
        )
        rep = discrepancy_sym(s, hs)
        assert rep.verdict == "rejected"
        assert rep.max_standardized > REJECT_THRESHOLD

    def test_gaussian_population_separation(self, hs):
        def gauss(x):
            return np.exp(-x * x / 4.0) / (2.0 * math.sqrt(math.pi))

        best = 0.0
        for h in hs[:2]:
            sol = solve_stein_sym(h)
            f_at, fpp_at = sol.interpolators()
            r = integrate(
                lambda x: (fpp_at(x) - np.abs(x) / 3.0 * f_at(x)) * gauss(x),
                -12.0,
                12.0,
            )
            best = max(best, abs(r.value))
        assert best > 0.01

    def test_remark_scenario_sign_balance(self, hs):
        # Half-line M_{1/3} samples: |X| has the right law, but the sign
        # balance is grossly violated, so the symmetric test must reject
        # even though the operator means stay small.
        rep = discrepancy_sym(sample(N_MC, seed=7), hs)
        assert rep.verdict == "rejected"
        assert rep.sign_balance.fraction_nonneg == 1.0
        assert abs(rep.sign_balance.z_score) > 100.0
        even_stats = [s for s, h in zip(rep.per_function, hs) if h.even]
        assert all(s.standardized < REJECT_THRESHOLD for s in even_stats)

    def test_even_h_shortcut(self, hs):
        # For even h the symmetric statistic on the samples and on their
        # sign-balanced absolute values agree: h^ is continuous and the
        # solution is even-driven.
        even_hs = [h for h in hs if h.even]
        s = sample(2000, seed=SEED_H0, symmetric=True)
        n = s.size
        balanced_abs = np.abs(s.values) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        rep_orig = discrepancy_sym(s, even_hs)
        rep_abs = discrepancy_sym(
            SampleSet(values=balanced_abs, seed=0, generator="balanced-abs"), even_hs
        )
        for a, b in zip(rep_orig.per_function, rep_abs.per_function):
            assert abs(a.mean - b.mean) <= 1e-12

    def test_at_zero_counted(self, hs):
        vals = np.concatenate((sample(300, seed=4, symmetric=True).values, [0.0, 0.0]))
        rep = discrepancy_sym(vals, hs[:2])
        assert rep.at_zero == 2

    def test_twenty_seeds_no_rejection(self, hs):
        # Under the null, across 20 seeds, the conservative threshold of 5
        # standardized units never rejects.
        rejections = 0
        for seed in range(20):
            s = sample(2000, seed=seed, symmetric=True)
            rep = discrepancy_sym(s, hs[:6])
            if rep.verdict == "rejected":
                rejections += 1
        assert rejections == 0


def _kanter_draws(beta, n, seed):
    """n draws from M_beta by Kanter's method, E^(1-beta) / kappa(pi U),
    with U, then E, from one default_rng stream."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return rng.standard_exponential(n) ** (1.0 - beta) / specfun._kanter(beta, u, np.sinc(u))


class TestDetectionLimits:
    """What the half-line test (n = 2e4, k = 11) tells apart, pinned over
    40 samples per row.  The seeds were chosen once; never re-seed them to
    get a count."""

    SEEDS = range(300_000, 300_040)
    ROWS = {
        "beta=0.40": lambda s: _kanter_draws(0.40, N_MC, s),
        "1.05Y": lambda s: 1.05 * sample(N_MC, s).values,
        # The null through the generic kappa: a check of sample's closed form.
        "beta=1/3": lambda s: _kanter_draws(1 / 3, N_MC, s),
    }

    @pytest.mark.parametrize(
        "row, counts",
        [
            ("beta=0.40", {"rejected": 40}),
            ("1.05Y", {"rejected": 38, "inconclusive": 2}),
            ("beta=1/3", {"consistent": 40}),
        ],
    )
    def test_verdict_counts(self, hs, row, counts):
        draw = self.ROWS[row]
        verdicts = [discrepancy(draw(s), hs).verdict for s in self.SEEDS]
        assert {v: verdicts.count(v) for v in set(verdicts)} == counts


@pytest.mark.parametrize(
    "symmetric, grid",
    [
        # Nothing is solved on [0, 0.375).
        pytest.param(False, 0.375 + 3 / 64 * np.arange(320), id="half-line-from-0.375"),
        # Nothing is solved below -3, although |x| <= 6 there.
        pytest.param(True, np.arange(-60, 121) * 0.05, id="symmetric-on-[-3,6]"),
    ],
)
def test_clipped_outside_solved_range(hs, symmetric, grid):
    # Samples outside [grid[0], grid[-1]] are clipped, not scored with an
    # end cell's extrapolated interpolant.
    vals = sample(5000, seed=3, symmetric=symmetric).values
    rep = (discrepancy_sym if symmetric else discrepancy)(vals, hs, grid)
    below = np.count_nonzero(vals < grid[0])
    assert below > 100
    assert rep.clipped == below + np.count_nonzero(vals > grid[-1])


class TestReportSerialization:
    def test_table_and_csv(self, h0_symmetric):
        table = h0_symmetric.to_table()
        assert "verdict: consistent" in table
        assert "sign balance" in table
        csv = h0_symmetric.to_csv()
        assert csv.splitlines()[0] == "label,mean,std_error,standardized"
        assert "# verdict=consistent" in csv
        assert "# sign_balance" in csv


class TestOnePassPerFamily:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        # Solved families are reused across calls: start each count cold.
        gof._solved.cache_clear()

    @pytest.mark.parametrize(
        "symmetric, grid",
        [
            pytest.param(False, None, id="False"),
            pytest.param(True, None, id="True"),
            # Not symmetric about 0: both sides still share one pass.
            pytest.param(True, np.arange(-60, 121) * 0.05, id="True-asymmetric-grid"),
        ],
    )
    def test_one_green_pass_per_call(self, hs, monkeypatch, symmetric, grid):
        from wright_stein import stein

        calls = []
        real = stein.green_pass

        def counting(grid, rhs_fns, *args, **kwargs):
            calls.append(len(rhs_fns))
            return real(grid, rhs_fns, *args, **kwargs)

        monkeypatch.setattr(stein, "green_pass", counting)
        test = discrepancy_sym if symmetric else discrepancy
        test(sample(200, seed=5, symmetric=symmetric), hs, grid)
        # One pass carrying every h (and every mirrored h) plus the constant.
        assert calls == [2 * len(hs) + 1 if symmetric else len(hs) + 1]

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_no_adaptive_quadrature(self, hs, monkeypatch, symmetric):
        # Every Green's integral, tail and head included, comes from the
        # one vectorized pass: no module calls the adaptive integrator.
        vals = sample(200, seed=5, symmetric=symmetric)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("wright_stein") and getattr(mod, "integrate", None) is integrate:
                monkeypatch.setattr(mod, "integrate", counting)
        (discrepancy_sym if symmetric else discrepancy)(vals, hs)
        assert calls == []


class TestSolveMemo:
    """GoF solves each (family, grid, kind) once and reuses the solution."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Green's passes made from a cold memo on, by right-hand-side count."""
        from wright_stein import stein

        gof._solved.cache_clear()
        calls = []
        real = stein.green_pass

        def counting(grid, rhs_fns, *args, **kwargs):
            calls.append(len(rhs_fns))
            return real(grid, rhs_fns, *args, **kwargs)

        monkeypatch.setattr(stein, "green_pass", counting)
        return calls

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_warm_call_makes_no_pass_and_equal_report(self, hs, passes, symmetric):
        test = discrepancy_sym if symmetric else discrepancy
        vals = sample(2000, seed=11, symmetric=symmetric)
        cold = test(vals, hs)
        assert len(passes) == 1
        warm = test(vals, hs)
        assert len(passes) == 1
        assert warm == cold
        other = test(sample(3000, seed=12, symmetric=symmetric), hs)
        assert len(passes) == 1 and other != cold

    def test_each_new_key_makes_one_pass(self, hs, passes):
        vals = sample(500, seed=13).values
        discrepancy(vals, hs)
        assert len(passes) == 1
        grid = np.linspace(0.0, 12.0, 300)
        discrepancy(vals, hs, grid)
        assert len(passes) == 2
        assert grid.flags.writeable  # the memo keeps its own copy
        discrepancy_sym(vals, hs)
        assert len(passes) == 3
        discrepancy(vals, default_test_functions(3))
        assert len(passes) == 4
        # Equal by value to hs[0], but another object: keys go by identity.
        twin = TestFunction(np.cos, 1.0, "cos", even=True)
        assert twin == hs[0] and twin is not hs[0]
        discrepancy(vals, [twin])
        assert passes == [len(hs) + 1] * 2 + [2 * len(hs) + 1, 4, 2]
        discrepancy(vals, hs, grid)
        discrepancy_sym(vals, hs)
        assert len(passes) == 5

    def test_unhashable_callable(self, hs, passes):
        class Cos:
            __hash__ = None

            def __call__(self, x):
                return np.cos(x)

        h = TestFunction(Cos(), 1.0, "cos-unhashable", even=True)
        with pytest.raises(TypeError):
            hash(h)
        vals = sample(500, seed=14).values
        a, b = discrepancy(vals, [h]), discrepancy(vals, [h])
        assert len(passes) == 1 and a == b
        ref = discrepancy(vals, hs[:1]).per_function[0]
        assert (a.per_function[0].mean, a.per_function[0].std_error) == (ref.mean, ref.std_error)

    def test_bounded(self, hs, passes):
        size = gof._solved.cache_info().maxsize
        vals = sample(200, seed=15).values
        grids = [np.linspace(0.0, 12.0, 100 + i) for i in range(size + 1)]
        for grid in grids:
            discrepancy(vals, hs[:1], grid)
        assert len(passes) == size + 1
        discrepancy(vals, hs[:1], grids[-1])
        assert len(passes) == size + 1
        discrepancy(vals, hs[:1], grids[0])  # the oldest entry was dropped
        assert len(passes) == size + 2

    def test_entries_read_only(self, hs, passes):
        grid = default_grid()
        discrepancy(sample(200, seed=16), hs)
        (side,) = gof._solved(gof._SolveKey(tuple(hs), grid, False))
        assert len(passes) == 1
        knots, q, c = side
        cells = grid.size - 1
        assert knots.shape == grid.shape
        assert q.shape == (len(hs), cells * 7) and c.shape == (len(hs), cells * 13)
        for a in side:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_refusals_not_memoized(self, hs, passes):
        vals = np.full(200, 0.7)
        for _ in range(2):
            with pytest.raises(DomainError):
                discrepancy(vals, hs, [0.0, math.nan, 1.0])
        assert gof._solved.cache_info().currsize == 0
        # A 2-d grid with the bytes of a solved 1-d grid is its own key.
        grid = np.linspace(0.0, 12.0, 400)
        discrepancy(vals, hs, grid)
        with pytest.raises(DomainError):
            discrepancy(vals, hs, grid.reshape(20, 20))
        assert len(passes) == 1

    def test_default_family_is_one_set_of_objects(self):
        a, b = default_test_functions(16), default_test_functions(16)
        assert a == b and all(x is y for x, y in zip(a, b))
        assert all(x is y for x, y in zip(default_test_functions(3), a))


@pytest.mark.parametrize("test", [discrepancy, discrepancy_sym])
def test_empty_family_refused(test):
    with pytest.raises(DomainError, match="test function"):
        test(np.full(200, 0.7), [])


@pytest.mark.parametrize("test", [discrepancy, discrepancy_sym])
def test_plain_callable_is_labelled_by_name(test):
    rep = test(np.full(200, 0.7), [np.cos])
    assert rep.per_function[0].label == "cos"
    assert math.isfinite(rep.per_function[0].mean)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("where", ["inner", "last", "alone"])
def test_nan_grid_refused(hs, symmetric, where):
    grid = {"inner": [0.0, math.nan, 1.0], "last": [0.0, 1.0, math.nan], "alone": [math.nan]}[where]
    if symmetric:
        grid = [-1.0] + grid
    test = discrepancy_sym if symmetric else discrepancy
    with pytest.raises(DomainError, match="finite"):
        test(np.full(200, 0.7), hs[:2], grid)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("test", [discrepancy, discrepancy_sym])
    def test_rejected(self, hs, test, bad):
        vals = np.concatenate((sample(300, seed=6).values, [bad]))
        with pytest.raises(DomainError, match="finite"):
            test(vals, hs[:2])


def _pointwise_stats(vals, hs, symmetric, grid):
    """(mean, std_error) of A f_h over the sample, evaluating the solution's
    interpolants at every point (the reference for the power-sum sweep).
    Points outside [grid[0], grid[-1]] count as A f_h = 0."""
    n = vals.size
    inside = (vals >= grid[0]) & (vals <= grid[-1])
    vin = vals[inside]
    out = []
    for sol in _solve_batch(hs, grid, symmetric):
        f_at, fpp_at = sol.interpolators()
        av = np.zeros(n)
        av[inside] = fpp_at(vin) - (np.abs(vin) / 3.0) * f_at(vin)
        out.append((np.mean(av), np.std(av, ddof=1) / math.sqrt(n)))
    return out


# Negative side on [-8, 0] in steps of 0.04, positive side on [0, 12] in 0.05.
ASYMMETRIC_GRID = np.concatenate((np.linspace(-8.0, 0.0, 201)[:-1], np.linspace(0.0, 12.0, 241)))
# Cells graded like sqrt(|x|), 1.5e-3 wide at 0: no uniform map finds their
# cells, so the sweep's binary-search fallback places the points.
_U = np.linspace(0.0, 1.0, 400)
GRADED_GRID = 12.0 * _U**1.5
GRADED_SYM_GRID = np.concatenate((-8.0 * _U[1:200][::-1] ** 1.5, 12.0 * _U[:301] ** 1.5))


class TestPowerSums:
    """The one-sweep statistics equal the pointwise evaluation of the same
    interpolant, and sit on the Stein identity A f_h = h - E h."""

    @pytest.mark.parametrize(
        "case",
        [
            "half-line",
            "symmetric",
            "half-line-from-0.25",
            "asymmetric",
            "asymmetric-wide",
            "exp1",
            "half-line-graded",
            "symmetric-graded",
        ],
    )
    def test_match_pointwise(self, case):
        rng = np.random.default_rng(5)
        symmetric = case in ("symmetric", "asymmetric", "asymmetric-wide", "symmetric-graded")
        grid = {
            "half-line-from-0.25": np.linspace(0.25, 12.0, 400),
            "asymmetric": ASYMMETRIC_GRID,
            "asymmetric-wide": ASYMMETRIC_GRID,
            "half-line-graded": GRADED_GRID,
            "symmetric-graded": GRADED_SYM_GRID,
        }.get(case, default_grid(symmetric))
        if case == "exp1":
            vals = rng.exponential(1.0, 5000)
        elif case == "asymmetric-wide":
            # Reaches past -8 and 12: both sides clip.
            vals = rng.normal(0.0, 4.0, 5000)
        else:
            vals = sample(5000, seed=21, symmetric=symmetric).values
        if case == "half-line-from-0.25":
            assert np.count_nonzero(vals < 0.25) > 500
        hs = default_test_functions(16)
        rep = (discrepancy_sym if symmetric else discrepancy)(vals, hs, grid)
        for s, (mean, se) in zip(rep.per_function, _pointwise_stats(vals, hs, symmetric, grid)):
            assert abs(s.mean - mean) <= 1e-12 * abs(mean), s.label
            assert abs(s.std_error - se) <= 1e-12 * se, s.label

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_alone_equals_in_family(self, symmetric):
        # Each h's row of the family's reductions depends on that row only.
        test = discrepancy_sym if symmetric else discrepancy
        vals = sample(5000, seed=22, symmetric=symmetric).values
        family = default_test_functions(16)
        together = test(vals, family).per_function
        for h, s in zip(family, together):
            (alone,) = test(vals, [h]).per_function
            assert (alone.mean, alone.std_error) == (s.mean, s.std_error), h.label

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_stein_identity(self, hs, symmetric):
        # A f_h = h - E h (E h(-Y) on x < 0) holds exactly at the nodes; in
        # between, the interpolant's f'' error is O(w^4) in the cell width w.
        # The symmetric grid's cells are twice as wide (0.06 against 0.03),
        # hence its 16 times larger error and wider bound.
        vals = sample(N_MC, seed=SEED_H0, symmetric=symmetric).values
        rep = (discrepancy_sym if symmetric else discrepancy)(vals, hs)
        sols = _solve_batch(hs, None, symmetric)
        for h, sol, s in zip(hs, sols, rep.per_function):
            e = np.where(vals >= 0, sol.expectation_h, sol.expectation_h_neg or 0.0)
            av = h.fn(vals) - e
            assert abs(s.mean - np.mean(av)) <= (1e-8 if symmetric else 1e-9), h.label
            se = np.std(av, ddof=1) / math.sqrt(vals.size)
            assert abs(s.std_error - se) <= 1e-7 * se, h.label

    def test_degenerate_variance_no_warning(self, hs):
        # The variance numerator is clamped at 0, so rounding cannot take a
        # square root of a negative number (RuntimeWarnings are errors here):
        # a constant h gives standardized 0, and a sample with one distinct
        # value (variance 0, sum of squares equal to sum^2 / n) is rejected.
        from wright_stein.stein import TestFunction

        const = TestFunction(lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0, "const")
        for test, symmetric in ((discrepancy, False), (discrepancy_sym, True)):
            rep = test(sample(500, seed=3, symmetric=symmetric), [const])
            assert rep.per_function[0].standardized == 0.0
            rep = test(np.full(200, -0.7 if symmetric else 0.7), hs)
            assert rep.verdict == "rejected"
            assert all(s.std_error >= 0.0 for s in rep.per_function)


def _whole_array_report(vals, hs, symmetric):
    """The report of the default grid's sweep as one pass of
    ``gof._power_sums`` over the whole sample: the reference for the
    blockwise sweep."""
    grid = default_grid(symmetric)
    n = vals.size
    inside = (vals >= grid[0]) & (vals <= grid[-1])
    vin = vals[inside]
    sides = (np.abs(vin[vin >= 0]), -vin[vin < 0]) if symmetric else (vin,)
    solved = gof._solved(gof._SolveKey(tuple(hs), grid, symmetric))
    totals = sumsqs = 0.0
    for (knots, q, c), t in zip(solved, sides):
        m = gof._power_sums(knots, t)
        totals = totals + (q * m[:, :7].ravel()).sum(axis=1)
        sumsqs = sumsqs + (c * m.ravel()).sum(axis=1)
    stats = []
    for h, total, sumsq in zip(hs, totals.tolist(), sumsqs.tolist()):
        mean = total / n
        se = math.sqrt(max(sumsq - total * mean, 0.0) / (n - 1) / n)
        stats.append(gof.FunctionStat(h.label, mean, se, abs(mean) / se))
    max_std = max(s.standardized for s in stats)
    balance, at_zero, z = None, 0, 0.0
    if symmetric:
        frac = float(np.count_nonzero(vals >= 0)) / n
        balance = gof.SignBalance(frac, (frac - 0.5) * 2.0 * math.sqrt(n))
        at_zero, z = int(np.count_nonzero(vals == 0.0)), abs(balance.z_score)
    if max_std > REJECT_THRESHOLD or z > gof.SIGN_Z_REJECT:
        verdict = "rejected"
    elif max_std < ACCEPT_THRESHOLD and z < gof.SIGN_Z_ACCEPT:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    clipped = n - int(np.count_nonzero(inside))
    return gof.DiscrepancyReport(
        tuple(stats), max_std, n, clipped, clipped > gof.CLIP_WARN_FRACTION * n,
        verdict, balance, at_zero,
    )


class TestSweepBlocks:
    """The sweep adds per-cell moments block by block; a sample of one
    block is summed as a whole, so its report is bitwise the whole-array
    one, and a longer sample's differs only in rounding."""

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("n", [65_535, 65_536, 65_537, 3 * 65_536 + 1])
    def test_against_whole_array(self, hs, n, symmetric):
        assert gof._SWEEP_BLOCK == 65_536
        vals = sample(n, seed=27, symmetric=symmetric).values.copy()
        # Clipped points in the first and the last block, exact zeros
        # mid-sample: in a block of their own from 3 blocks on.
        vals[[5, n - 1]] = [40.0, -40.0] if symmetric else [40.0, 40.0]
        vals[[n // 2, n // 2 + 1]] = 0.0
        rep = (discrepancy_sym if symmetric else discrepancy)(vals, hs)
        ref = _whole_array_report(vals, hs, symmetric)
        assert (rep.n, rep.clipped, rep.at_zero) == (n, 2, 2 if symmetric else 0)
        assert (rep.n, rep.clipped, rep.at_zero) == (ref.n, ref.clipped, ref.at_zero)
        assert (rep.sign_balance, rep.verdict) == (ref.sign_balance, ref.verdict)
        for s, r in zip(rep.per_function, ref.per_function):
            assert abs(s.mean - r.mean) <= 1e-12 * r.std_error, s.label
            assert abs(s.std_error - r.std_error) <= 1e-12 * r.std_error, s.label
        if n <= gof._SWEEP_BLOCK:
            assert rep == ref


def test_runtime_leaves_out_scipy():
    import wright_stein

    src = os.path.dirname(os.path.dirname(wright_stein.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, wright_stein as ws\n"
        "hs = ws.default_test_functions(3)\n"
        "ws.discrepancy(ws.sample(200, seed=1), hs)\n"
        "ws.discrepancy_sym(ws.sample(200, seed=1, symmetric=True), hs)\n"
        "ws.wright_m_series(0.25, 0.0)\n"
        "sys.exit('scipy' in sys.modules or 'numpy.ma' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
