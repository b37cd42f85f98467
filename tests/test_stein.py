import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from wright_stein import specfun
from wright_stein import stein as stein_mod
from wright_stein.errors import DomainError, NonFiniteError, SolverAccuracyError
from wright_stein.mwright import density, density_sym
from wright_stein.numerics import GAMMA_1_3, GAMMA_2_3, integrate
from wright_stein.specfun import airy_many, scorer_gi
from wright_stein.stein import (
    TestFunction,
    _hermite,
    check_domain,
    expectation_mwright,
    general_particular_solution,
    solve_stein,
    solve_stein_sym,
    stein_apply,
    stein_apply_sym,
    verify_bounds,
)

THIRD = 1.0 / 3.0

H_COS = TestFunction(np.cos, 1.0, "cos", even=True)
H_SIN = TestFunction(np.sin, 1.0, "sin", even=False)
H_EXP = TestFunction(lambda x: np.exp(-np.abs(x)), 1.0, "exp1", even=True)
H_INVQ = TestFunction(lambda x: 1.0 / (1.0 + x * x), 1.0, "invquad", even=True)
H_ATAN = TestFunction(np.arctan, math.pi / 2, "atan", even=False)
H_CONST = TestFunction(
    lambda x: 5.0 * np.ones_like(np.asarray(x, dtype=float)), 5.0, "const5", even=True
)

HALF_FAMILY = [H_COS, H_SIN, H_EXP, H_INVQ]


def count_settled(monkeypatch):
    """Count the integrals Green's passes hand to the adaptive routine:
    ``cells`` have both ends on the pass's cell edges, and ``taps`` (two
    per tap) end at a point inside a cell."""
    counts = {"cells": 0, "taps": 0}
    real_edges, real_adaptive = specfun._cell_edges, specfun._adaptive
    last = []

    def cell_edges(grid, scale):
        out = real_edges(grid, scale)
        last[:] = [out[0]]
        return out

    def adaptive(f, a, b):
        on_edges = np.isin(a, last[0]) & np.isin(b, last[0])
        counts["cells"] += int(np.count_nonzero(on_edges))
        counts["taps"] += int(np.count_nonzero(~on_edges))
        return real_adaptive(f, a, b)

    monkeypatch.setattr(specfun, "_cell_edges", cell_edges)
    monkeypatch.setattr(specfun, "_adaptive", adaptive)
    return counts


@pytest.fixture(scope="module")
def sol_cos():
    return solve_stein(H_COS)


@pytest.fixture(scope="module")
def family_solutions():
    return {h.label: solve_stein(h) for h in HALF_FAMILY}


@pytest.fixture(scope="module")
def sol_atan_sym():
    return solve_stein_sym(H_ATAN)


class TestSteinApply:
    def test_constant_function(self):
        one = lambda x: 1.0
        d2 = lambda x: 0.0
        assert stein_apply(one, 0.0, d2) == 0.0
        assert stein_apply(one, 3.0, d2) == pytest.approx(-1.0, rel=1e-15)

    def test_constant_function_fd(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert stein_apply(one, 3.0) == pytest.approx(-1.0, abs=1e-9)

    def test_annihilates_the_density(self):
        # M_{1/3} solves the homogeneous equation; finite-difference f''.
        for x in np.linspace(0.0, 8.0, 17):
            val = stein_apply(lambda t: density(THIRD, t), float(x))
            assert abs(val) <= 1e-6

    def test_hand_derived_example(self):
        # f = x e^{-x}: f'' = (x - 2) e^{-x}, so (A f)(1) = -(4/3) e^{-1}.
        f = lambda x: x * np.exp(-x)
        got = stein_apply(f, 1.0)
        assert got == pytest.approx(-(4.0 / 3.0) * math.exp(-1.0), abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            stein_apply(lambda x: x, -0.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_refused(self, x):
        with pytest.raises(DomainError, match="finite"):
            stein_apply(np.cos, x)


@pytest.mark.parametrize("apply", [stein_apply, stein_apply_sym])
@pytest.mark.parametrize(
    "f, d2",
    [
        (np.cos, lambda x: math.nan),
        (np.cos, lambda x: -math.inf),
        (lambda x: math.nan, lambda x: 0.0),
        (lambda x: np.full_like(np.asarray(x, dtype=float), math.nan), None),
    ],
    ids=["nan-d2", "inf-d2", "nan-f", "nan-f-fd"],
)
def test_non_finite_f_or_second_derivative_refused(apply, f, d2):
    # A non-finite value from the caller's f or f'' is refused, naming x,
    # with no warning on the way (tier-1 turns warnings into errors).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="x=1.5") as exc:
            apply(f, 1.5, d2)
    assert exc.value.x == 1.5


class TestSteinApplySym:
    def test_zero_function(self):
        z = lambda x: 0.0
        assert stein_apply_sym(z, 1.3, lambda x: 0.0) == 0.0

    def test_annihilates_symmetrized_density(self):
        for x in (-2.0, 2.0):
            val = stein_apply_sym(lambda t: density_sym(THIRD, t), x)
            assert abs(val) <= 1e-6

    def test_even_symmetry(self):
        f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
        assert stein_apply_sym(f, 1.5) == pytest.approx(
            stein_apply_sym(f, -1.5), abs=1e-10
        )

    def test_nan_refused(self):
        with pytest.raises(DomainError, match="finite"):
            stein_apply_sym(np.cos, math.nan)


class TestExpectation:
    def test_constant(self):
        h = TestFunction(lambda x: 3.0 * np.ones_like(np.asarray(x, float)), 3.0, "c")
        assert expectation_mwright(h) == pytest.approx(3.0, abs=1e-9)

    def test_exponential_is_mittag_leffler(self):
        from wright_stein.specfun import mittag_leffler

        got = expectation_mwright(lambda x: np.exp(-x))
        assert abs(got - mittag_leffler(THIRD, -1.0)) <= 1e-6

    def test_identity_function_gives_first_moment(self):
        from wright_stein.mwright import moment

        got = expectation_mwright(lambda x: x)
        assert got == pytest.approx(moment(1), abs=1e-9)

    def test_negate(self):
        got = expectation_mwright(np.arctan, negate=True)
        ref = expectation_mwright(np.arctan)
        assert got == pytest.approx(-ref, abs=1e-9)


class TestHalfLineSolver:
    def test_constant_h_gives_zero(self):
        sol = solve_stein(H_CONST)
        assert np.max(np.abs(sol.f)) <= 1e-12
        assert np.max(np.abs(sol.f_prime)) <= 1e-12

    def test_boundary_identity(self):
        sol = solve_stein(H_EXP)
        assert abs(sol.boundary_residual) <= 1e-8
        assert abs(sol.f[0]) <= 1e-10 and abs(sol.f_prime[0]) <= 1e-10

    def test_residual_and_necessity_for_cos(self, sol_cos):
        assert sol_cos.residual_sup <= 1e-6
        f_at, fpp_at = sol_cos.interpolators()
        r = integrate(
            lambda x: (fpp_at(x) - x / 3.0 * f_at(x)) * density(THIRD, x), 0.0, 12.0
        )
        assert abs(r.value) <= 2e-6

    def test_expectation_against_quadrature(self, sol_cos):
        ref = integrate(lambda x: np.cos(x) * density(THIRD, x), 0.0, 40.0)
        assert sol_cos.expectation_h == pytest.approx(ref.value, abs=1e-9)

    def test_all_family_residuals(self, family_solutions):
        # The default grid, and a grid starting above 0, where f(0) and
        # f'(0) come from the pass's extra point x = 0.
        above = 0.375 + 3 / 64 * np.arange(320)
        sols = list(family_solutions.values()) + [solve_stein(h, above) for h in HALF_FAMILY]
        for sol in sols:
            assert sol.residual_sup <= 1e-6
            assert abs(sol.boundary_residual) <= 1e-8

    def test_necessity_across_family(self, family_solutions):
        for label, sol in family_solutions.items():
            f_at, fpp_at = sol.interpolators()
            r = integrate(
                lambda x: (fpp_at(x) - x / 3.0 * f_at(x)) * density(THIRD, x),
                0.0,
                12.0,
            )
            assert abs(r.value) <= 2e-6, label

    def test_linearity(self):
        a, b = 2.0, -0.75
        combo = TestFunction(
            lambda x: a * np.cos(x) + b * np.sin(x), abs(a) + abs(b), "combo"
        )
        sc = solve_stein(combo)
        s1 = solve_stein(H_COS)
        s2 = solve_stein(H_SIN)
        assert np.max(np.abs(sc.f - (a * s1.f + b * s2.f))) <= 1e-9

    def test_solution_kind_and_fields(self, sol_cos):
        assert sol_cos.kind == "half-line"
        assert sol_cos.expectation_h_neg is None
        assert sol_cos.residuals.shape == sol_cos.grid.shape

    def test_fpp_consistent_with_ode(self, sol_cos):
        htilde = np.cos(sol_cos.grid) - sol_cos.expectation_h
        rhs = sol_cos.grid / 3.0 * sol_cos.f + htilde
        assert np.max(np.abs(sol_cos.f_double_prime - rhs)) <= 1e-13

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            solve_stein(H_COS, np.array([]))
        with pytest.raises(DomainError):
            solve_stein(H_COS, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            solve_stein(H_COS, np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            solve_stein(H_COS, np.array([0.0, 25.0]))

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [math.nan]])
    def test_nan_grid_refused(self, grid):
        with pytest.raises(DomainError, match="finite"):
            solve_stein(H_COS, grid)

    def test_residual_tolerance_enforced(self, monkeypatch):
        monkeypatch.setattr(stein_mod, "RESIDUAL_TOL", 1e-12)
        with pytest.raises(SolverAccuracyError) as exc:
            solve_stein(H_COS)
        assert "residual_sup" in exc.value.diagnostics

    def test_nan_residual_refused(self, monkeypatch):
        # NaN fails every comparison: a check that refused only residuals
        # above the tolerance let it through.
        monkeypatch.setattr(stein_mod, "_C5_COEF", np.full(5, math.nan))
        with pytest.raises(SolverAccuracyError) as exc:
            solve_stein(H_COS)
        assert math.isnan(exc.value.diagnostics["residual_sup"])

    def test_non_finite_h_at_a_node_refused(self):
        # h is NaN at one grid point and finite at every quadrature node, so
        # the Green's pass is finite and f'' = (x/3) f + h - E[h] is not.
        x_bad = float(stein_mod.default_grid()[50])

        def h(x):
            x = np.asarray(x, dtype=float)
            return np.where(x == x_bad, math.nan, np.cos(x))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                solve_stein(h)
        assert str(exc.value).startswith(f"non-finite f_double_prime at x={x_bad!r} ")
        assert exc.value.x == x_bad

    def test_plain_callable_accepted(self):
        sol = solve_stein(np.cos, grid=np.linspace(0.0, 6.0, 100))
        assert sol.residual_sup <= 1e-6

    def test_csv_headers(self, sol_cos):
        text = sol_cos.to_csv()
        assert "# kind=half-line" in text
        assert "# boundary_residual=" in text
        assert "x,f,f_prime,f_double_prime,residual" in text


@pytest.mark.parametrize("symmetric, size", [(False, 400), (True, 401), (np.True_, 401)])
def test_default_grid_sizes(symmetric, size):
    grid = stein_mod.default_grid(symmetric)
    assert grid.size == size and grid[-1] == 12.0 and grid[0] == (-12.0 if symmetric else 0.0)


@pytest.mark.parametrize("symmetric", ["x", 2, None, 1.0, np.array([True])])
def test_default_grid_refuses_a_non_bool(symmetric):
    # Truth alone would give "x" and 2 the symmetric grid and None the half line.
    with pytest.raises(DomainError, match="must be a bool"):
        stein_mod.default_grid(symmetric)


@pytest.mark.parametrize(
    "solve, grid",
    [(solve_stein, np.linspace(0.0, 12.0, 300)), (solve_stein_sym, np.linspace(-6.0, 12.0, 301))],
)
def test_caller_grid_stays_writeable(solve, grid):
    sol = solve(np.cos, grid)
    assert grid.flags.writeable and not sol.grid.flags.writeable
    grid[1] = 0.5
    assert sol.grid[1] != 0.5


class TestBoundaryFluxIdentity:
    # For smooth bounded f with f(0) = 0 but f'(0) != 0 (outside the
    # half-line domain space), integration by parts gives
    # int (f'' - x f / 3) M dx = -f'(0) M(0).
    CASES = [
        (
            "exp_sin",
            lambda x: np.exp(-x) * np.sin(x),
            lambda x: -2.0 * np.exp(-x) * np.cos(x),
            1.0,
        ),
        (
            "x_gauss",
            lambda x: x * np.exp(-(x**2)),
            lambda x: (4.0 * x**3 - 6.0 * x) * np.exp(-(x**2)),
            1.0,
        ),
        (
            "exp_sin2",
            lambda x: np.exp(-x) * np.sin(2.0 * x),
            lambda x: np.exp(-x) * (-3.0 * np.sin(2.0 * x) - 4.0 * np.cos(2.0 * x)),
            2.0,
        ),
    ]

    @pytest.mark.parametrize("label,f,fpp,fp0", CASES)
    def test_flux(self, label, f, fpp, fp0):
        r = integrate(
            lambda x: (fpp(x) - x / 3.0 * f(x)) * density(THIRD, x), 0.0, 40.0
        )
        assert abs(r.value + fp0 * density(THIRD, 0.0)) <= 2e-6

    @pytest.mark.parametrize("label,f,fpp,fp0", CASES)
    def test_cases_lie_outside_domain(self, label, f, fpp, fp0):
        b = fp0 / GAMMA_2_3 - f(0.0) / GAMMA_1_3
        assert abs(b) > 1e-3


class TestSymmetricSolver:
    def test_constant_gives_zero(self):
        sol = solve_stein_sym(H_CONST)
        assert np.max(np.abs(sol.f)) <= 1e-12

    def test_matching_conditions_atan(self, sol_atan_sym):
        sol = sol_atan_sym
        assert abs(sol.f_zero) <= 1e-10
        assert abs(sol.fp_zero_plus) <= 1e-8
        assert abs(sol.fp_zero_minus) <= 1e-8
        assert abs(sol.fp_zero_plus - sol.fp_zero_minus) <= 1e-8
        e_plus = integrate(lambda x: np.arctan(x) * density(THIRD, x), 0.0, 40.0)
        e_minus = -e_plus.value
        assert abs(sol.fpp_zero_plus - (0.0 - e_plus.value)) <= 1e-6
        assert abs(sol.fpp_zero_minus - (0.0 - e_minus)) <= 1e-6
        jump = sol.fpp_zero_plus - sol.fpp_zero_minus
        assert abs(jump + 2.0 * e_plus.value) <= 1e-6

    def test_even_h_continuous_second_derivative(self):
        sol = solve_stein_sym(H_COS)
        assert sol.expectation_h == sol.expectation_h_neg
        assert abs(sol.fpp_zero_plus - sol.fpp_zero_minus) <= 1e-12
        neg = sol.grid < 0
        pos = sol.grid > 0
        assert np.array_equal(sol.f[neg][::-1], sol.f[pos])
        assert np.array_equal(sol.f_double_prime[neg][::-1], sol.f_double_prime[pos])

    def test_symmetric_necessity(self, sol_atan_sym):
        f_at, fpp_at = sol_atan_sym.interpolators()
        r = integrate(
            lambda x: (fpp_at(x) - np.abs(x) / 3.0 * f_at(x)) * density_sym(THIRD, x),
            -12.0,
            12.0,
        )
        assert abs(r.value) <= 2e-6

    def test_residual(self, sol_atan_sym):
        assert sol_atan_sym.residual_sup <= 1e-6

    def test_interpolants_evaluate_each_side_alone(self, sol_atan_sym):
        # Reference: both branches over every point, then a select.
        pos, neg = sol_atan_sym._pieces
        f_at, fpp_at = sol_atan_sym.interpolators()
        rng = np.random.default_rng(11)
        xs = np.concatenate((rng.uniform(-12.0, 12.0, 999), [-0.0, 0.0, -12.0]))
        for got, nu in ((f_at, 0), (fpp_at, 2)):
            want = np.where(xs >= 0, pos(np.abs(xs), nu), neg(np.abs(xs), nu))
            assert np.array_equal(got(xs), want)
            assert np.array_equal(got(xs.reshape(3, 334)), want.reshape(3, 334))
            # -0.0 takes the positive branch, whose f'' at 0 is the 0+ limit.
            assert got(-0.0) == pos(0.0, nu) and got(-0.0).shape == ()

    def test_grid_requirements(self):
        with pytest.raises(DomainError):
            solve_stein_sym(H_COS, np.linspace(0.0, 12.0, 50))
        with pytest.raises(DomainError):
            solve_stein_sym(H_COS, np.linspace(-12.0, -1.0, 50))
        with pytest.raises(DomainError):
            solve_stein_sym(H_COS, np.array([-1.0, 0.5, 1.0]))  # no zero

    @pytest.mark.parametrize(
        "grid", [[-1.0, 0.0, math.nan, 1.0], [-1.0, math.nan, 0.0, 1.0], [-1.0, 0.0, 1.0, math.nan]]
    )
    def test_nan_grid_refused(self, grid):
        with pytest.raises(DomainError, match="finite"):
            solve_stein_sym(H_COS, grid)

    def test_csv_reports_jump(self, sol_atan_sym):
        text = sol_atan_sym.to_csv()
        assert "# fpp_jump=" in text
        assert "# expectation_h_neg=" in text


class TestLocate:
    """_locate finds each point's cell by arithmetic, with the cells and
    coordinates of the binary-search rule, bit for bit."""

    GRIDS = {
        "half-line": stein_mod.default_grid(),
        # Knots of the symmetric default grid's sides: x >= 0, and |x| of
        # x < 0 with the mirror side's own 0.
        "symmetric-pos": stein_mod.default_grid(True)[200:],
        "symmetric-mirror": np.abs(stein_mod.default_grid(True)[:201][::-1]),
        "geomspace": np.geomspace(1e-3, 12.0, 300),
        "two-point": np.array([0.5, 2.0]),
    }

    @staticmethod
    def searched(knots, t):
        b = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 2)
        return b, (t - knots[b]) / (knots[b + 1] - knots[b])

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_matches_binary_search(self, name, monkeypatch):
        knots = self.GRIDS[name]
        rng = np.random.default_rng(4)
        span = knots[-1] - knots[0]
        t = np.concatenate((
            knots,
            np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf),
            rng.uniform(knots[0] - span / 4, knots[-1] + span / 4, 20_000),
            [-np.inf, np.inf, np.nan, -1e300, 1e300, -0.0, 0.0],
        ))
        want_b, want_s = self.searched(knots, t)
        searched = []
        real = np.searchsorted

        def counting(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return real(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        b, s = stein_mod._locate(knots, t)
        assert b.dtype == np.intp and np.array_equal(b, want_b)
        assert np.array_equal(s, want_s, equal_nan=True)
        assert b[np.isnan(t)] == knots.size - 2
        # Uniform grids need no binary search; the geometric one falls back.
        assert (sum(searched) > 0) == (name == "geomspace")

    def test_keeps_shape(self):
        knots = self.GRIDS["half-line"]
        t = np.random.default_rng(5).uniform(-1.0, 13.0, (4, 5))
        b, s = stein_mod._locate(knots, t)
        want_b, want_s = self.searched(knots, t)
        assert np.array_equal(b, want_b) and np.array_equal(s, want_s)
        b, s = stein_mod._locate(knots, np.float64(3.3))
        assert b.shape == s.shape == ()
        assert (b, s) == self.searched(knots, np.float64(3.3))


@pytest.mark.parametrize("symmetric", [False, True])
def test_interpolants_refuse_points_off_the_grid(symmetric):
    sol = (solve_stein_sym if symmetric else solve_stein)(np.cos)
    span = "[-12, 12]" if symmetric else "[0, 12]"
    outside = [13.0, -13.0] if symmetric else [50.0, -5.0]
    f_at, fpp_at = sol.interpolators()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for interp in (f_at, fpp_at):
            for x, shown in [(v, repr(v)) for v in outside] + [
                    (math.inf, "inf"), (10**400, "inf"), (math.nan, "nan"),
                    (np.array([1.0, math.nan, 50.0]), "nan")]:
                with pytest.raises(DomainError) as e:
                    interp(x)
                assert str(e.value) == f"the solution is interpolated on {span}, got x = {shown}"
            with pytest.raises(DomainError, match="expected a real number, got 'a'"):
                interp("a")
            # The grid's ends are inside.
            assert np.all(np.isfinite(interp(sol.grid[[0, -1]])))


class TestHermiteInterpolant:
    """The per-cell quintic Hermite interpolant behind interpolators() and GoF."""

    @staticmethod
    def ends(piece):
        """(p, p'/w, p''/w^2) at both ends of every cell, from the coefficients."""
        w = np.diff(piece.knots)
        k = np.arange(6)
        at0 = (piece.p[:, 0], piece.p[:, 1] / w, piece.d[:, 0])
        at1 = (piece.p.sum(axis=1), piece.p @ k / w, piece.d.sum(axis=1))
        return at0, at1

    @pytest.mark.parametrize("kind", ["half-line", "symmetric"])
    def test_reproduces_nodes(self, kind, sol_cos, sol_atan_sym):
        sol = sol_cos if kind == "half-line" else sol_atan_sym
        if kind == "half-line":
            sides = [(sol.f, sol.f_prime, sol.f_double_prime)]
        else:
            pos, neg = sol.grid >= 0, sol.grid < 0
            # The x < 0 branch's own f(0): the half-line solve of atan(-t)
            # on t = -x, which the symmetric solve reproduces bitwise.
            t = np.concatenate(([0.0], -sol.grid[neg][::-1]))
            f0_minus = solve_stein(lambda s: np.arctan(-np.asarray(s)), t).f[0]
            sides = [
                (sol.f[pos], sol.f_prime[pos], sol.f_double_prime[pos]),
                (
                    np.concatenate(([f0_minus], sol.f[neg][::-1])),
                    np.concatenate(([-sol.fp_zero_minus], -sol.f_prime[neg][::-1])),
                    np.concatenate(([sol.fpp_zero_minus], sol.f_double_prime[neg][::-1])),
                ),
            ]
        for piece, data in zip(sol._pieces, sides):
            at0, at1 = self.ends(piece)
            for got0, got1, want in zip(at0, at1, data):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got0 - want[:-1])) <= 1e-12 * scale
                assert np.max(np.abs(got1 - want[1:])) <= 1e-12 * scale
        # Through the public interpolants, at the nodes themselves.
        f_at, fpp_at = sol.interpolators()
        assert np.max(np.abs(f_at(sol.grid) - sol.f)) <= 1e-14
        assert np.max(np.abs(fpp_at(sol.grid) - sol.f_double_prime)) <= 1e-12
        if kind == "symmetric":
            # The mirror side keeps the x < 0 branch's own values at 0.
            mirror = sol._pieces[1]
            assert mirror(0.0) == f0_minus
            fp0 = mirror.p[0, 1] / (mirror.knots[1] - mirror.knots[0])
            assert fp0 == pytest.approx(-sol.fp_zero_minus, abs=1e-15)
            assert mirror(0.0, nu=2) == pytest.approx(sol.fpp_zero_minus, abs=1e-15)

    def test_reproduces_a_quintic(self):
        rng = np.random.default_rng(3)
        knots = np.sort(rng.uniform(0.0, 4.0, 25))
        c = np.array([0.7, -1.3, 0.4, 0.9, -0.35, 0.05])
        q = np.polynomial.Polynomial(c)
        piece = _hermite(knots, q(knots), q.deriv(1)(knots), q.deriv(2)(knots))
        # Inside the knots and, through the end cells, half a cell outside.
        w = np.diff(knots)
        outside = [knots[0] - 0.5 * w[0], knots[-1] + 0.5 * w[-1]]
        t = np.concatenate((rng.uniform(knots[0], knots[-1], 500), outside))
        assert np.max(np.abs(piece(t) - q(t))) <= 1e-12 * np.max(np.abs(q(t)))
        f2 = q.deriv(2)(t)
        assert np.max(np.abs(piece(t, nu=2) - f2)) <= 1e-10 * np.max(np.abs(f2))

    def test_needs_two_points_per_side(self):
        with pytest.raises(DomainError, match="two grid points"):
            _hermite(np.array([0.0]), np.zeros(1), np.zeros(1), np.zeros(1))


class TestWronskianScaled:
    def test_wronskian_of_scaled_solutions(self):
        # w1 = 3^(2/3) Ai(x 3^(-1/3)), w2 = 3^(2/3) Bi(x 3^(-1/3)) solve the
        # homogeneous equation; their Wronskian is 3/pi.
        xs = np.linspace(0.0, 10.0, 97)
        c = 3.0 ** (-1.0 / 3.0)
        a = airy_many(c * xs)
        pref = 3.0 ** (2.0 / 3.0)
        w1 = pref * a.ai
        w1p = pref * c * a.ai_prime
        w2 = pref * a.bi
        w2p = pref * c * a.bi_prime
        w = w1 * w2p - w1p * w2
        assert np.max(np.abs(w - 3.0 / math.pi)) <= 1e-9


class TestCheckDomain:
    def test_solver_output_is_in_domain(self, sol_cos):
        assert bool(check_domain(sol_cos))

    def test_constant_function_fails(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        dc = check_domain((one, zero))
        assert not dc
        # Identity value is -1/Gamma(1/3).
        assert f"{-1.0 / GAMMA_1_3:.10g}" in dc.reasons[0]

    def test_density_fails_with_known_value(self):
        c = 3.0 ** (-1.0 / 3.0)

        def f(x):
            return density(THIRD, x)

        def fp(x):
            return 3.0 ** (2.0 / 3.0) * c * airy_many(c * np.asarray(x, float)).ai_prime

        dc = check_domain((f, fp))
        assert not dc
        b = float(fp(0.0)) / GAMMA_2_3 - f(0.0) / GAMMA_1_3
        assert b == pytest.approx(-2.0 / (GAMMA_1_3 * GAMMA_2_3), rel=1e-12)

    def test_symmetric_solution(self, sol_atan_sym):
        assert bool(check_domain(sol_atan_sym))

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_callable_named(self, which):
        names = ("f", "f'", "f''")
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        nan_at_6 = lambda x: np.where(np.asarray(x, dtype=float) == 6.0, math.nan, 0.0)
        fns = [zero, zero, zero]
        fns[which] = nan_at_6
        dc = check_domain(tuple(fns))
        assert not dc
        assert dc.reasons == (f"{names[which]} is not finite on the working grid",)

    def test_all_reasons_of_a_solution(self, sol_cos):
        bad = np.full_like(sol_cos.f, math.nan)
        dc = check_domain(dataclasses.replace(
            sol_cos, f=bad, f_prime=bad, f_double_prime=bad, boundary_residual=2e-8))
        assert dc.reasons == (
            "f is not finite on the working grid",
            "f' is not finite on the working grid",
            "f'' is not finite on the working grid",
            "boundary identity f'(0)/Gamma(2/3) - f(0)/Gamma(1/3) = 2e-08 exceeds 1.0e-08",
        )

    @pytest.mark.parametrize("value, ok", [(1e-8, True), (-1e-8, True), (1.5e-8, False),
                                           (math.nan, False), (math.inf, False)])
    def test_boundary_identity_of_a_solution(self, sol_cos, value, ok):
        # A NaN identity fails: it is not within the tolerance.
        dc = check_domain(dataclasses.replace(sol_cos, boundary_residual=value))
        assert bool(dc) is ok
        if not ok:
            assert dc.reasons == (
                f"boundary identity f'(0)/Gamma(2/3) - f(0)/Gamma(1/3) = {value:.10g} "
                "exceeds 1.0e-08",
            )

    @pytest.mark.parametrize("value, ok", [(1e-10, True), (-3e-10, False), (math.nan, False)])
    def test_symmetric_f_zero(self, sol_atan_sym, value, ok):
        dc = check_domain(dataclasses.replace(sol_atan_sym, f_zero=value))
        assert bool(dc) is ok
        assert dc.reasons == (() if ok else (f"f(0) = {value:.10g} exceeds 1.0e-10",))

    @pytest.mark.parametrize("bad", [None, 3.0, (np.cos,), (np.cos, 1.0), "ab"])
    def test_refuses_what_it_cannot_check(self, bad):
        with pytest.raises(DomainError):
            check_domain(bad)


class TestVerifyBounds:
    def test_constant_trivial(self):
        sol = solve_stein(H_CONST)
        rep = verify_bounds(sol, H_CONST)
        assert rep.all_satisfied
        assert rep.sup_f <= 1e-12

    @pytest.mark.parametrize("h", [H_COS, H_EXP])
    def test_family_bounds_hold(self, h):
        sol = solve_stein(h)
        rep = verify_bounds(sol, h)
        assert rep.all_satisfied
        assert rep.sup_f <= rep.bound_f
        assert rep.sup_f_prime <= rep.bound_f_prime
        assert rep.sup_f_double_prime <= rep.bound_f_double_prime
        assert rep.note

    def test_symmetric_rejected(self, sol_atan_sym):
        with pytest.raises(DomainError):
            verify_bounds(sol_atan_sym, H_ATAN)


class TestGeneralParticularSolution:
    def test_reproduces_scorer(self):
        neg_inv_pi = lambda t: -np.ones_like(np.asarray(t, dtype=float)) / math.pi
        for x in (0.0, 0.5, 1.0, 2.0, 5.0):
            q = general_particular_solution(1.0, neg_inv_pi, x)
            assert abs(q - scorer_gi(x)) <= 1e-8

    def test_matches_stein_kernel(self, sol_cos):
        eh = sol_cos.expectation_h
        xs = sol_cos.grid[::40].copy()
        q = general_particular_solution(
            3.0**-0.5, lambda t: np.cos(t) - eh, xs
        )
        assert np.max(np.abs(q - sol_cos.f[::40])) <= 1e-9

    @pytest.mark.parametrize("grid", [[1.0, 30.0], [2.0, 250.0]])
    def test_reproduces_scorer_on_sparse_grids(self, grid):
        # Each grid cell spans tens to thousands of e-folds of the kernels.
        neg_inv_pi = lambda t: -np.ones_like(np.asarray(t, dtype=float)) / math.pi
        q = general_particular_solution(1.0, neg_inv_pi, np.array(grid))
        ref = np.array([float(mp.scorergi(x)) for x in grid])
        assert np.max(np.abs(q / ref - 1.0)) <= 1e-12

    def test_zero_rhs(self):
        z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert general_particular_solution(2.0, z, 1.5) == 0.0

    def test_ode_residual_by_fd(self):
        k = 1.3
        f = lambda t: np.cos(t)
        x0 = 2.0
        h = 0.01
        xs = x0 + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        q = general_particular_solution(k, f, xs)
        d2 = float(np.dot([-1.0, 16.0, -30.0, 16.0, -1.0], q)) / (12 * h * h)
        assert abs(d2 - k * k * x0 * q[2] - math.cos(x0)) <= 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            general_particular_solution(0.0, lambda t: t, 1.0)
        with pytest.raises(DomainError):
            general_particular_solution(1.0, lambda t: t, -1.0)

    def test_empty_input(self):
        for xs in ([], np.empty((0, 3))):
            q = general_particular_solution(1.0, np.cos, xs)
            assert q.shape == np.shape(xs)


class TestBatchedSolve:
    """One Green's pass serves a whole test-function family, bitwise."""

    @staticmethod
    def family():
        from wright_stein.cli import _solve_family

        return list(_solve_family().values())

    @staticmethod
    def assert_same(a, b):
        for name in ("grid", "f", "f_prime", "f_double_prime", "residuals"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.label, name)
        for name in (
            "kind", "label", "expectation_h", "expectation_h_neg", "residual_sup",
            "boundary_residual", "f_zero", "fp_zero_plus", "fp_zero_minus",
            "fpp_zero_plus", "fpp_zero_minus", "bound_report",
        ):
            assert getattr(a, name) == getattr(b, name), (a.label, name)

    def test_halfline_family_matches_single_solves(self):
        fam = self.family()
        assert len(fam) == 17
        batch = stein_mod._solve_batch(fam, None, False)
        for tf, sol in zip(fam, batch):
            self.assert_same(sol, solve_stein(tf))

    def test_symmetric_default_family_matches_two_halfline_solves(self):
        # On a grid symmetric about 0 both sides share one pass; each side
        # must equal its own separate half-line solve.
        fam = self.family()
        grid = stein_mod.default_grid(symmetric=True)
        half = grid[grid >= 0]
        batch = stein_mod._solve_batch(fam, None, True)
        for tf, sol in zip(fam, batch):
            pos = solve_stein(tf, half)
            neg = solve_stein(
                TestFunction(lambda s, fn=tf.fn: fn(-np.asarray(s)), tf.sup_norm, "m"),
                half,
            )
            k = half.size - 1
            assert sol.f[k:].tobytes() == pos.f.tobytes()
            assert sol.f[:k].tobytes() == neg.f[1:][::-1].tobytes()
            assert sol.f_prime[:k].tobytes() == (-neg.f_prime[1:][::-1]).tobytes()
            assert sol.residuals.tobytes() == np.concatenate(
                (neg.residuals[1:][::-1], pos.residuals)
            ).tobytes()
            assert sol.expectation_h == pos.expectation_h
            assert sol.expectation_h_neg == neg.expectation_h
            assert sol.fp_zero_minus == -neg.f_prime[0]

    def test_symmetric_asymmetric_grid_family_matches_single_solves(self):
        fam = self.family()
        grid = np.arange(-60, 121) * 0.05
        batch = stein_mod._solve_batch(fam, grid, True)
        for tf, sol in zip(fam, batch):
            self.assert_same(sol, solve_stein_sym(tf, grid))

    def test_kinked_tail_member_falls_back_alone(self, monkeypatch):
        # The kink at 13.3 lies inside a graded tail cell of the default
        # grid, where the nested K15/G7 pair disagrees: that cell is settled
        # by the adaptive routine for this h only, and each member is its
        # own solve, bit for bit.
        kink = TestFunction(lambda x: np.minimum(1.0, np.abs(x - 13.3)), 1.0, "kink")
        counts = count_settled(monkeypatch)
        cos_sol, kink_sol, sin_sol = stein_mod._solve_batch([H_COS, kink, H_SIN], None, False)
        assert counts["cells"] >= 1
        monkeypatch.undo()
        self.assert_same(cos_sol, solve_stein(H_COS))
        self.assert_same(sin_sol, solve_stein(H_SIN))
        self.assert_same(kink_sol, solve_stein(kink))
        # Reference with the kink on a cell edge: no cell sees it.
        eh = kink_sol.expectation_h
        xs = np.array([kink_sol.grid[200], 12.0, 13.3])
        q = general_particular_solution(3.0**-0.5, lambda t: kink.fn(t) - eh, xs)
        assert np.max(np.abs(q[:2] - kink_sol.f[[200, -1]])) <= 1e-9

    def test_failing_member_is_named(self):
        wild = TestFunction(lambda x: np.cos(40.0 * x), 1.0, "cos40", even=True)
        with pytest.raises(SolverAccuracyError) as exc:
            stein_mod._solve_batch([H_COS, wild, H_SIN], None, False)
        assert "h=cos40" in str(exc.value)
        assert exc.value.diagnostics["h"] == "cos40"


class TestProbeLattice:
    """Residual probes on the grid's own lattice: shared points, steps in
    [PROBE_DELTA/2, PROBE_DELTA], and the residual tolerance kept on dense
    and non-uniform grids."""

    NONUNIFORM = np.concatenate((np.linspace(0.0, 5.0, 118), np.linspace(5.0, 12.0, 284)[1:]))

    @staticmethod
    def pass_points(monkeypatch, hs, grid, symmetric):
        seen = []
        real = stein_mod.green_pass

        def recording(tp, *args, **kwargs):
            seen.append(np.array(tp))
            return real(tp, *args, **kwargs)

        monkeypatch.setattr(stein_mod, "green_pass", recording)
        stein_mod._solve_batch(hs, grid, symmetric)
        (tp,) = seen
        return tp

    @pytest.mark.parametrize("symmetric, most", [(False, 810), (True, 610)])
    def test_default_pass_size(self, monkeypatch, symmetric, most):
        tp = self.pass_points(monkeypatch, [H_COS], None, symmetric)
        assert np.unique(tp).size == tp.size <= most

    @pytest.mark.parametrize(
        "spec, symmetric",
        [
            (None, False),
            (None, True),
            ("0:12:0.03125", False),
            ("0.375:12:0.046875", False),
            ("-3:12:0.05", True),
        ],
    )
    def test_shared_probes_are_one_point(self, monkeypatch, spec, symmetric):
        from wright_stein.cli import _parse_grid

        grid = None if spec is None else _parse_grid(spec)
        tp = self.pass_points(monkeypatch, [H_COS, H_SIN], grid, symmetric)
        assert np.min(np.diff(tp)) > 1e-12

    @pytest.mark.parametrize(
        "grid",
        [
            np.linspace(0.0, 12.0, 400),
            np.linspace(0.0, 12.0, 201),
            np.arange(0.0, 20.0 + 1e-9, 0.0005),
            np.arange(6, 257) * 0.046875,
            NONUNIFORM,
            np.array([0.0, 0.003, 0.5, 0.52, 1.7]),
            np.array([3.0]),
        ],
        ids=["default", "default-half-sym", "dense", "from-0.28", "nonuniform", "ragged", "lone"],
    )
    def test_stencil_step_in_range(self, grid):
        pd = stein_mod.PROBE_DELTA
        _, groups = stein_mod._probe_groups(grid)
        for mask, probes, coef, steps_sq in groups:
            x, step = grid[mask], np.sqrt(steps_sq)
            if coef.size == 6:  # forward stencil, below 2 * delta: delta / 4
                step = 4.0 * step
                assert np.all(x < 2 * step)
            assert np.all(step >= pd / 2) and np.all(step <= pd * (1 + 1e-12))
            # Each stencil is evenly spaced up to rounding.
            offsets = (probes - probes[:, :1]) / step[:, None] * (4.0 if coef.size == 6 else 1.0)
            assert np.max(np.abs(np.diff(offsets, axis=1) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("grid", [np.arange(40001) * 0.0005, NONUNIFORM], ids=["dense", "nonuniform"])
    def test_cli_family_within_tolerance(self, grid):
        from wright_stein.cli import _solve_family

        fam = list(_solve_family().values())
        assert len(fam) == 17
        for sol in stein_mod._solve_batch(fam, grid, False):
            assert sol.residual_sup <= stein_mod.RESIDUAL_TOL

    def test_fine_grid_solved(self):
        # On a grid finer than PROBE_DELTA the points below 2 * delta take
        # the forward stencil of x = 0.  A centered stencil of step x / 2
        # divided the ~1e-16 noise of f by x^2 / 4 and refused this grid.
        fine = np.arange(100_001) * 2e-5
        sol = solve_stein(H_COS, fine)
        assert sol.residual_sup <= 1e-8
        coarse = solve_stein(H_COS, fine[::500])
        # 3.7e-13 measured: the scans' rounding over 1e5 cells.
        assert np.max(np.abs(sol.f[::500] - coarse.f)) <= 1e-12

    def test_head_on_the_grid_step(self, monkeypatch):
        # A grid from 0.875: the pass integrates [0, 0.875] on the grid's
        # lattice, so the sharp invquad2 never needs the adaptive routine.
        from wright_stein.cli import _parse_grid, _solve_family

        counts = count_settled(monkeypatch)
        sol = solve_stein(_solve_family()["invquad2"], _parse_grid("0.875:15.7:0.046875"))
        assert counts == {"cells": 0, "taps": 0}
        assert sol.residual_sup <= stein_mod.RESIDUAL_TOL

    def test_cli_family_without_fallback(self, monkeypatch):
        # Every cell of the CLI family's passes meets the tolerance with its
        # Kronrod pair, cells two e-folds wide included: on the default
        # grids and on grids shaped like the benchmark's solves (320 points
        # from 0 or 1 on the half line, 401 on the line), no solve hands an
        # integral to the adaptive routine.
        from wright_stein.cli import _solve_family

        counts = count_settled(monkeypatch)
        fam = list(_solve_family().values())
        cases = [
            (stein_mod.default_grid(False), False),
            (stein_mod.default_grid(True), True),
            (np.arange(320) * (2 / 64), False),
            (1.0 + np.arange(320) * (3 / 64), False),
            ((np.arange(401) - 200) * (3 / 64), True),
            ((np.arange(401) - 200) * (5 / 64), True),
        ]
        for grid, symmetric in cases:
            sols = stein_mod._solve_batch(fam, grid, symmetric)
            assert len(sols) == 17
        assert counts == {"cells": 0, "taps": 0}


class TestTapPass:
    """The Green's pass integrates cells only at the grid, the head lattice
    and the tail; every other residual probe is a tap, read inside its cell
    from the cell's 15-node interpolant."""

    TABLES_GRID = 0.25 + np.arange(320) * 0.046875
    EXP2 = TestFunction(lambda x: np.exp(-2 * np.abs(x)), 1.0, "exp2", even=True)

    @staticmethod
    def layout(monkeypatch, h, grid):
        """The (cells, points) a solve hands its Green's pass."""
        seen = []
        real = stein_mod.green_pass

        def recording(cells, *args, points=None, **kwargs):
            seen.append((np.array(cells), np.array(points)))
            return real(cells, *args, points=points, **kwargs)

        monkeypatch.setattr(stein_mod, "green_pass", recording)
        solve_stein(h, grid)
        (pair,) = seen
        return pair

    @pytest.mark.parametrize("grid", [None, TABLES_GRID], ids=["default", "tables"])
    def test_taps_match_all_edges_pass(self, monkeypatch, grid):
        cells, points = self.layout(monkeypatch, H_COS, grid)
        assert np.setdiff1d(points, cells).size > cells.size / 2
        fns = [np.cos, self.EXP2.fn, specfun._ones]
        taps = specfun.green_pass(cells, fns, stein_mod._SCALE, points=points)
        edges = specfun.green_pass(points, fns, stein_mod._SCALE)
        for key in ("g", "g_prime", "tail"):
            assert np.max(np.abs(taps[key] - edges[key])) <= 2e-15
        # Points on cell edges read the edge values of the tap-free pass.
        plain = specfun.green_pass(cells, fns, stein_mod._SCALE)
        on = np.isin(points, cells)
        for key in ("g", "g_prime", "tail"):
            assert np.array_equal(taps[key][:, on], plain[key])
        assert np.array_equal(taps["full_line"], plain["full_line"])

    def test_boundary_values_from_the_row_at_0(self, monkeypatch):
        # A grid from 0.875 still hands the pass x = 0, a cell edge where
        # P = 0 and S is the full-line integral; f(0) and f'(0) for the
        # boundary identity come from that row.
        from wright_stein.cli import _parse_grid

        seen = []
        real = stein_mod.green_pass

        def recording(cells, fns, scale, points=None):
            out = real(cells, fns, scale, points=points)
            seen.append((np.array(points), out))
            return out

        monkeypatch.setattr(stein_mod, "green_pass", recording)
        sol = solve_stein(H_COS, _parse_grid("0.875:15.7:0.046875"))
        ((points, out),) = seen
        assert points[0] == 0.0 and sol.grid[0] == 0.875
        assert np.array_equal(out["g"][:, 0], airy_many(np.zeros(1)).bi * out["full_line"])
        eh = out["full_line"][0] / out["full_line"][-1]
        f0 = stein_mod._PREF_F * (out["g"][0, 0] - eh * out["g"][-1, 0])
        fp0 = stein_mod._PREF_FP * (out["g_prime"][0, 0] - eh * out["g_prime"][-1, 0])
        assert sol.boundary_residual == fp0 / GAMMA_2_3 - f0 / GAMMA_1_3

    def test_default_pass_evaluations(self, monkeypatch):
        # 15 nodes per cell for cos and the constant, over 424 cells; the
        # same solve with every probe a cell edge integrates 827.
        counts = []
        real = stein_mod.green_pass

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            counts.append(out["evaluations"])
            return out

        monkeypatch.setattr(stein_mod, "green_pass", counting)
        solve_stein(H_COS)
        assert len(counts) == 1 and counts[0] <= 430 * 15 * 2

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_kinks_inside_cells(self, monkeypatch, symmetric):
        # h = max(0, x - c)^p e^-|x| has a C^(p-1) kink at c inside a grid
        # cell.  Taps whose cell interpolant has not converged take their
        # partial integrals from the adaptive routine; each solve is
        # solved or refused as with every probe a cell edge, and f agrees.
        counts = count_settled(monkeypatch)
        real_pass = stein_mod.green_pass

        def all_edges(cells, fns, scale, points=None):
            return real_pass(points, fns, scale)

        solve = solve_stein_sym if symmetric else solve_stein
        tap_redos = 0
        for p in (1, 2, 3):
            for c in (3.333, 5.01, 7.77):
                h = TestFunction(
                    lambda x, c=c, p=p: np.maximum(0.0, x - c) ** p * np.exp(-np.abs(x)),
                    1.0, f"kink{p}@{c}", even=False,
                )
                outcomes = []
                for pass_fn in (real_pass, all_edges):
                    monkeypatch.setattr(stein_mod, "green_pass", pass_fn)
                    counts.update(cells=0, taps=0)
                    try:
                        outcomes.append(solve(h).f)
                    except SolverAccuracyError:
                        outcomes.append(None)
                    if pass_fn is real_pass:
                        tap_redos += counts["taps"] // 2
                taps, edges = outcomes
                assert (taps is None) == (edges is None), h.label
                if taps is not None:
                    assert np.max(np.abs(taps - edges)) <= 1e-10, h.label
        assert tap_redos >= 1
