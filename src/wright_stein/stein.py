"""Stein operators for M_{1/3}, the explicit Green's-function solvers on the
half line and the symmetrized line, domain checks, and the bound verifier.

The solver evaluates

    f_h(x) = -3^(1/3) pi [ Ai(x/3^(1/3)) int_0^x Bi(t/3^(1/3)) h~(t) dt
                         + Bi(x/3^(1/3)) int_x^inf Ai(t/3^(1/3)) h~(t) dt ]

with h~ = h - E[h(Y)].  One ``specfun.green_pass`` returns, per right-hand
side r, the bracket g = Ai P + Bi S and g' = Ai' P + Bi' S of the two Green's
integrals of r; the solver forms f = -3^(1/3) pi (g_h - E[h(Y)] g_1) and
f' = -pi (g'_h - E[h(Y)] g'_1), whose boundary terms cancel.  f'' comes from
the ODE itself.

The Airy kernel depends only on the points, not on h, so every solve is one
Green's pass: every h (and, on the symmetric line, every mirrored h(-s)) is
one right-hand side.  The pass integrates cells between both sides' grid
points, the lattice below their first points and the probes past the last
grid point; every other residual probe is read inside its cell, from the
cell's own quadrature nodes (see ``specfun.green_pass``).  x = 0 is always
among the pass's points, and f(0) and f'(0) for the boundary identity are
read from its row like every other point's.  Each solution is bitwise
independent of the other members of the family.

Two implementation details worth knowing:

* E[h(Y)] is computed as the ratio of the two suffix integrals
  int Ai(u t) h dt / int Ai(u t) dt produced by the same quadrature pass.
  With that recentering the solution satisfies f(0) = f'(0) = 0 to roundoff
  (the exact solution does too, since int Ai(u t) h~(t) dt = 0), which is
  what the boundary identity and the symmetric matching conditions need.

* Since f'' is defined through the ODE, the reported residual would be
  trivially zero if computed from the stored arrays.  Instead the solver
  re-evaluates f at probe points through the same Green's-function
  machinery and forms an independent fourth-order finite-difference second
  derivative; the residual compares that against the ODE right-hand side.
  The probes sit on the grid's own lattice (the grid points and each cell
  split into equal parts no wider than PROBE_DELTA), at steps delta in
  [PROBE_DELTA/2, PROBE_DELTA], so neighbouring stencils share their
  probes and most probes are grid points or shared cell splits.

Between nodes a solution is the quintic Hermite interpolant of the solver's
own (f, f', f'') on each grid cell, which goodness of fit also reads.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from ._csvtext import _csv_pieces
from .errors import DomainError, NonFiniteError, SolverAccuracyError
from .numerics import GAMMA_1_3, GAMMA_2_3, _as_float, _as_floats, _vectorized, integrate
from .mwright import _DENSITY_CUT, density
from .specfun import _GI_NORM, _GI_PRIME_NORM, _XGI_NORM
from .specfun import _distinct, _green_at, _ones, green_pass

__all__ = [
    "TestFunction",
    "BoundReport",
    "SteinSolution",
    "DomainCheck",
    "stein_apply",
    "stein_apply_sym",
    "expectation_mwright",
    "solve_stein",
    "solve_stein_sym",
    "check_domain",
    "verify_bounds",
    "general_particular_solution",
    "default_grid",
]

_SCALE = 3.0 ** (-1.0 / 3.0)
_PREF_F = -(3.0 ** (1.0 / 3.0)) * math.pi
_PREF_FP = -math.pi

X_MAX_CAP = 20.0
PROBE_DELTA = 0.02
RESIDUAL_TOL = 1e-6
# check_domain's limits on the boundary identity and on the symmetric f(0).
_BOUNDARY_TOL = 1e-8
_ZERO_TOL = 1e-10

# Fourth-order finite-difference second-derivative stencils on uniform
# spacing delta: centered five-point, and forward six-point for points
# closer than 2*delta to the boundary at 0.
_C5_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_C5_COEF = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_F6_OFFSETS = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
_F6_COEF = np.array([15.0 / 4, -77.0 / 6, 107.0 / 6, -13.0, 61.0 / 12, -5.0 / 6])


@dataclass(frozen=True)
class TestFunction:
    """A bounded continuous test function with its sup-norm bound.

    ``even`` is a label recording whether h(-x) = h(x); the solvers do not
    read it, and the tests use it to pick the even members of a family.
    """

    __test__ = False  # not a pytest class, despite the name

    fn: Callable
    sup_norm: float
    label: str
    even: bool = False

    def __call__(self, x):
        return self.fn(x)


def _as_test_function(h) -> TestFunction:
    if isinstance(h, TestFunction):
        return h
    return TestFunction(fn=h, sup_norm=math.inf, label=getattr(h, "__name__", "h"))


@dataclass(frozen=True)
class BoundReport:
    """Measured sup norms vs the three Lemma-style bound constants."""

    sup_f: float
    sup_f_prime: float
    sup_f_double_prime: float
    bound_f: float
    bound_f_prime: float
    bound_f_double_prime: float
    all_satisfied: bool
    note: str = ""


def _locate(knots, t):
    """Cell index and cell coordinate s of each point t on ``knots``; points
    outside the knots take the end cell, NaN the last.

    The cell is clip(searchsorted(knots, t, "right") - 1, 0, cells - 1),
    found by arithmetic: the uniform map from [knots[0], knots[-1]] guesses
    it, one step down or up corrects it on a uniform grid, and only the
    points still outside their cell (on a non-uniform grid) are searched.
    """
    shape, t = np.shape(t), np.reshape(t, -1)
    last = knots.size - 2
    g = t - knots[0]
    g *= (last + 1) / (knots[-1] - knots[0])
    # fmin takes NaN to the last cell, so no NaN reaches the integer cast.
    b = np.maximum(np.fmin(g, last, out=g), 0, out=g).astype(np.intp)
    # Every b is a valid cell, so "clip" only skips the buffered copy; lo
    # takes over g's memory, which keeps a 1e6-point sweep's peak down.
    lo, hi = knots.take(b, out=g, mode="clip"), knots[1:].take(b, mode="clip")
    off = np.flatnonzero(((t < lo) & (b > 0)) | ((t >= hi) & (b < last)))
    if off.size:
        # One step down or up (off cells are never stepped out of range);
        # what is still off goes to the binary search.
        to = t[off]
        c = b[off] - (to < lo[off]) + (to >= hi[off])
        miss = ((to < knots[c]) & (c > 0)) | ((to >= knots[c + 1]) & (c < last))
        c[miss] = np.clip(np.searchsorted(knots, to[miss], side="right") - 1, 0, last)
        b[off], lo[off], hi[off] = c, knots[c], knots[c + 1]
    # s = (t - lo) / (hi - lo), in place.
    hi -= lo
    s = np.subtract(t, lo, out=lo)
    s /= hi
    return b.reshape(shape), s.reshape(shape)


class _Hermite(NamedTuple):
    """One side's interpolant of (f, f', f'') in t >= 0.

    On the cell [g_b, g_b+1] of width w_b it is the quintic
    p(s) = sum_k p[b, k] s^k in s = (t - g_b) / w_b that matches
    (f, w_b f', w_b^2 f'') at both ends, so its error in f is O(w^6); d[b]
    holds p''/w_b^2.  Points outside the knots take the end cell's polynomial.
    """

    knots: np.ndarray
    p: np.ndarray  # (cells, 6)
    d: np.ndarray  # (cells, 4)

    def __call__(self, t, nu=0):
        """The interpolated f (nu = 0) or f'' (nu = 2) at t."""
        b, s = _locate(self.knots, np.asarray(t, dtype=float))
        c = (self.p if nu == 0 else self.d)[b]
        return polyval(s, np.moveaxis(c, -1, 0), tensor=False)

    def operator(self):
        """A p = p''/w^2 - (t/3) p on each cell: (cells, 7) coefficients in s."""
        q = np.zeros((len(self.p), 7))
        q[:, :4] = self.d
        q[:, :6] -= (self.knots[:-1, None] / 3.0) * self.p
        q[:, 1:] -= (np.diff(self.knots)[:, None] / 3.0) * self.p
        return q


def _hermite(knots, f, fp, fpp) -> _Hermite:
    """The _Hermite interpolant of (f, f', f'') at ``knots``."""
    if knots.size < 2:
        raise DomainError("interpolating a solution needs two grid points per side")
    w = np.diff(knots)
    c = [f[:-1], w * fp[:-1], 0.5 * w * w * fpp[:-1]]
    # What the quadratic Taylor part misses at s = 1 in p, p' and p''.
    a = f[1:] - (c[0] + c[1] + c[2])
    b = w * fp[1:] - (c[1] + 2.0 * c[2])
    e = w * w * fpp[1:] - 2.0 * c[2]
    c += [10.0 * a - 4.0 * b + 0.5 * e, -15.0 * a + 7.0 * b - e, 6.0 * a - 3.0 * b + 0.5 * e]
    p = np.stack(c, axis=1)
    # p''/w^2 in the power basis, from (s^k)'' = k (k - 1) s^(k-2).
    return _Hermite(knots, p, p[:, 2:] * ([2.0, 6.0, 12.0, 20.0] / w[:, None] ** 2))


@dataclass
class SteinSolution:
    """Grid representation of a Stein-equation solution.

    Arrays are aligned with ``grid``; for the symmetric kind the
    f_double_prime entry at x = 0 holds the 0+ branch.  Instances are
    treated as immutable after construction.
    """

    grid: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    f_double_prime: np.ndarray
    kind: str  # "half-line" or "symmetric"
    expectation_h: float
    expectation_h_neg: float | None
    residual_sup: float
    bound_report: BoundReport
    residuals: np.ndarray | None = None
    boundary_residual: float | None = None  # half-line kind
    f_zero: float | None = None  # symmetric kind
    fp_zero_plus: float | None = None
    fp_zero_minus: float | None = None
    fpp_zero_plus: float | None = None
    fpp_zero_minus: float | None = None
    error_estimate: float = 0.0
    label: str = ""
    # (grid, f, f', f'') of each half-line side as solved, in t = |x|.
    _sides: tuple = field(default=(), repr=False)

    def __post_init__(self):
        for a in (self.grid, self.f, self.f_prime, self.f_double_prime):
            np.asarray(a).setflags(write=False)

    @cached_property
    def _pieces(self) -> tuple:
        """One _Hermite per side in t = |x|: (half line,) or (x >= 0, x < 0).
        The mirror side starts at t = 0 with the x < 0 branch's own values."""
        return tuple(_hermite(*side) for side in self._sides)

    def interpolators(self):
        """Quintic Hermite interpolants (f, f'') honoring the side split, on
        [grid[0], grid[-1]]: a point outside it, or not a finite number,
        raises DomainError naming the first such point.

        For the symmetric kind each side runs on its own points only, x < 0
        (not -0.0) on the mirror side at |x|, so f'' keeps its one-sided
        limits at 0 and even test functions give bitwise-mirrored values.
        """
        lo, hi = self.grid[0], self.grid[-1]

        def at(x, nu):
            x = _as_floats(x)
            off = np.flatnonzero(~((x >= lo) & (x <= hi)))
            if off.size:
                raise DomainError(f"the solution is interpolated on [{lo:.17g}, {hi:.17g}], "
                                  f"got x = {float(x.flat[off[0]])!r}")
            if self.kind == "half-line":
                return self._pieces[0](x, nu)
            pos, neg = self._pieces
            ax, right = np.abs(x), x >= 0
            out = np.empty_like(ax)
            out[right], out[~right] = pos(ax[right], nu), neg(ax[~right], nu)
            return out

        return partial(at, nu=0), partial(at, nu=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# kind={self.kind}\n")
        if self.label:
            buf.write(f"# h={self.label}\n")
        buf.write(f"# expectation_h={self.expectation_h:.17g}\n")
        if self.expectation_h_neg is not None:
            buf.write(f"# expectation_h_neg={self.expectation_h_neg:.17g}\n")
        buf.write(f"# residual_sup={self.residual_sup:.17g}\n")
        if self.boundary_residual is not None:
            buf.write(f"# boundary_residual={self.boundary_residual:.17g}\n")
        if self.kind == "symmetric":
            buf.write(f"# f_zero={self.f_zero:.17g}\n")
            buf.write(f"# fp_zero_plus={self.fp_zero_plus:.17g}\n")
            buf.write(f"# fp_zero_minus={self.fp_zero_minus:.17g}\n")
            buf.write(f"# fpp_zero_plus={self.fpp_zero_plus:.17g}\n")
            buf.write(f"# fpp_zero_minus={self.fpp_zero_minus:.17g}\n")
            jump = self.fpp_zero_plus - self.fpp_zero_minus
            buf.write(f"# fpp_jump={jump:.17g}\n")
        br = self.bound_report
        buf.write(
            "# bound_report "
            f"sup_f={br.sup_f:.17g} bound_f={br.bound_f:.17g} "
            f"sup_f_prime={br.sup_f_prime:.17g} bound_f_prime={br.bound_f_prime:.17g} "
            f"sup_f_double_prime={br.sup_f_double_prime:.17g} "
            f"bound_f_double_prime={br.bound_f_double_prime:.17g} "
            f"all_satisfied={br.all_satisfied}\n"
        )
        buf.write("x,f,f_prime,f_double_prime,residual\n")
        res = self.residuals if self.residuals is not None else np.zeros_like(self.grid)
        buf.writelines(_csv_pieces(self.grid, self.f, self.f_prime, self.f_double_prime, res))
        return buf.getvalue()


@dataclass(frozen=True)
class DomainCheck:
    ok: bool
    reasons: tuple

    def __bool__(self) -> bool:
        return self.ok


def default_grid(symmetric: bool = False) -> np.ndarray:
    """Default solver grid: 400 points on [0, 12], or 401 on [-12, 12].

    The symmetric grid is built as an exact mirror of its positive half, so
    the two sides of a symmetric solve see bitwise-identical abscissae.
    """
    if not isinstance(symmetric, (bool, np.bool_)):
        raise DomainError(f"default_grid: symmetric must be a bool, got {symmetric!r}")
    if symmetric:
        half = np.linspace(0.0, 12.0, 201)
        return np.concatenate((-half[1:][::-1], half))
    return np.linspace(0.0, 12.0, 400)


def _apply(name: str, f: Callable, x, second_derivative, half_line: bool) -> float:
    """f''(x) - (|x|/3) f(x) at one finite x (x >= 0 on the half line).

    Without an explicit second derivative, f'' is a fourth-order finite
    difference of step 1e-3: centered five-point, or forward six-point on
    the half line below two steps, so f is never probed below 0.
    """
    x = _as_float(x)
    if not (math.isfinite(x) and (x >= 0 or not half_line)):
        raise DomainError(f"{name} requires finite x{' >= 0' if half_line else ''}, got {x}")
    if second_derivative is not None:
        d2 = second_derivative(x)
    else:
        h = 1e-3
        fwd = half_line and x < 2 * h
        offsets, coef = (_F6_OFFSETS, _F6_COEF) if fwd else (_C5_OFFSETS, _C5_COEF)
        d2 = float(np.dot(coef, _vectorized(f)(x + h * offsets))) / h**2
    d2, fx = float(d2), float(f(x))
    if not (math.isfinite(d2) and math.isfinite(fx)):
        raise NonFiniteError(f"{name}: f or f'' is not finite at x={x!r}", x=x)
    return d2 - (abs(x) / 3.0) * fx


def stein_apply(f: Callable, x: float, second_derivative: Callable | None = None) -> float:
    """(A f)(x) = f''(x) - (1/3) x f(x) on the half line.

    Without an explicit second derivative a fourth-order finite-difference
    wrapper is used (one-sided near 0 so f is never probed below 0).
    """
    return _apply("stein_apply", f, x, second_derivative, half_line=True)


def stein_apply_sym(f: Callable, x: float, second_derivative: Callable | None = None) -> float:
    """(A^ f)(x) = f''(x) - (1/3) |x| f(x) on the full line.

    The finite-difference fallback uses a centered stencil; for solutions of
    the symmetric Stein equation f'' can jump at 0, so supply the one-sided
    second derivative there.
    """
    return _apply("stein_apply_sym", f, x, second_derivative, half_line=False)


def expectation_mwright(h, negate: bool = False) -> float:
    """E[h(Y)] (or E[h(-Y)]) for Y ~ M_{1/3}, by direct quadrature."""
    hf = h.fn if isinstance(h, TestFunction) else h
    hv = _vectorized(hf)
    sgn = -1.0 if negate else 1.0

    def integrand(xs):
        return hv(sgn * xs) * density(1.0 / 3.0, xs)

    return integrate(integrand, 0.0, _DENSITY_CUT).value


def _rounding(x):
    """How far apart two abscissae near x may lie and still count as one
    point: a few units in the last place, what forming them differently
    (a grid point, a cell split, x + j*delta) leaves between them."""
    return 16.0 * np.spacing(np.abs(x))


def _lattice(grid: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The probe lattice of one side and the lattice index of each grid point.

    The lattice is the grid points plus each cell split into k equal parts,
    k = ceil(w / PROBE_DELTA) for a cell of width w (1 for a narrower cell).
    Each split point is formed once, as grid[c] + (grid[c+1] - grid[c]) * j / k,
    so the neighbouring stencils that share it share it bitwise.  A grid
    that starts above 0 is first extended towards 0 by its first step, by
    at most as many steps as it has cells: the lattice below its first
    point joins the Green's pass, so that the head [0, grid[0]] is
    integrated on cells no wider than the grid's own.
    """
    n = grid.size
    if n > 1 and grid[0] > 0:
        w0 = grid[1] - grid[0]
        steps = np.arange(min(math.floor((grid[0] + tol) / w0), n - 1), 0, -1)
        grid = np.concatenate((np.maximum(grid[0] - w0 * steps, 0.0), grid))
    w = np.diff(grid)
    k = np.maximum(np.ceil((w - tol) / PROBE_DELTA), 1).astype(int)
    cell = np.repeat(np.arange(w.size), k)
    first = np.cumsum(k) - k
    j = np.arange(cell.size) - first[cell]
    lat = np.append(grid[cell] + w[cell] * j / k[cell], grid[-1])
    return lat, np.append(first, lat.size - 1)[grid.size - n:]


def _probe_groups(grid: np.ndarray) -> tuple[np.ndarray, list]:
    """Residual probe layout of one side: its lattice (see ``_lattice``) and
    (mask, probe matrix, stencil coefficients, squared steps) per stencil kind.

    A point's step delta is the largest multiple of its lattice gap (the
    smaller of the two next to it) not above PROBE_DELTA, so delta lies in
    [PROBE_DELTA/2, PROBE_DELTA]: w/k on a cell split k ways, or m grid
    steps on a grid finer than PROBE_DELTA.  Centered five-point stencils
    take their probes from the lattice wherever its points there are evenly
    spaced up to rounding; elsewhere (at the ends of the lattice and where
    cells of different width meet) the probes are x + j*delta, still evenly
    spaced, since a five-point stencil with unequal sides is only third
    order.  A point closer than 2*delta to the boundary whose lattice
    stencil is not evenly spaced (x = 0 among them) takes the forward
    six-point stencil of step delta/4 at x: a centered stencil there would
    need a step below x/2, which divides the ~1e-16 noise of f by its
    square.
    """
    tol = float(_rounding(grid[-1] + 2 * PROBE_DELTA))
    lat, at = _lattice(grid, tol)
    gaps = np.append(np.diff(lat), np.inf)
    gap = np.minimum(gaps[at], np.where(at > 0, gaps[at - 1], np.inf))
    gap[np.isinf(gap)] = PROBE_DELTA  # a lone point has no cell
    mult = np.maximum(np.floor((PROBE_DELTA + tol) / gap), 1)
    delta = mult * gap

    idx = at[:, None] + mult.astype(int)[:, None] * _C5_OFFSETS.astype(int)
    on = lat[np.clip(idx, 0, lat.size - 1)]
    even = (idx[:, 0] >= 0) & (idx[:, -1] < lat.size) & (np.ptp(np.diff(on), axis=1) <= tol)
    steps = np.where(even, (on[:, -1] - on[:, 0]) / 4.0, delta)
    probes = np.where(even[:, None], on, grid[:, None] + steps[:, None] * _C5_OFFSETS)
    near = ~even & (grid < 2 * delta)

    groups = []
    for mask, pr, coef, st in (
        (~near, probes, _C5_COEF, steps),
        (near, grid[:, None] + (delta[:, None] / 4.0) * _F6_OFFSETS, _F6_COEF, delta / 4.0),
    ):
        if mask.any():
            groups.append((mask, pr[mask], coef, st[mask] ** 2))
    return lat, groups


def _halfline_solve(sides: list[tuple[list[TestFunction], np.ndarray]]) -> list[list[dict]]:
    """Solve the half-line Stein equation for every (test functions, grid)
    side in ``sides``, all in one Green's pass; see module docstring.

    The pass returns values at the sorted union of 0, every side's grid
    points, its residual probe points and its lattice below its first point
    (see ``_lattice``), and carries the right-hand sides
    [every side's h, ..., 1].  Its cells end at the grid points, the
    lattice below them and the probes past the last grid point, so the
    tail is laid out as if every probe were a cell edge; the other probes
    are read inside their cells.  Each h is then finished on its own rows and
    its own side's points (expectation ratio, f, f', f'', probe residual),
    so its result is bitwise independent of every other h.  Returns
    one list of result dicts per side.  ``_solve_batch`` checks the grids.
    """
    laid, edges, points = [], [], []
    for hs, grid in sides:
        lat, groups = _probe_groups(grid)
        laid.append((hs, grid, groups))
        head = lat[lat < grid[0]]
        edges += [head, grid]
        points += [head, grid] + [g[1].ravel() for g in groups]
    # x = 0 is a cell edge of every pass, where the boundary values are read.
    tp = _distinct(np.concatenate(points + [np.zeros(1)]))
    top = max(grid[-1] for _, grid, _ in laid)
    cells = _distinct(np.concatenate(edges + [tp[tp > top]]))

    fns = [tf.fn for hs, _, _ in laid for tf in hs]
    out = green_pass(cells, fns + [_ones], _SCALE, points=tp)
    g_1, gp_1 = out["g"][-1], out["g_prime"][-1]
    I1 = float(out["full_line"][-1])

    def finish(j, tf, grid, idx_grid, groups):
        """Row j of the pass as the solution for tf on its side's grid, whose
        points sit at idx_grid in the pass and whose probe groups carry
        their probes' pass indices."""
        hv = _vectorized(tf.fn)
        Eh = float(out["full_line"][j]) / I1
        f_tp = _PREF_F * (out["g"][j] - Eh * g_1)
        fp_tp = _PREF_FP * (out["g_prime"][j] - Eh * gp_1)
        ht_tp = hv(tp) - Eh
        fpp_tp = (tp / 3.0) * f_tp + ht_tp

        for name, arr in (("f", f_tp), ("f_prime", fp_tp), ("f_double_prime", fpp_tp)):
            bad = ~np.isfinite(arr)
            if bad.any():
                x_bad = float(tp[bad][0])
                raise NonFiniteError(
                    f"non-finite {name} at x={x_bad!r} during Stein solve for "
                    f"h={tf.label}",
                    x=x_bad,
                )

        # Independent ODE residual from probe re-evaluations of f.
        resid = np.empty(grid.size)
        for mask, pidx, coef, steps_sq in groups:
            fd2 = (f_tp[pidx] @ coef) / steps_sq
            resid[mask] = np.abs(
                fd2 - (grid[mask] / 3.0) * f_tp[idx_grid[mask]] - ht_tp[idx_grid[mask]]
            )
        residual_sup = float(np.max(resid))
        error_estimate = float(out["error_estimate"][j] + out["error_estimate"][-1])
        if residual_sup > RESIDUAL_TOL:
            raise SolverAccuracyError(
                f"Stein solve for h={tf.label}: residual {residual_sup:.3e} "
                f"exceeds tolerance {RESIDUAL_TOL:.1e}",
                diagnostics={
                    "h": tf.label,
                    "residual_sup": residual_sup,
                    "argmax_x": float(grid[int(np.argmax(resid))]),
                    "expectation_h": Eh,
                    "quadrature_error_estimate": error_estimate,
                },
            )

        return {
            "grid": grid,
            "f": f_tp[idx_grid],
            "f_prime": fp_tp[idx_grid],
            "f_double_prime": fpp_tp[idx_grid],
            "htilde": ht_tp[idx_grid],
            "expectation_h": Eh,
            "residuals": resid,
            "residual_sup": residual_sup,
            "boundary_residual": float(fp_tp[0] / GAMMA_2_3 - f_tp[0] / GAMMA_1_3),
            "error_estimate": error_estimate,
        }

    rows = iter(range(len(fns)))
    results = []
    for hs, grid, groups in laid:
        # Pass indices of the side's points and probes, once for all its h.
        idx_grid = np.searchsorted(tp, grid)
        groups = [
            (mask, np.searchsorted(tp, probes.ravel()).reshape(probes.shape), coef, sq)
            for mask, probes, coef, sq in groups
        ]
        results.append([finish(next(rows), tf, grid, idx_grid, groups) for tf in hs])
    return results


def _bound_constants() -> tuple[float, float, float]:
    c1 = 3.0 ** (2.0 / 3.0) * math.pi * _GI_NORM
    c2 = 3.0 ** (1.0 / 3.0) * math.pi * _GI_PRIME_NORM
    c3 = 3.0 ** (-2.0 / 3.0) * math.pi * _XGI_NORM + 1.0
    return c1, c2, c3


_BOUND_NOTE = (
    "htilde sup norm is a grid supremum (a lower bound of the true sup); "
    "the right-hand sides of the bound inequalities use it"
)


def _bound_report(f, fp, fpp, htilde_sup: float) -> BoundReport:
    c1, c2, c3 = _bound_constants()
    sup_f = float(np.max(np.abs(f)))
    sup_fp = float(np.max(np.abs(fp)))
    sup_fpp = float(np.max(np.abs(fpp)))
    b1, b2, b3 = c1 * htilde_sup, c2 * htilde_sup, c3 * htilde_sup
    # Roundoff slack so that e.g. constant h (everything exactly zero in
    # exact arithmetic) counts as satisfied.
    eps = 1e-12
    ok = sup_f <= b1 + eps and sup_fp <= b2 + eps and sup_fpp <= b3 + eps
    return BoundReport(sup_f, sup_fp, sup_fpp, b1, b2, b3, ok, _BOUND_NOTE)


def _mirrored(tf: TestFunction) -> TestFunction:
    """s -> h(-s) on s >= 0: the right-hand side of the negative side."""
    hv = _vectorized(tf.fn)

    def h_neg(s):
        return hv(-np.asarray(s, dtype=float))

    return TestFunction(h_neg, tf.sup_norm, f"{tf.label}(-x)", tf.even)


def _solution(tf: TestFunction, grid: np.ndarray, sides: list[dict]) -> SteinSolution:
    """tf's solution on ``grid`` from its solved sides: the half line alone,
    or the x >= 0 side and the mirrored x < 0 side.  The mirror side's
    arrays in t = |x| are reversed onto x < 0 (f' changes sign) and meet the
    x >= 0 side at 0, where f'' keeps the 0+ branch; the values at 0 are the
    sides' rows there.  A lone side's arrays are the solution's own."""
    pos, neg = sides[0], (sides[1] if len(sides) == 2 else None)

    def glue(key, sign=1.0):
        return pos[key] if neg is None else np.concatenate((sign * neg[key][:0:-1], pos[key]))

    f, fp, fpp = glue("f"), glue("f_prime", -1.0), glue("f_double_prime")
    ht_sup = max(float(np.max(np.abs(s["htilde"]))) for s in sides)
    at_zero = {}
    if neg is not None:
        at_zero = dict(
            f_zero=float(pos["f"][0]),
            fp_zero_plus=float(pos["f_prime"][0]),
            fp_zero_minus=float(-neg["f_prime"][0]),
            fpp_zero_plus=float(pos["f_double_prime"][0]),
            fpp_zero_minus=float(neg["f_double_prime"][0]),
        )
    return SteinSolution(
        grid=grid,
        f=f,
        f_prime=fp,
        f_double_prime=fpp,
        kind="half-line" if neg is None else "symmetric",
        expectation_h=pos["expectation_h"],
        expectation_h_neg=None if neg is None else neg["expectation_h"],
        residual_sup=max(s["residual_sup"] for s in sides),
        bound_report=_bound_report(f, fp, fpp, ht_sup),
        residuals=glue("residuals"),
        boundary_residual=pos["boundary_residual"] if neg is None else None,
        error_estimate=sum(s["error_estimate"] for s in sides),
        label=tf.label,
        _sides=tuple((s["grid"], s["f"], s["f_prime"], s["f_double_prime"]) for s in sides),
        **at_zero,
    )


def _solve_batch(hs, grid: np.ndarray | None, symmetric: bool) -> list[SteinSolution]:
    """Solve the Stein equation for every test function in ``hs`` on one grid.

    One Green's pass serves the call: it carries [h_1..h_k, 1] on the half
    line and [h_1..h_k, h_1(-.)..h_k(-.), 1] on the symmetric line, over the
    union of both sides' points.  Every solution is bitwise independent of
    the other members of ``hs``.
    """
    tfs = [_as_test_function(h) for h in hs]
    # A copy: the solutions freeze their grid, which must not be the caller's.
    grid = default_grid(symmetric) if grid is None else np.array(_as_floats(grid))
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("solver grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise DomainError("solver grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("solver grid must be strictly increasing")
    if symmetric and (0.0 not in grid or grid[0] >= 0 or grid[-1] <= 0):
        raise DomainError("symmetric grid must contain 0 and points of both signs")
    if not symmetric and grid[0] < 0:
        raise DomainError("solver grid must lie in [0, x_max]")
    reach = max(-grid[0], grid[-1])
    if reach > X_MAX_CAP:
        raise DomainError(f"solver refuses |x|_max > {X_MAX_CAP} (grid reaches {reach})")

    sides = [(tfs, grid)]
    if symmetric:
        # Mirror grid includes 0 so that for even h both half-line problems
        # are literally identical (bitwise-equal solutions at the shared points).
        neg_mirror = np.concatenate(([0.0], -grid[grid < 0][::-1]))
        sides = [(tfs, grid[grid >= 0]), ([_mirrored(tf) for tf in tfs], neg_mirror)]
    return [_solution(tf, grid, s) for tf, *s in zip(tfs, *_halfline_solve(sides))]


def solve_stein(h, grid: np.ndarray | None = None) -> SteinSolution:
    """Solve f'' - (1/3) x f = h - E[h(Y)] on a half-line grid."""
    return _solve_batch([h], grid, symmetric=False)[0]


def solve_stein_sym(h, grid: np.ndarray | None = None) -> SteinSolution:
    """Solve f'' - (1/3)|x| f = h^ on a symmetric grid containing 0.

    h^ recenters h by E[h(Y)] on [0, inf) and by E[h(-Y)] on (-inf, 0); the
    negative side reduces to a mirrored half-line solve with h(-s).
    """
    return _solve_batch([h], grid, symmetric=True)[0]


def check_domain(obj) -> DomainCheck:
    """Membership test for the solution spaces.

    Accepts a SteinSolution, or a (f, f') callable pair (optionally
    (f, f', f'')) treated as a half-line candidate; anything else raises
    DomainError.  Returns a falsy DomainCheck with human-readable reasons
    on failure.
    """
    reasons = []
    if isinstance(obj, SteinSolution):
        for name, arr in (
            ("f", obj.f),
            ("f_prime", obj.f_prime),
            ("f_double_prime", obj.f_double_prime),
        ):
            if not np.all(np.isfinite(arr)):
                reasons.append(f"{name} is not bounded on the working grid")
        if obj.kind == "half-line":
            if abs(obj.boundary_residual) > _BOUNDARY_TOL:
                reasons.append(
                    "boundary identity f'(0)/Gamma(2/3) - f(0)/Gamma(1/3) = "
                    f"{obj.boundary_residual:.3e} exceeds {_BOUNDARY_TOL:.1e}"
                )
        else:
            if abs(obj.f_zero) > _ZERO_TOL:
                reasons.append(f"f(0) = {obj.f_zero:.3e} exceeds {_ZERO_TOL:.1e}")
        return DomainCheck(not reasons, tuple(reasons))

    fns = tuple(obj) if isinstance(obj, (tuple, list)) else ()
    if not 2 <= len(fns) <= 3 or not all(map(callable, fns)):
        raise DomainError(
            f"check_domain takes a SteinSolution or an (f, f'[, f'']) tuple of "
            f"callables, got {type(obj).__name__}"
        )
    f, fp = fns[0], fns[1]
    fpp = fns[2] if len(fns) > 2 else None
    xs = np.linspace(0.0, 12.0, 241)
    fv = _vectorized(f)
    vals = fv(xs)
    if not np.all(np.isfinite(vals)):
        reasons.append("f is not finite on the working grid")
    fpv = _vectorized(fp)(xs)
    if not np.all(np.isfinite(fpv)):
        reasons.append("f' is not finite on the working grid")
    if fpp is not None and not np.all(np.isfinite(_vectorized(fpp)(xs))):
        reasons.append("f'' is not finite on the working grid")
    b = float(fp(0.0)) / GAMMA_2_3 - float(f(0.0)) / GAMMA_1_3
    if abs(b) > _BOUNDARY_TOL:
        reasons.append(
            "boundary identity f'(0)/Gamma(2/3) - f(0)/Gamma(1/3) = "
            f"{b:.10g} is nonzero"
        )
    return DomainCheck(not reasons, tuple(reasons))


def verify_bounds(sol: SteinSolution, h) -> BoundReport:
    """Check the three sup-norm bounds of the half-line solution theory.

    The constants are 3^(2/3) pi ||Gi||, 3^(1/3) pi ||Gi'||, and
    3^(-2/3) pi sup|x Gi(x)| + 1, with the Scorer norms frozen in
    ``specfun``.  ||h~|| is the grid supremum of |h - E[h(Y)]|.
    """
    if sol.kind != "half-line":
        raise DomainError("verify_bounds applies to half-line solutions")
    tf = _as_test_function(h)
    hv = _vectorized(tf.fn)
    ht_sup = float(np.max(np.abs(hv(sol.grid) - sol.expectation_h)))
    return _bound_report(sol.f, sol.f_prime, sol.f_double_prime, ht_sup)


def general_particular_solution(k: float, f, x):
    """Particular solution q of q'' - k^2 x q = f(x) on the half line.

    Variation of parameters with the homogeneous pair Ai(k^(2/3) x),
    Bi(k^(2/3) x), whose Wronskian in x is k^(2/3)/pi:

        q(x) = -k^(-2/3) pi [ Ai(k^(2/3) x) int_0^x Bi(k^(2/3) t) f(t) dt
                            + Bi(k^(2/3) x) int_x^inf Ai(k^(2/3) t) f(t) dt ]

    At k = 3^(-1/2) and f = h~ this is exactly the Stein solution kernel;
    at k = 1 and f = -1/pi it reproduces Scorer's Gi.
    """
    k = _as_float(k)
    if not 0 < k < math.inf:
        raise DomainError(f"general_particular_solution requires finite k > 0, got {k}")
    fn = f.fn if isinstance(f, TestFunction) else f
    return -(k ** (-2.0 / 3.0)) * math.pi * _green_at(
        x, fn, k ** (2.0 / 3.0), "general_particular_solution"
    )[0]
