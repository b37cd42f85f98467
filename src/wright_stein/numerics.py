"""Adaptive quadrature, the Kronrod cell screen, and gamma-function
facilities.

The package has one quadrature tolerance, ``TOL``: an integral is accepted
when its error estimate is at most ``TOL * max(1, |value|)``.  The adaptive
rule is a Gauss-Legendre 7/15 pair: the 15-point value is kept, the
|GL15 - GL7| gap is the embedded error estimate, and the worst interval is
bisected until the global estimate meets ``TOL`` or ``MAX_SUBDIVISIONS``
run out.  Tables of cell integrals (the Green's passes in ``specfun`` and
``cell_integrals``) are screened cell by cell with the nested Gauss-Kronrod
7/15 pair instead (QUADPACK's qk15: the 7 Gauss nodes are among the 15
Kronrod nodes, so |K15 - G7| costs no extra evaluation), and the rare cell
that misses ``TOL`` is handed to ``integrate``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteError, RangeError, ToleranceNotMetError

__all__ = [
    "IntegralResult",
    "gamma_fn",
    "integrate",
    "cell_integrals",
    "GAMMA_1_3",
    "GAMMA_2_3",
    "GAMMA_4_3",
    "TOL",
    "MAX_SUBDIVISIONS",
]


# The one quadrature tolerance: error <= TOL * max(1, |value|).
TOL = 1e-10
MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")


# Gauss-Legendre nodes/weights on [-1, 1]; machine precision via numpy.
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)

# Gauss-Kronrod 7/15 on [-1, 1], QUADPACK qk15 (Piessens et al. 1983): the
# positive Kronrod nodes, descending, and the weights of those nodes and of 0.
_K15_POS = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_K15_WPOS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# Ascending, so that the odd-indexed nodes _K15_X[1::2] are the GL7 nodes and
# take the _GL7_W weights.
_K15_X = np.concatenate((np.negative(_K15_POS), [0.0], _K15_POS[::-1]))
_K15_W = np.concatenate((_K15_WPOS, _K15_WPOS[-2::-1]))


@lru_cache(maxsize=1)
def _k15_legendre() -> np.ndarray:
    """The (15, 15) map from values at the nodes _K15_X to the Legendre
    coefficients c_0..c_14 of their degree-14 interpolant p.

    c_n = (2n + 1)/2 * int P_n p, and GL15 integrates the degree <= 28
    products P_n p exactly, so the map needs only p at the GL15 nodes, its
    Lagrange form there: no linear solve.
    """
    # ratio[j, k, m] = (y_j - x_m) / (x_k - x_m), with 1 where m = k.
    eye = np.eye(15, dtype=bool)
    num = _GL15_X[:, None, None] - _K15_X
    den = np.where(eye, 1.0, _K15_X[:, None] - _K15_X)
    lagrange = np.where(eye, 1.0, num / den).prod(axis=2)  # l_k(y_j)
    vander = np.polynomial.legendre.legvander(_GL15_X, 14)  # P_n(y_j)
    leg = (np.arange(15) + 0.5)[:, None] * ((vander.T * _GL15_W) @ lagrange)
    leg.setflags(write=False)  # one shared copy
    return leg


def _k15_partial_weights(tau: np.ndarray) -> np.ndarray:
    """Weights of the partial integrals int_{-1}^tau and int_tau^1 of the
    15-node interpolant, shape (2, tau.size, 15): row 0 is exactly 0 at
    tau = -1 and row 1 at tau = 1, where the other row is ``_K15_W``.

    From the Legendre form: int_{-1}^tau P_0 = tau + 1 and, for n >= 1,
    int_{-1}^tau P_n = (P_{n+1} - P_{n-1})(tau) / (2n + 1) = -int_tau^1 P_n.
    """
    tau = np.asarray(tau, dtype=float)
    v = np.polynomial.legendre.legvander(tau, 15)
    lo = np.empty((2, tau.size, 15))
    lo[0, :, 0] = tau + 1.0
    lo[0, :, 1:] = (v[:, 2:] - v[:, :-2]) / (2 * np.arange(1, 15) + 1)
    lo[1, :, 0] = 1.0 - tau
    lo[1, :, 1:] = -lo[0, :, 1:]
    return lo @ _k15_legendre()


GAMMA_1_3 = 2.678938534707747633655693
GAMMA_2_3 = 1.354117939426400416945288
GAMMA_4_3 = 0.8929795115692492112185643


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments.

    Negative arguments and poles are out of scope; they raise DomainError.
    Arguments whose Gamma overflows a double (x > ~171.6) raise RangeError.
    """
    if not (x > 0):
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    try:
        g = math.gamma(x)
    except OverflowError:
        g = math.inf
    if g == math.inf:  # math.gamma(inf) returns inf
        raise RangeError(f"gamma_fn({x}) overflows a double")
    return g


def _is_int(x) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_float(x) -> float:
    """float(x), with a number past the double range (a huge int) read as
    the infinity of its sign, so that it is refused as that infinity is.
    Anything that is not a number raises DomainError naming it."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        raise DomainError(f"expected a real number, got {x!r}") from None


def _as_floats(x) -> np.ndarray:
    """np.asarray(x, dtype=float), each number read as by _as_float."""
    try:
        return np.asarray(x, dtype=float)
    except (OverflowError, TypeError, ValueError):
        obj = np.asarray(x, dtype=object)
        return np.array([_as_float(v) for v in obj.ravel().tolist()]).reshape(obj.shape)


# Validate the precomputed constants against gamma_fn at import time.
for _c, _x in ((GAMMA_1_3, 1 / 3), (GAMMA_2_3, 2 / 3), (GAMMA_4_3, 4 / 3)):
    assert abs(_c - gamma_fn(_x)) <= 1e-14 * _c


def _vectorized(f: Callable) -> Callable:
    """Wrap f so it maps an ndarray of abscissae to an ndarray of values."""

    def call(xs: np.ndarray) -> np.ndarray:
        try:
            ys = np.asarray(f(xs), dtype=float)
            if ys.shape == xs.shape:
                return ys
        except (TypeError, ValueError):
            pass
        return np.array([f(float(x)) for x in xs], dtype=float)

    return call


def _check_finite(xs: np.ndarray, ys: np.ndarray) -> None:
    bad = ~np.isfinite(ys)
    if bad.any():
        x0 = float(xs[bad][0])
        raise NonFiniteError(f"integrand returned a non-finite value at x={x0!r}", x=x0)


def _gl_pair(fv: Callable, a: float, b: float) -> tuple[float, float, int]:
    """GL15 value and |GL15-GL7| error estimate on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = np.concatenate((mid + half * _GL15_X, mid + half * _GL7_X))
    ys = fv(xs)
    _check_finite(xs, ys)
    with np.errstate(over="ignore", invalid="ignore"):
        i15 = half * float(np.dot(_GL15_W, ys[:15]))
        i7 = half * float(np.dot(_GL7_W, ys[15:]))
    err = abs(i15 - i7) + 1e-300
    return i15, err, xs.size


def integrate(f: Callable, a: float, b: float) -> IntegralResult:
    """Adaptive integration of f over [a, b].

    Both bounds must be finite.  On success the reported error estimate
    satisfies ``error <= TOL * max(1, |value|)``.  If ``MAX_SUBDIVISIONS``
    run out first, ToleranceNotMetError carries the best estimate.  An
    integral whose rule sums leave double range raises RangeError.
    """
    a, b = _as_float(a), _as_float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integrate requires finite bounds, got a={a}, b={b}")
    if not (a <= b):
        raise DomainError(f"integrate requires a <= b, got a={a}, b={b}")
    if a == b:
        return IntegralResult(0.0, 0.0, 0)

    fv = _vectorized(f)
    val, err, n_eval = _gl_pair(fv, a, b)
    # Max-heap on interval error, via negated key.
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    subdivisions = 0

    while total_err > TOL * max(1.0, abs(total_val)):
        if subdivisions >= MAX_SUBDIVISIONS:
            best = IntegralResult(total_val, total_err, n_eval)
            raise ToleranceNotMetError(
                f"tolerance not met after {subdivisions} subdivisions "
                f"(best value {total_val!r}, error estimate {total_err:.3e})",
                best,
            )
        _, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        lv, le, n1 = _gl_pair(fv, ia, im)
        rv, re, n2 = _gl_pair(fv, im, ib)
        n_eval += n1 + n2
        total_val += lv + rv - ival
        total_err += le + re - ierr
        heapq.heappush(heap, (-le, ia, im, lv, le))
        heapq.heappush(heap, (-re, im, ib, rv, re))
        subdivisions += 1

    # An overflowing rule sum stops the loop with an inf or NaN total.
    if not (math.isfinite(total_val) and math.isfinite(total_err)):
        raise RangeError(f"the integral over [{a!r}, {b!r}] leaves double range")
    return IntegralResult(total_val, total_err, n_eval)


def _kronrod_cells(
    ys: np.ndarray, half: np.ndarray, redo: Callable[[int], IntegralResult]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Screen a table of cells with the nested Gauss-Kronrod 7/15 pair.

    ``ys`` holds one row of integrand values per cell at its 15 nodes
    ``mid + half * _K15_X``, and ``half`` the cells' half-widths.  Each cell
    gets its K15 value and the |K15 - G7| estimate; a cell whose estimate
    misses ``TOL`` takes value and estimate from ``redo(i)`` instead.
    Returns (values, error estimates, evaluations made by ``redo``).
    """
    vals = half * (ys @ _K15_W)
    errs = np.abs(vals - half * (ys[:, 1::2] @ _GL7_W))
    n_eval = 0
    for i in np.nonzero(errs > TOL * np.maximum(1.0, np.abs(vals)))[0]:
        r = redo(i)
        vals[i], errs[i] = r.value, r.error_estimate
        n_eval += r.evaluations
    return vals, errs, n_eval


def cell_integrals(f: Callable, edges: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Per-cell integrals of f over consecutive intervals of a sorted grid.

    Returns (cell_values, total_error_estimate, evaluations).  All cells are
    evaluated in one vectorized pass at their 15 Kronrod nodes and screened
    like the cells of a Green's pass (``_kronrod_cells``): the rare cell
    that misses ``TOL`` falls back to ``integrate``.  Cumulative integrals
    over an n-point grid thus cost O(n) evaluations (the tests tabulate the
    M_{1/3} CDF this way).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("cell_integrals needs at least two grid edges")
    fv = _vectorized(f)
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _K15_X
    ys = fv(xs.ravel())
    _check_finite(xs.ravel(), ys)
    vals, errs, n_redo = _kronrod_cells(
        ys.reshape(xs.shape),
        half,
        lambda i: integrate(fv, float(edges[i]), float(edges[i + 1])),
    )
    return vals, float(np.sum(errs)), xs.size + n_redo
