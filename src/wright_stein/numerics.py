"""Adaptive quadrature, the Kronrod cell screen, and gamma-function
facilities.

The package has one quadrature tolerance, ``TOL``: an integral is accepted
when its error estimate is at most ``TOL * max(1, |value|)``.  It has one
rule, the nested Gauss-Kronrod 7/15 pair (QUADPACK's qk15, Piessens et al.
1983), whose 7 Gauss nodes are among its 15 Kronrod nodes, so |K15 - G7|
costs no extra evaluation.  ``_kronrod_cells`` screens tables of cells with
it, and ``_adaptive`` settles whatever the screen misses, and
``integrate``'s intervals, with the same pair in array rounds.
"""

from __future__ import annotations

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
# Halvings one interval may take before ToleranceNotMetError.
MAX_SUBDIVISIONS = 2000
# Elements (points, quadrature nodes or draws) per block of an array loop's
# temporaries.  The CSV blocks are their own, each sized by measurement: a
# written value holds ~450 B of temporaries, and a read block counts characters.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")


# Gauss-Legendre nodes/weights on [-1, 1]; machine precision via numpy.
_GL7_W = np.polynomial.legendre.leggauss(7)[1]
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


def _kronrod_cells(ys: np.ndarray, half: np.ndarray):
    """Screen cells with the nested K15/G7 pair: ``ys`` holds each cell's
    integrand at ``mid + half * _K15_X`` on its last axis, ``half`` the
    half-widths, shaped like ``ys @ _K15_W``.  Returns the K15 values, the
    |K15 - G7| estimates and the mask of estimates over ``TOL``."""
    vals = half * (ys @ _K15_W)
    errs = np.abs(vals - half * (ys[..., 1::2] @ _GL7_W))
    return vals, errs, errs > TOL * np.maximum(1.0, np.abs(vals))


def _adaptive(f: Callable, a: np.ndarray, b: np.ndarray):
    """Integrate over every interval [a[k], b[k]] at once, in array rounds.

    ``f(t, k)`` gives the integrand at nodes ``t`` of shape (pieces, 15) of
    pieces of the intervals ``k``.  Each round applies the K15/G7 pair to
    the new pieces.  An interval is done when its pieces' estimates sum to
    at most its budget, ``TOL * max(1, |value|)``; otherwise each piece
    above its width's share of the budget is halved (the budget split of
    scipy's ``quad_vec``).  Halvings are counted and pieces summed per
    interval, so no interval's value, estimate or refusal depends on the
    others.  Returns values, estimates and evaluations per interval.  Sums
    that leave double range raise RangeError, and an interval that needs
    more than ``MAX_SUBDIVISIONS`` halvings ToleranceNotMetError with its
    best estimate.
    """
    n = a.size
    vals, errs = np.zeros(n), np.zeros(n)
    evals, halvings = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    kept = (np.zeros(0, dtype=int),) + (np.zeros(0),) * 4  # k, lo, hi, value, estimate
    kn, lo, hi = np.arange(n), a, b  # the pieces to evaluate
    while kn.size:
        half = 0.5 * (hi - lo)
        t = (0.5 * (hi + lo))[:, None] + half[:, None] * _K15_X
        ys = f(t, kn)
        _check_finite(t, ys)
        evals += 15 * np.bincount(kn, minlength=n)
        with np.errstate(over="ignore", invalid="ignore"):
            # One row per product: BLAS rounds a row by where it falls among
            # the others, which would make pieces depend on their neighbours.
            v, e, _ = _kronrod_cells(ys[:, None], half[:, None])
            k, lo, hi, v, e = map(np.concatenate, zip(kept, (kn, lo, hi, v[:, 0], e[:, 0])))
            tv, te = np.bincount(k, v, n), np.bincount(k, e, n)
            vals[k], errs[k] = tv[k], te[k]
            budget = TOL * np.maximum(1.0, np.abs(tv))
            bad = ~(np.isfinite(tv) & np.isfinite(te))
            live = (te > budget) & ~bad
            split = live[k] & (e > budget[k] * ((hi - lo) / (b - a)[k]))
            # Rounded piece widths can leave none above its share: halve all.
            split |= (live & (np.bincount(k[split], minlength=n) == 0))[k]
        if bad.any():
            i = np.argmax(bad)
            raise RangeError(f"the integral over [{a[i]}, {b[i]}] leaves double range")
        more = np.bincount(k[split], minlength=n)
        if np.any(halvings + more > MAX_SUBDIVISIONS):
            i = np.argmax(halvings + more > MAX_SUBDIVISIONS)
            best = IntegralResult(float(vals[i]), float(errs[i]), int(evals[i]))
            raise ToleranceNotMetError(
                f"tolerance not met after {halvings[i]} subdivisions (best value "
                f"{best.value!r}, error estimate {best.error_estimate:.3e})", best)
        halvings += more
        keep = live[k] & ~split
        kept = (k[keep], lo[keep], hi[keep], v[keep], e[keep])
        mid = 0.5 * (lo[split] + hi[split])
        kn, lo, hi = np.tile(k[split], 2), np.r_[lo[split], mid], np.r_[mid, hi[split]]
    return vals, errs, evals


def integrate(f: Callable, a: float, b: float) -> IntegralResult:
    """Adaptive integration of f over [a, b] by ``_adaptive``; both bounds
    must be finite.  On success the reported error estimate satisfies
    ``error <= TOL * max(1, |value|)``.  If the interval needs more than
    ``MAX_SUBDIVISIONS`` halvings, ToleranceNotMetError carries the best
    estimate; rule sums that leave double range raise RangeError.
    """
    a, b = _as_float(a), _as_float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integrate requires finite bounds, got a={a}, b={b}")
    if not (a <= b):
        raise DomainError(f"integrate requires a <= b, got a={a}, b={b}")
    if a == b:
        return IntegralResult(0.0, 0.0, 0)
    fv = _vectorized(f)
    v, e, n = _adaptive(lambda t, k: fv(t.ravel()).reshape(t.shape), np.array([a]), np.array([b]))
    return IntegralResult(float(v[0]), float(e[0]), int(n[0]))


def cell_integrals(f: Callable, edges: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Per-cell integrals of f over consecutive intervals of a grid, whose
    edges must be finite and strictly increasing (else DomainError).

    Returns (cell_values, total_error_estimate, evaluations) from one
    ``_adaptive`` call over all cells.  Its first round takes every cell at
    its 15 Kronrod nodes, so cumulative integrals over an n-point grid cost
    O(n) evaluations (the tests tabulate the M_{1/3} CDF this way).
    """
    edges = _as_floats(edges)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("cell_integrals needs at least two grid edges")
    if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
        raise DomainError("cell_integrals edges must be finite and strictly increasing")
    fv = _vectorized(f)
    vals, errs, n = _adaptive(lambda t, k: fv(t.ravel()).reshape(t.shape), edges[:-1], edges[1:])
    return vals, float(np.sum(errs)), int(n.sum())
