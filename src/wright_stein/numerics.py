"""Adaptive quadrature and gamma-function facilities.

Everything downstream (special functions, densities, Stein solvers) runs on
the two integrators in this module.  The adaptive rule is a Gauss-Legendre
7/15 pair: the 15-point value is kept, the |GL15 - GL7| gap is the embedded
error estimate, and the worst interval is bisected until the global estimate
meets the configured tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteError, ToleranceNotMetError

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "gamma_fn",
    "integrate",
    "integrate_semi_infinite",
    "cell_integrals",
    "GAMMA_1_3",
    "GAMMA_2_3",
    "GAMMA_4_3",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for the adaptive integrators.

    ``truncation_point`` is the upper cutoff that stands in for +inf in
    semi-infinite integrals, in the untransformed variable.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    truncation_point: float = 40.0

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("abs_tol and rel_tol must be positive")
        if not 0 < self.truncation_point < math.inf:
            raise DomainError("truncation_point must be positive and finite")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be a positive integer")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")


DEFAULT_CONFIG = QuadratureConfig()

# Gauss-Legendre nodes/weights on [-1, 1]; machine precision via numpy.
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)

GAMMA_1_3 = 2.678938534707747633655693
GAMMA_2_3 = 1.354117939426400416945288
GAMMA_4_3 = 0.8929795115692492112185643


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments.

    Negative arguments and poles are out of scope; they raise DomainError.
    """
    if not (x > 0):
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


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
    i15 = half * float(np.dot(_GL15_W, ys[:15]))
    i7 = half * float(np.dot(_GL7_W, ys[15:]))
    err = abs(i15 - i7) + 1e-300
    return i15, err, xs.size


def integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> IntegralResult:
    """Adaptive integration of f over [a, b].

    On success the reported error estimate satisfies
    ``error <= max(abs_tol, rel_tol * |value|)``.  If the subdivision budget
    runs out first, ToleranceNotMetError carries the best estimate.
    """
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

    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        if subdivisions >= cfg.max_subdivisions:
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

    return IntegralResult(total_val, total_err, n_eval)


def integrate_semi_infinite(
    f: Callable,
    a: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tail_bound: float = 0.0,
) -> IntegralResult:
    """Integrate f over [a, inf), truncating at cfg.truncation_point.

    The caller is responsible for the tail: f must decay at least
    exponentially beyond the truncation point, and ``tail_bound`` should be a
    bound on |integral of f over [truncation_point, inf)| from that decay
    envelope.  It is added to the reported error estimate.
    """
    tail_bound = abs(tail_bound)
    if a > cfg.truncation_point:
        return IntegralResult(0.0, tail_bound, 0)
    r = integrate(f, a, cfg.truncation_point, cfg)
    return IntegralResult(r.value, r.error_estimate + tail_bound, r.evaluations)


def cell_integrals(
    f: Callable,
    edges: np.ndarray,
    cell_tol: float = 1e-13,
) -> tuple[np.ndarray, float, int]:
    """Per-cell integrals of f over consecutive intervals of a sorted grid.

    Returns (cell_values, total_error_estimate, evaluations).  All cells are
    evaluated in one vectorized GL15/GL7 pass; the rare cell whose embedded
    error exceeds ``cell_tol * max(1, |value|)`` falls back to the adaptive
    integrator.  Cumulative integrals over an n-point grid thus cost O(n)
    evaluations (the tests tabulate the M_{1/3} CDF this way); the Green's
    passes in ``specfun`` grade their own cells and do not call it.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("cell_integrals needs at least two grid edges")
    fv = _vectorized(f)

    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs15 = mid[:, None] + half[:, None] * _GL15_X[None, :]
    xs7 = mid[:, None] + half[:, None] * _GL7_X[None, :]
    xs = np.concatenate((xs15.ravel(), xs7.ravel()))
    ys = fv(xs)
    _check_finite(xs, ys)
    y15 = ys[: xs15.size].reshape(xs15.shape)
    y7 = ys[xs15.size :].reshape(xs7.shape)
    vals = half * (y15 @ _GL15_W)
    errs = np.abs(vals - half * (y7 @ _GL7_W))
    n_eval = xs.size

    bad = np.nonzero(errs > cell_tol * np.maximum(1.0, np.abs(vals)))[0]
    if bad.size:
        refine_cfg = QuadratureConfig(
            abs_tol=max(cell_tol, 1e-15),
            rel_tol=max(cell_tol, 1e-15),
            max_subdivisions=4096,
        )
        for idx in bad:
            r = integrate(fv, float(edges[idx]), float(edges[idx + 1]), refine_cfg)
            vals[idx] = r.value
            errs[idx] = r.error_estimate
            n_eval += r.evaluations

    return vals, float(np.sum(errs)), n_eval
