"""Airy functions on the non-negative axis, Scorer's Gi, Mittag-Leffler, and
the Wright M function.

Airy evaluation uses two branches.  Below ``AIRY_SWITCH`` the two Maclaurin
auxiliary series are summed in double-double arithmetic: Ai is the small
difference of two fast-growing series, and the extra precision keeps the
cancellation error below the target even where plain doubles would lose six
or more digits.  At and above the switch the standard asymptotic expansions
in zeta = (2/3) x^(3/2) are used, where their optimal-truncation error is
below 3e-16 relative.  The two branches agree on an overlap band around the
switch point; that agreement is asserted by a shipped test.

Everything multiplied across large separations (the Green's-function cross
products Ai(a) * integral of Bi, and so on) goes through the exponentially
scaled fields, so no intermediate ever overflows.

The Wright M function is Kanter's positive integral, so nothing cancels and
no multi-precision arithmetic is needed; the Mittag-Leffler series, the
independent side of the Laplace identity, keeps its multi-precision fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np
from scipy.special import gammaln, rgamma

from .errors import AiryOverflowError, DomainError, RangeError
from .numerics import (
    _GL7_W,
    _GL7_X,
    _GL15_W,
    _GL15_X,
    QuadratureConfig,
    _check_finite,
    _vectorized,
    integrate,
)

__all__ = [
    "AiryValues",
    "airy",
    "airy_many",
    "airy_ai_tail_integral",
    "scorer_gi",
    "scorer_gi_prime",
    "scorer_gi_norms",
    "mittag_leffler",
    "wright_m_series",
    "AIRY_SWITCH",
    "GREEN_U_MAX",
    "WRIGHT_BETA_MAX",
]

AIRY_SWITCH = 9.0

# ---------------------------------------------------------------------------
# Double-double kernels (vectorized).  Standard Dekker/Knuth error-free
# transformations; each value is an unevaluated sum hi + lo.
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _quick_two_sum(a, b):
    s = a + b
    e = b - (s - a)
    return s, e


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def _dd_add(ahi, alo, bhi, blo):
    s, e = _two_sum(ahi, bhi)
    e = e + alo + blo
    return _quick_two_sum(s, e)


def _dd_mul(ahi, alo, bhi, blo):
    p, e = _two_prod(ahi, bhi)
    e = e + ahi * blo + alo * bhi
    return _quick_two_sum(p, e)


def _dd_mul_d(ahi, alo, b):
    p, e = _two_prod(ahi, b)
    e = e + alo * b
    return _quick_two_sum(p, e)


def _dd_div_d(ahi, alo, b):
    q1 = ahi / b
    p, pe = _two_prod(q1, b)
    s, e = _two_sum(ahi, -p)
    e = e + alo - pe
    q2 = (s + e) / b
    return _quick_two_sum(q1, q2)


# Ai(0) and -Ai'(0) as double-double constants (hi, lo), 32 significant
# digits; frozen from a high-precision evaluation and validated in tests
# against gamma_fn.
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_NEG_AIP0 = (0.2588194037928068, -2.522243111610832e-17)
_SQRT3 = (1.7320508075688772, 1.0035084221806903e-16)


def _airy_series_core(x: np.ndarray):
    """Maclaurin branch.  Returns dd pairs for (ai, aip, bi, bip), unscaled.

    Valid for 0 <= x <= ~10.6: beyond that the double-double headroom
    (~1e-32) no longer covers the e^(2 zeta) cancellation in Ai.
    """
    x = np.asarray(x, dtype=float)
    x2hi, x2lo = _two_prod(x, x)
    x3hi, x3lo = _dd_mul_d(x2hi, x2lo, x)

    one = np.ones_like(x)
    zero = np.zeros_like(x)

    f1 = [one.copy(), zero.copy()]
    g1 = [x.copy(), zero.copy()]
    u1hi, u1lo = _dd_div_d(x2hi, x2lo, 2.0)
    f1p = [u1hi.copy(), u1lo.copy()]
    g1p = [one.copy(), zero.copy()]

    tf = [one.copy(), zero.copy()]
    tg = [x.copy(), zero.copy()]
    tu = [u1hi.copy(), u1lo.copy()]
    tv = [one.copy(), zero.copy()]

    for k in range(1, 400):
        tf[0], tf[1] = _dd_mul(tf[0], tf[1], x3hi, x3lo)
        tf[0], tf[1] = _dd_div_d(tf[0], tf[1], float((3 * k - 1) * (3 * k)))
        f1[0], f1[1] = _dd_add(f1[0], f1[1], tf[0], tf[1])

        tg[0], tg[1] = _dd_mul(tg[0], tg[1], x3hi, x3lo)
        tg[0], tg[1] = _dd_div_d(tg[0], tg[1], float((3 * k) * (3 * k + 1)))
        g1[0], g1[1] = _dd_add(g1[0], g1[1], tg[0], tg[1])

        # f1' terms: u_{k+1} = u_k * x^3 / ((3k+2)(3k))
        tu[0], tu[1] = _dd_mul(tu[0], tu[1], x3hi, x3lo)
        tu[0], tu[1] = _dd_div_d(tu[0], tu[1], float((3 * k + 2) * (3 * k)))
        f1p[0], f1p[1] = _dd_add(f1p[0], f1p[1], tu[0], tu[1])

        # g1' terms: v_k = v_{k-1} * x^3 / ((3k)(3k-2))
        tv[0], tv[1] = _dd_mul(tv[0], tv[1], x3hi, x3lo)
        tv[0], tv[1] = _dd_div_d(tv[0], tv[1], float((3 * k) * (3 * k - 2)))
        g1p[0], g1p[1] = _dd_add(g1p[0], g1p[1], tv[0], tv[1])

        tmax = max(
            float(np.max(np.abs(tf[0]))),
            float(np.max(np.abs(tg[0]))),
            float(np.max(np.abs(tu[0]))),
            float(np.max(np.abs(tv[0]))),
        )
        smin = float(np.min(np.abs(f1[0])))
        if tmax < 1e-36 * smin:
            break

    def combine(fc, gc):
        # alpha*f - beta*g and sqrt3*(alpha*f + beta*g) pieces
        afhi, aflo = _dd_mul(fc[0], fc[1], *_AI0)
        bghi, bglo = _dd_mul(gc[0], gc[1], *_NEG_AIP0)
        ahi, alo = _dd_add(afhi, aflo, -bghi, -bglo)
        shi, slo = _dd_add(afhi, aflo, bghi, bglo)
        bhi_, blo_ = _dd_mul(shi, slo, *_SQRT3)
        return (ahi, alo), (bhi_, blo_)

    ai, bi = combine(f1, g1)
    aip, bip = combine(f1p, g1p)
    return ai, aip, bi, bip


def _airy_series(x: np.ndarray):
    """Maclaurin branch collapsed to doubles: (ai, aip, bi, bip)."""
    ai, aip, bi, bip = _airy_series_core(x)
    return (
        ai[0] + ai[1],
        aip[0] + aip[1],
        bi[0] + bi[1],
        bip[0] + bip[1],
    )


def _airy_asymptotic(x: np.ndarray):
    """Asymptotic branch; returns scaled fields (ai_s, aip_s, bi_s, bip_s).

    Sums the standard expansions in 1/zeta, stopping at the smallest term.
    At the production switch point the optimal-truncation error is below
    3e-16 relative; tests exercise the branch down to x ~ 7.8.
    """
    x = np.asarray(x, dtype=float)
    # zeta overflows to inf past x ~ 1e205; the scaled fields do not need it.
    with np.errstate(over="ignore"):
        zeta = (2.0 / 3.0) * x * np.sqrt(x)
    s = 1.0 / zeta

    sum_ai = np.ones_like(x)
    sum_bi = np.ones_like(x)
    sum_aip = np.ones_like(x)
    sum_bip = np.ones_like(x)
    term = np.ones_like(x)  # u_k * zeta^{-k}
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
    return ai_s, aip_s, bi_s, bip_s, zeta


# Piecewise-Chebyshev cache of Ai, Ai', Bi, Bi' on [0, AIRY_SWITCH].
# Built once from the double-double Maclaurin series in extended precision
# and rounded to doubles; evaluation then costs one degree-18 Clenshaw
# recurrence in doubles instead of ~35 double-double iterations.
# The cache stores the unscaled entire functions (Chebyshev converges
# spectrally for them; the scaled fields carry a u^(3/2) branch point at 0),
# and scaling by e^(+-zeta) happens at evaluation time.  Per interval the
# dynamic range is at most e^2.4, so interval-relative accuracy carries over
# to value-relative accuracy.  Shipped tests assert cache-vs-series
# agreement near 1e-14 and cache-vs-mpmath agreement to 1e-15 relative.
_N_CHEB_INT = 36
_CHEB_DEG = 18
_CHEB_EDGES = np.linspace(0.0, AIRY_SWITCH, _N_CHEB_INT + 1)
# Interval midpoints and half-widths; the edges are multiples of 1/4, so
# both are exact and so is the map to t in [-1, 1].
_CHEB_MID = 0.5 * (_CHEB_EDGES[1:] + _CHEB_EDGES[:-1])
_CHEB_HALF = 0.5 * (_CHEB_EDGES[1:] - _CHEB_EDGES[:-1])


@lru_cache(maxsize=1)
def _cheb_coefs() -> np.ndarray:
    n = _CHEB_DEG + 1
    ld = np.longdouble
    pi_ld = ld(math.pi) + ld(1.2246467991473532e-16)  # double-double pi
    k = np.arange(n)
    theta_ld = pi_ld * (2 * k + 1).astype(ld) / ld(2 * n)
    t_nodes = np.cos(theta_ld)
    # Discrete cosine transform matrix mapping values to coefficients.
    # Built and applied in extended precision so the stored coefficients are
    # correct to well under a double ulp; their rounding otherwise dominates
    # the absolute-error budget of the growing pair Bi, Bi'.
    dct = (ld(2) / ld(n)) * np.cos(np.outer(k.astype(ld), theta_ld))
    dct[0] *= ld(0.5)
    # All 36 x 19 nodes in one series call.
    a, b = _CHEB_EDGES[:-1, None], _CHEB_EDGES[1:, None]
    xs_ld = ld(0.5) * (a + b).astype(ld) + ld(0.5) * (b - a).astype(ld) * t_nodes
    xs = np.asarray(xs_ld, dtype=float)
    # The series eats doubles; shift its output to the exact nodes with
    # a first-order Taylor step (y'' = x y supplies the derivatives).
    # Without this the f' * (node displacement) error dominates.
    delta = xs_ld - xs.astype(ld)
    ai, aip, bi, bip = (
        (hi.astype(ld) + lo.astype(ld)).reshape(xs.shape)
        for hi, lo in _airy_series_core(xs.ravel())
    )
    u = xs.astype(ld)
    vals = np.stack(
        (ai + aip * delta, aip + u * ai * delta, bi + bip * delta, bip + u * bi * delta),
        axis=1,
    )
    coefs = vals @ dct.T  # (interval, function, degree)
    # Coefficient-major doubles, (degree, function, interval), so each
    # Clenshaw step gathers one contiguous (4, _N_CHEB_INT) slab.
    return np.ascontiguousarray(coefs.astype(float).transpose(2, 1, 0))


def _airy_entire_cached(u: np.ndarray):
    """Unscaled (ai, aip, bi, bip) for u in [0, AIRY_SWITCH).

    One Clenshaw recurrence in doubles over all points and all four
    functions, each point gathering its own interval's coefficients.
    """
    coefs = _cheb_coefs()
    idx = np.clip(
        np.searchsorted(_CHEB_EDGES, u, side="right") - 1, 0, _N_CHEB_INT - 1
    )
    t = (u - _CHEB_MID[idx]) / _CHEB_HALF[idx]
    t2 = 2.0 * t
    # numpy.polynomial.chebyshev.chebval's recurrence, vectorized over points.
    c0 = np.take(coefs[-2], idx, axis=1)
    c1 = np.take(coefs[-1], idx, axis=1)
    for k in range(_CHEB_DEG - 2, -1, -1):
        c0, c1 = np.take(coefs[k], idx, axis=1) - c1, c0 + c1 * t2
    out = c0 + c1 * t
    return out[0], out[1], out[2], out[3]


def _times_exp(scaled, z, ez):
    """scaled * e^z for scaled > 0, given ez = exp(z).  Where e^z alone
    overflows but the product still fits (Bi up to x ~ 104.43 while e^zeta
    ends at x ~ 104.27), the product is formed as exp(z + log(scaled))."""
    v = scaled * ez
    far = np.isinf(v)
    v[far] = np.exp(z[far] + np.log(scaled[far]))
    return v


class AiryArrays(NamedTuple):
    """Vectorized Airy bundle; all fields are arrays aligned with x."""

    x: np.ndarray
    ai: np.ndarray
    ai_prime: np.ndarray
    bi: np.ndarray
    bi_prime: np.ndarray
    zeta: np.ndarray
    ai_scaled: np.ndarray
    bi_scaled: np.ndarray
    ai_prime_scaled: np.ndarray
    bi_prime_scaled: np.ndarray


def airy_many(xs) -> AiryArrays:
    """Evaluate Ai, Bi and derivatives on an array of non-negative points.

    Unscaled fields follow e^(+-zeta) and may overflow to inf / underflow to
    zero for very large x; the scaled fields are valid everywhere.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and float(np.min(xs)) < 0:
        raise DomainError("airy requires x >= 0")
    shape = xs.shape
    flat = xs.ravel()

    ai = np.empty_like(flat)
    aip = np.empty_like(flat)
    bi = np.empty_like(flat)
    bip = np.empty_like(flat)
    with np.errstate(over="ignore"):  # inf past x ~ 1e205, as e^zeta is
        zeta = (2.0 / 3.0) * flat * np.sqrt(flat)
    ai_s = np.empty_like(flat)
    aip_s = np.empty_like(flat)
    bi_s = np.empty_like(flat)
    bip_s = np.empty_like(flat)

    lo = flat < AIRY_SWITCH
    if lo.any():
        a, apr, b, bpr = _airy_entire_cached(flat[lo])
        ez = np.exp(zeta[lo])
        ai[lo], aip[lo], bi[lo], bip[lo] = a, apr, b, bpr
        ai_s[lo] = a * ez
        aip_s[lo] = apr * ez
        bi_s[lo] = b / ez
        bip_s[lo] = bpr / ez
    hi = ~lo
    if hi.any():
        a_s, ap_s, b_s, bp_s, z = _airy_asymptotic(flat[hi])
        ai_s[hi], aip_s[hi], bi_s[hi], bip_s[hi] = a_s, ap_s, b_s, bp_s
        with np.errstate(over="ignore", under="ignore"):
            ez = np.exp(z)
            ai[hi] = a_s / ez
            aip[hi] = ap_s / ez
            bi[hi] = _times_exp(b_s, z, ez)
            bip[hi] = _times_exp(bp_s, z, ez)

    def r(v):
        return v.reshape(shape)

    return AiryArrays(
        r(flat), r(ai), r(aip), r(bi), r(bip), r(zeta),
        r(ai_s), r(bi_s), r(aip_s), r(bip_s),
    )


@dataclass(frozen=True)
class AiryValues:
    """Ai, Bi and derivatives at one point, with exponentially scaled forms.

    ``ai_scaled = ai * e^zeta`` and ``bi_scaled = bi * e^-zeta`` with
    zeta = (2/3) x^(3/2); cross products Ai(a)Bi(b) for a > b are formed as
    exp(zeta_b - zeta_a) * ai_scaled(a) * bi_scaled(b) without overflow.
    """

    x: float
    ai: float
    ai_prime: float
    bi: float
    bi_prime: float
    zeta: float
    ai_scaled: float
    bi_scaled: float
    ai_prime_scaled: float
    bi_prime_scaled: float


def airy(x: float) -> AiryValues:
    """Airy bundle at a single non-negative point.

    Raises DomainError for x < 0 and AiryOverflowError when an unscaled
    field leaves double range: Bi' does from x ~ 104.22 and Bi from
    x ~ 104.43.  Use airy_many / scaled fields for extreme arguments.
    """
    x = float(x)
    if not x >= 0:
        raise DomainError(f"airy requires x >= 0, got {x}")
    a = airy_many(np.array([x]))
    if not np.isfinite([a.ai, a.ai_prime, a.bi, a.bi_prime]).all():
        raise AiryOverflowError(
            f"unscaled Bi or Bi' overflows at x={x!r}; "
            "use airy_many and the scaled fields"
        )
    return AiryValues(*(float(v[0]) for v in a))


# ---------------------------------------------------------------------------
# Green's integrals: Scorer's Gi and the Stein solver kernel
# ---------------------------------------------------------------------------

# Quadrature cells are graded in zeta = (2/3) u^(3/2), the exponent of the
# Airy kernels: a cell spans at most _ZETA_STEP, so neither kernel changes by
# more than e^_ZETA_STEP across it.  The tail ends _ZETA_CUT e-folds past the
# last grid point.
_ZETA_STEP = 1.0
_ZETA_CUT = 45.0
# Largest scale * x a Green's pass accepts: beyond ~1e10 a zeta step of 1
# falls below the rounding of zeta itself and the grading collapses.
GREEN_U_MAX = 1e8
# Points per pass in _green_at; a pass holds ~4.5 kB per point at its peak.
_GREEN_CHUNK = 4096

_SCORER_CFG = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=4000)


def _zeta_gap(ua, ub, du):
    """zeta(ua) - zeta(ub) from du = ua - ub, without the cancellation of
    subtracting two large zetas.  Passing du computed from the exact offset
    keeps the rounding of ua and ub out of the exponent."""
    ra, rb = np.sqrt(ua), np.sqrt(ub)
    return (2.0 / 3.0) * du * (ua + ra * rb + ub) / (ra + rb)


def _cell_edges(grid: np.ndarray, scale: float):
    """Cell edges of a Green's pass: 0, the grid and the tail cutoff, with
    each cell wider than _ZETA_STEP in zeta split equally in zeta.

    A cell wider than 2 * _ZETA_CUT is graded over _ZETA_CUT from each end
    only.  The cell left in between is returned marked in ``dropped``: both
    kernels there are below e^-_ZETA_CUT of their values at the ends of the
    cell it was cut from, so it contributes nothing but its decay.  The
    edges depend on grid and scale alone, never on a right-hand side.
    """
    u_last = scale * grid[-1]
    t_cut = (1.5 * ((2.0 / 3.0) * u_last * math.sqrt(u_last) + _ZETA_CUT)) ** (
        2.0 / 3.0
    ) / scale
    edges = np.concatenate(([0.0] if grid[0] > 0 else [], grid, [t_cut]))
    u = scale * edges
    z = (2.0 / 3.0) * u * np.sqrt(u)
    span = _zeta_gap(u[1:], u[:-1], scale * np.diff(edges))
    pieces, middles = [edges], []
    for i in np.nonzero(span > _ZETA_STEP)[0]:
        if span[i] <= 2 * _ZETA_CUT:
            n = math.ceil(span[i] / _ZETA_STEP)
            zs = z[i] + span[i] * np.arange(1, n) / n
        else:
            ks = _ZETA_STEP * np.arange(1, round(_ZETA_CUT / _ZETA_STEP) + 1)
            zs = np.concatenate((z[i] + ks, z[i + 1] - ks[::-1]))
        ts = (1.5 * zs) ** (2.0 / 3.0) / scale
        if span[i] > 2 * _ZETA_CUT:
            middles.append(ts[ks.size - 1])
        pieces.append(ts[(ts > edges[i]) & (ts < edges[i + 1])])
    edges = np.unique(np.concatenate(pieces))
    return edges, np.isin(edges[:-1], middles)


def green_pass(
    grid: np.ndarray,
    rhs_fns: list[Callable],
    scale: float,
    cfg: QuadratureConfig = _SCORER_CFG,
):
    """Cumulative scaled prefix/suffix Airy Green's integrals over a grid.

    For sorted grid points g_i >= 0 and u = scale * g, computes, for each
    right-hand side r in ``rhs_fns``,

        P_i = int_0^{g_i}   Bi(scale*t) r(t) dt * e^{-zeta(u_i)}
        S_i = int_{g_i}^inf Ai(scale*t) r(t) dt * e^{+zeta(u_i)}

    and the full-line integral int_0^inf Ai(scale*t) r(t) dt, in one O(n)
    pass of per-cell GL15/GL7 quadrature.  The cells are the grid cells, a
    head [0, g_0] and a tail reaching 45 e-folds of the Ai kernel past the
    last grid point, each split into cells equally spaced in zeta where it
    spans more than one e-fold (see ``_cell_edges``); dense grids keep their
    own cells.  Every exponential is carried in relative, non-positive form,
    so nothing overflows, and exponent differences are formed without
    cancellation, so far-out points keep full accuracy.

    One Airy evaluation at all quadrature nodes serves every right-hand side.
    The cells depend on grid and scale only, so each right-hand side's result
    is bitwise independent of the others.  A cell whose embedded
    |GL15 - GL7| estimate for one right-hand side exceeds
    ``max(cfg.abs_tol, cfg.rel_tol * |value|)`` is redone by the adaptive
    integrator for that right-hand side alone.

    Returns a dict with the Airy fields at the grid, P and S of shape
    (len(rhs_fns), n), ``full_line`` of shape (len(rhs_fns),), an error
    estimate per right-hand side, shape (len(rhs_fns),), and the number of
    integrand evaluations.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("green_pass needs a 1-d non-empty grid")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("green_pass grid must be strictly increasing")
    if grid[0] < 0:
        raise DomainError("green_pass grid must be non-negative")

    if scale * grid[-1] > GREEN_U_MAX:
        raise RangeError(
            f"Green's integrals support scale * x <= {GREEN_U_MAX:g}, "
            f"got {scale * grid[-1]:g}"
        )

    rvs = [_vectorized(r) for r in rhs_fns]
    m = len(rvs)
    ag = airy_many(scale * grid)
    edges, dropped = _cell_edges(grid, scale)
    ue = scale * edges
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]

    # One row per cell: its 15 GL15 nodes, then its 7 GL7 nodes.
    gl_x = np.concatenate((_GL15_X, _GL7_X))
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * gl_x
    an = airy_many(scale * nodes)
    evals = nodes.size * m

    # Kernels relative to the owning cell's edge: P to its right edge, S to
    # its left, every exponent <= 0.  Exponents come from each node's offset
    # within its cell, so far-out nodes lose nothing to their rounding.
    wP = an.bi_scaled * np.exp(-_zeta_gap(ue[1:, None], an.x, scale * half * (1 - gl_x)))
    wS = an.ai_scaled * np.exp(-_zeta_gap(an.x, ue[:-1, None], scale * half * (1 + gl_x)))
    wP[dropped] = wS[dropped] = 0.0

    def kernel_p(a, i):
        return a.bi_scaled * np.exp(-_zeta_gap(ue[i + 1], a.x, ue[i + 1] - a.x))

    def kernel_s(a, i):
        return a.ai_scaled * np.exp(-_zeta_gap(a.x, ue[i], a.x - ue[i]))

    cellP = np.empty((m, half.size))
    cellS = np.empty((m, half.size))
    err = np.zeros(m)
    for j, rv in enumerate(rvs):
        hv = rv(nodes.ravel())
        _check_finite(nodes.ravel(), hv)
        hv = hv.reshape(nodes.shape)
        for tgt, w, kernel in ((cellP[j], wP, kernel_p), (cellS[j], wS, kernel_s)):
            vals = w * hv
            i15 = half[:, 0] * (vals[:, :15] @ _GL15_W)
            e = np.abs(i15 - half[:, 0] * (vals[:, 15:] @ _GL7_W))
            for i in np.nonzero(e > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(i15)))[0]:
                r = integrate(
                    lambda ts, k=kernel, rv=rv, i=i: k(airy_many(scale * ts), i) * rv(ts),
                    float(edges[i]), float(edges[i + 1]), cfg,
                )
                i15[i], e[i] = r.value, r.error_estimate
                evals += r.evaluations
            tgt[:] = i15
            err[j] += float(np.sum(e))
    # Beyond the cutoff and in each dropped cell the kernels are below e^-45
    # of their values at the nearest kept edge.
    err += math.exp(-_ZETA_CUT) * (1 + np.count_nonzero(dropped))

    decay = np.exp(-_zeta_gap(ue[1:], ue[:-1], scale * 2.0 * half[:, 0]))
    P = np.zeros((m, edges.size))
    S = np.zeros((m, edges.size))
    for i in range(edges.size - 1):
        P[:, i + 1] = P[:, i] * decay[i] + cellP[:, i]
    for i in range(edges.size - 2, -1, -1):
        S[:, i] = cellS[:, i] + decay[i] * S[:, i + 1]

    at_grid = np.searchsorted(edges, grid)
    return {
        "grid": grid,
        "airy": ag,
        "P": P[:, at_grid],
        "S": S[:, at_grid],
        "full_line": S[:, 0],  # edges[0] = 0, where e^zeta = 1
        "error_estimate": err,
        "evaluations": evals,
    }


def _ones(t):
    return np.ones_like(t)


def _green_at(x, r: Callable, scale: float, cfg: QuadratureConfig, name: str):
    """Green's passes at arbitrary points x >= 0 (any shape and order).

    Returns floats for a scalar x, else arrays shaped like x: Ai P + Bi S,
    Ai' P + Bi' S (formed from the scaled fields) and int_x^inf Ai(scale t)
    r(t) dt.  Gi and Gi' are the first two at r = 1, scale = 1.  The sorted
    distinct points go through one pass per _GREEN_CHUNK of them, which
    bounds the memory of the ~22 quadrature nodes per point.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0) & np.isfinite(xs)):
        raise DomainError(f"{name} requires finite x >= 0")
    uniq, inv = np.unique(xs.ravel(), return_inverse=True)
    parts = []
    for chunk in np.array_split(uniq, max(1, -(-uniq.size // _GREEN_CHUNK))):
        out = green_pass(chunk, [r], scale, cfg)
        a, P, S = out["airy"], out["P"][0], out["S"][0]
        parts.append((
            a.ai_scaled * P + a.bi_scaled * S,
            a.ai_prime_scaled * P + a.bi_prime_scaled * S,
            S * np.exp(-a.zeta),
        ))
    combos = (np.concatenate(c)[inv].reshape(xs.shape) for c in zip(*parts))
    return tuple(float(c) if c.ndim == 0 else c for c in combos)


def scorer_gi(x, cfg: QuadratureConfig = _SCORER_CFG):
    """Scorer's function Gi(x) = Ai(x) int_0^x Bi + Bi(x) int_x^inf Ai.

    Accepts scalars (returns a float) or arrays of x.
    """
    return _green_at(x, _ones, 1.0, cfg, "scorer_gi")[0]


def scorer_gi_prime(x, cfg: QuadratureConfig = _SCORER_CFG):
    """Gi'(x) = Ai'(x) int_0^x Bi + Bi'(x) int_x^inf Ai, for scalars or arrays.

    Obtained by differentiating the defining integral form of Gi directly;
    the boundary cross terms cancel through the Wronskian.
    """
    return _green_at(x, _ones, 1.0, cfg, "scorer_gi_prime")[1]


def airy_ai_tail_integral(x, cfg: QuadratureConfig = _SCORER_CFG):
    """int_x^inf Ai(t) dt, computed without subtracting from 1/3; scalars or
    arrays of x."""
    return _green_at(x, _ones, 1.0, cfg, "airy_ai_tail_integral")[2]


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


@lru_cache(maxsize=1)
def _scorer_norm_detail():
    # One pass on [0, 40] yields Gi and Gi' for all three first rounds.
    xs = np.linspace(0.0, 40.0, 8001)
    gi, gip, _ = _green_at(xs, _ones, 1.0, _SCORER_CFG, "scorer_gi")
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


def scorer_gi_norms() -> tuple[float, float]:
    """(sup |Gi|, sup |x Gi(x)|) over [0, 40] by grid search with refinement.

    Both suprema are attained at interior points located by the search; the
    maximizers are available from the cached detail dict used in tests.
    """
    d = _scorer_norm_detail()
    return d["gi_norm"], d["xgi_norm"]


# ---------------------------------------------------------------------------
# Mittag-Leffler function (real axis, series with adaptive precision)
# ---------------------------------------------------------------------------

ML_Z_MAX = 30.0
_SERIES_MAX_TERMS = 300_000
_SERIES_MAX_PREC = 65_536


def _series_scan(log_abs_z: float, log_gamma_term, tol: float):
    """Double-precision scan of log|term_n|; returns (n_stop, phi_max).

    ``log_gamma_term(n)`` must return the n-dependent log-denominator.
    Pole terms show up as -inf dips, so truncation is decided on the suffix
    maximum of the log-magnitudes, not on the first small term.
    """
    target = math.log(tol) - 50.0
    n_hi = 64
    while True:
        ns = np.arange(n_hi + 1, dtype=float)
        phi = ns * log_abs_z - log_gamma_term(ns)
        phi_max = float(np.max(phi))
        # Largest remaining term from index n onward (within the window).
        suffix = np.maximum.accumulate(phi[::-1])[::-1]
        decayed = np.nonzero(suffix < target)[0]
        # Only trust the cut if the window extends beyond it; the envelope
        # decays monotonically once factorial growth takes over.
        if decayed.size and decayed[0] <= n_hi - 10:
            return int(decayed[0]), phi_max
        if n_hi >= _SERIES_MAX_TERMS:
            raise RangeError(
                "series does not reach its decay regime within "
                f"{_SERIES_MAX_TERMS} terms; argument outside practical range"
            )
        n_hi *= 2


def _as_small_fraction(beta: float, max_den: int = 64):
    fr = Fraction(beta).limit_denominator(max_den)
    if abs(float(fr) - beta) <= 4e-16:
        return fr
    return None


def mittag_leffler(beta: float, z: float, abs_tol: float = 1e-10) -> float:
    """E_beta(z) = sum z^n / Gamma(beta n + 1) for real z, beta in (0, 1].

    Partial sums with adaptive truncation.  When the largest term is big
    enough that double-precision cancellation would exceed the tolerance the
    summation is rerun in multi-precision arithmetic sized from a term-
    magnitude scan, so results are accurate across the supported range.
    """
    if not (0 < beta <= 1):
        raise DomainError(f"mittag_leffler requires beta in (0, 1], got {beta}")
    z = float(z)
    if abs(z) > ML_Z_MAX:
        raise RangeError(
            f"mittag_leffler supports |z| <= {ML_Z_MAX}, got {z} "
            "(series cancellation beyond double precision)"
        )
    if z == 0.0:
        return 1.0
    # A positive-z result ~ exp(z^(1/beta))/beta must fit in a double.
    if z > 0 and z ** (1.0 / beta) > 700.0:
        raise RangeError(
            f"mittag_leffler({beta}, {z}) exceeds double range "
            "(result ~ exp(z**(1/beta))/beta)"
        )

    n_stop, phi_max = _series_scan(
        math.log(abs(z)), lambda ns: gammaln(beta * ns + 1.0), abs_tol
    )

    # Fast path: no meaningful cancellation at double precision.
    if math.exp(min(phi_max, 700.0)) * 2.3e-16 * math.sqrt(n_stop + 1) < 0.1 * abs_tol:
        ns = np.arange(n_stop + 1, dtype=float)
        mags = np.exp(ns * math.log(abs(z)) - gammaln(beta * ns + 1.0))
        signs = np.where(ns % 2 == 0, 1.0, -1.0) if z < 0 else 1.0
        return float(np.sum(signs * mags))

    prec = int(64 + max(0.0, (phi_max - math.log(abs_tol * 1e-6)) / math.log(2.0)))
    if prec > _SERIES_MAX_PREC:
        raise RangeError(
            f"mittag_leffler({beta}, {z}) needs {prec} bits of working "
            f"precision, above the cap of {_SERIES_MAX_PREC}"
        )

    fr = _as_small_fraction(beta)
    with mp.workprec(prec):
        stop = mp.mpf(2) ** (-prec + 8)
        zm = mp.mpf(z)
        if fr is not None:
            p, q = fr.numerator, fr.denominator
            zq = zm**q
            total = mp.mpf(0)
            for r in range(q):
                a = mp.mpf(p * r) / q + 1
                t = zm**r / mp.gamma(a)
                ssum = t
                m = 0
                scale = mp.mpf(1)
                while abs(t) > stop * scale and (q * m + r) <= n_stop + q:
                    denom = mp.mpf(1)
                    for j in range(p):
                        denom *= a + p * m + j
                    t = t * zq / denom
                    ssum += t
                    scale = max(scale, abs(ssum))
                    m += 1
                total += ssum
        else:
            total = mp.mpf(0)
            t_scale = mp.mpf(1)
            for n in range(n_stop + 2):
                t = zm**n / mp.gamma(beta * n + 1)
                total += t
                t_scale = max(t_scale, abs(total))
                if n > 4 and abs(t) < stop * t_scale:
                    break
        return float(total)


# ---------------------------------------------------------------------------
# Wright M function: Kanter's positive integral
# ---------------------------------------------------------------------------

# Largest beta wright_m_series accepts: the rule grows like 1200/(1-beta)
# nodes (120k at the cap).
WRIGHT_BETA_MAX = 0.99
# Below this x, 1/Gamma(1-beta) - x/Gamma(1-2beta) is M_beta(x) to rounding.
_WRIGHT_SMALL_X = 1e-8
# Octaves of geometric panel grading toward each end of [0, pi].
_KANTER_OCTAVES = 40.0
# Node evaluations per block of points.
_KANTER_BLOCK = 1 << 18


def _kanter(beta: float, u, sinc_phi):
    """Kanter's kappa(phi) = sin(beta phi)^beta sin((1-beta) phi)^(1-beta) /
    sin(phi) at phi = pi u, u in [0, 1), given sinc_phi = sin(phi)/phi.

    kappa = K^(1-beta) for Zolotarev's K(phi).  Written with normalized sincs,
    so u = 0 gives the limit beta^beta (1-beta)^(1-beta) with no 0/0.
    """
    b1 = 1.0 - beta
    return (beta * np.sinc(beta * u)) ** beta * (b1 * np.sinc(b1 * u)) ** b1 / sinc_phi


@lru_cache(maxsize=16)
def _kanter_rule(beta: float):
    """(kappa, weights) at the nodes of Kanter's integral over [0, pi].

    GL15 on panels graded geometrically toward both ends, each panel
    2^(1-beta) times shorter than the one before, over _KANTER_OCTAVES
    octaves.  K = kappa^(1/(1-beta)) then changes by about 2 per panel
    whatever beta is.  Nodes are built from their offset t to the nearer end,
    so sin(phi) = sin(t) keeps full relative accuracy next to pi, where
    kappa ~ 1/t.  The weights carry kappa / ((1-beta) pi).
    """
    b1 = 1.0 - beta
    hi = 0.5 * math.pi * 2.0 ** (-b1 * np.arange(math.ceil(_KANTER_OCTAVES / b1) + 1))
    lo = np.append(hi[1:], 0.0)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    t = (mid[:, None] + half[:, None] * _GL15_X).ravel()
    w = np.tile((half[:, None] * _GL15_W).ravel(), 2)
    phi = np.concatenate((t, np.pi - t))
    kappa = _kanter(beta, phi / np.pi, np.sin(np.tile(t, 2)) / phi)
    return kappa, w * kappa / (b1 * np.pi)


def wright_m_series(beta: float, x):
    """M_beta(x) = sum_n (-x)^n / (n! Gamma(1 - beta - beta n)) for x >= 0.

    Computed from Kanter's integral for the one-sided stable law, whose
    integrand is positive:

        M_beta(x) = x^(beta/(1-beta)) / ((1-beta) pi)
                    * int_0^pi K(phi) exp(-x^(1/(1-beta)) K(phi)) dphi,

    evaluated as kappa z^beta e^-z with z = (x kappa)^(1/(1-beta)), which
    stays in range for every x.  Below x = 1e-8 the value is
    1/Gamma(1-beta) - x/Gamma(1-2beta).  Accepts scalars (returns a float)
    or arrays of x; beta up to WRIGHT_BETA_MAX.
    """
    if not (0 <= beta < 1):
        raise DomainError(f"wright_m_series requires beta in [0, 1), got {beta}")
    if beta > WRIGHT_BETA_MAX:
        raise RangeError(
            f"wright_m_series supports beta <= {WRIGHT_BETA_MAX}, got {beta}"
        )
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0) & np.isfinite(xs)):
        raise DomainError("wright_m_series requires finite x >= 0")
    flat = xs.ravel()
    out = rgamma(1.0 - beta) - flat * rgamma(1.0 - 2.0 * beta)
    kappa, wk = _kanter_rule(beta)
    a = 1.0 / (1.0 - beta)
    far = np.nonzero(flat >= _WRIGHT_SMALL_X)[0]
    step = max(1, _KANTER_BLOCK // kappa.size)
    for i in range(0, far.size, step):
        idx = far[i : i + step]
        # Where z overflows, e^-z is 0 anyway; capping z at 750 (e^-750 = 0
        # in doubles) keeps z^beta e^-z from forming inf * 0.
        with np.errstate(over="ignore"):
            z = np.minimum((flat[idx, None] * kappa) ** a, 750.0)
        out[idx] = (wk * z**beta * np.exp(-z)).sum(axis=1)
    out = out.reshape(xs.shape)
    return float(out) if out.ndim == 0 else out
