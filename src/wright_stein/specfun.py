"""Airy functions on the non-negative axis, Scorer's Gi, Mittag-Leffler, and
the Wright M function.

Airy evaluation uses two Chebyshev branches in doubles.  Below
``AIRY_SWITCH`` a piecewise cache is built from the two Maclaurin auxiliary
series, summed in double-double arithmetic: Ai is the small difference of two
fast-growing series, and the extra precision keeps the cancellation below the
target.  At and above the switch one frozen series in (AIRY_SWITCH/x)^(3/2)
gives the scaled fields, in place of the asymptotic expansions in
zeta = (2/3) x^(3/2).  Shipped tests hold both to 30-digit references, and the
far one to the Maclaurin series on [9, 10.5] and to the expansions.

Everything multiplied across large separations (the Green's-function cross
products Ai(a) * integral of Bi, and so on) goes through the exponentially
scaled fields, so no intermediate ever overflows.

The Wright M function is Kanter's positive integral and the Mittag-Leffler
function the Gorenflo-Mainardi spectral integral, so nothing cancels and no
multi-precision arithmetic is needed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import AiryOverflowError, DomainError, RangeError
from .numerics import (
    _BLOCK,
    _GL15_W,
    _GL15_X,
    _K15_X,
    TOL,
    _adaptive,
    _as_float,
    _as_floats,
    _check_finite,
    _k15_legendre,
    _k15_partial_weights,
    _kronrod_cells,
    _vectorized,
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
    "ML_BETA_MIN",
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
    one, zero = np.ones_like(x), np.zeros_like(x)
    u1hi, u1lo = _dd_div_d(x2hi, x2lo, 2.0)
    # Rows f1, g1, f1' and g1', as sums (shi, slo) and their latest terms
    # (thi, tlo).  Each term is the last one times x^3 over its row's
    # denominator 3k (3k + shift): (3k-1)3k, 3k(3k+1), (3k+2)3k, 3k(3k-2).
    shi, slo = np.stack((one, x, u1hi, one)), np.stack((zero, zero, u1lo, zero))
    thi, tlo = shi.copy(), slo.copy()
    shift = np.array([[-1.0], [1.0], [2.0], [-2.0]])
    for k in range(1, 400):
        thi, tlo = _dd_mul(thi, tlo, x3hi, x3lo)
        thi, tlo = _dd_div_d(thi, tlo, 3 * k * (3 * k + shift))
        shi, slo = _dd_add(shi, slo, thi, tlo)
        if float(np.max(np.abs(thi))) < 1e-36 * float(np.min(np.abs(shi[0]))):
            break

    # Ai = Ai(0) f - (-Ai'(0)) g and Bi = sqrt3 (Ai(0) f + (-Ai'(0)) g), with
    # (f1, f1') against (g1, g1') for (Ai, Ai') and (Bi, Bi').
    fhi, flo = _dd_mul(shi[0::2], slo[0::2], *_AI0)
    ghi, glo = _dd_mul(shi[1::2], slo[1::2], *_NEG_AIP0)
    ahi, alo = _dd_add(fhi, flo, -ghi, -glo)
    bhi, blo = _dd_mul(*_dd_add(fhi, flo, ghi, glo), *_SQRT3)
    return (ahi[0], alo[0]), (ahi[1], alo[1]), (bhi[0], blo[0]), (bhi[1], blo[1])


# Piecewise-Chebyshev cache of Ai, Ai', Bi, Bi' on [0, AIRY_SWITCH].
# Built once from the double-double Maclaurin series in extended precision
# and rounded to doubles; evaluation then costs one degree-18 Clenshaw
# recurrence in doubles instead of ~35 double-double iterations.
# The cache stores the unscaled entire functions (Chebyshev converges
# spectrally for them; the scaled fields carry a u^(3/2) branch point at 0),
# and scaling by e^(+-zeta) happens at evaluation time.  Per interval the
# dynamic range is at most e^2.4, so interval-relative accuracy carries over
# to value-relative accuracy.  Shipped tests assert cache-vs-series
# agreement near 1e-14 and agreement with 30-digit references to 1e-15
# relative.
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
    # Clenshaw step gathers one contiguous (4, interval) slab.
    return np.ascontiguousarray(coefs.astype(float).transpose(2, 1, 0))


# At and past the switch, in the cache's row order: u^(1/4) ai_scaled,
# u^(-1/4) ai_prime_scaled, u^(1/4) bi_scaled and u^(-1/4) bi_prime_scaled,
# one Chebyshev series each in t = 2 (AIRY_SWITCH / u)^(3/2) - 1, which maps
# [AIRY_SWITCH, inf] onto [1, -1].  A row is its value at u = inf, the
# leading term +-1/(2 sqrt(pi)) or 1/sqrt(pi) of the DLMF 9.7 expansions,
# plus a series for the rest, which is below 4e-3 of it: summed apart, the
# rest keeps its rounding near 1e-19 and the row rounds once.  The 17
# coefficients per row are the 40-digit interpolant at 17 Chebyshev nodes,
# lead taken off the first, rounded to doubles; the tests rebuild them
# bitwise.  From index 12 on they are below 2.3e-18 (Bi rows) and 7.6e-21
# (Ai rows), so the series is exact to rounding on the whole half line.
_FAR_LEAD = np.array([[0.5], [-0.5], [1.0], [1.0]]) / math.sqrt(math.pi)
_FAR_COEFS = np.array([
    [-0.0005325760266539851, -0.0005287989196080333, 3.7270967310462878e-06,
     -4.905124032701804e-08, 9.352108989516712e-10, -2.3139161122032968e-11,
     6.987092671097327e-13, -2.4762458274701725e-14, 1.0026101593088e-15,
     -4.5474285724833036e-17, 2.2761288149408805e-18, -1.242586967449915e-19,
     7.329194287174795e-21, -4.6347057577013535e-22, 3.1219055042487507e-23,
     -2.2277120427134833e-24, 1.665396543336066e-25],
    [-0.0007481015383364467, -0.00074362138971729, 4.424044259363549e-06,
     -5.505791762929491e-08, 1.0208353664223696e-09, -2.4837955692312184e-11,
     7.416633687262698e-13, -2.6075251433072133e-14, 1.0494342945162626e-15,
     -4.7375475991805376e-17, 2.362395291498031e-18, -1.285713399315601e-19,
     7.564071342823638e-21, -4.772799583312765e-22, 3.2088974613895094e-23,
     -2.2860572717396827e-24, 1.706597932995303e-25],
    [0.0011138198681770032, 0.0011225343035826004, 8.84915419774533e-06,
     1.3791572911543516e-07, 3.301442699512899e-09, 1.0894234043955284e-10,
     4.6726551754249855e-12, 2.5143254202840276e-13, 1.6608638557558e-14,
     1.3311668122064146e-15, 1.291583032238344e-16, 1.5257032564537085e-17,
     2.1980741396589704e-18, 3.7408566928285963e-19, 6.83813937595362e-20,
     1.1166576363897797e-20, 1.0344005803367714e-21],
    [-0.001553703230582532, -0.0015639596736331533, -1.0406342545202708e-05,
     -1.5335810360115195e-07, -3.5697709624992645e-09, -1.1582784590601392e-10,
     -4.912106851124568e-12, -2.621682773146305e-13, -1.7210325500545723e-14,
     -1.3725423971227693e-15, -1.3261913957332237e-16, -1.560946831349638e-17,
     -2.2420411044116666e-18, -3.8074795346226634e-19, -6.953973714614616e-20,
     -1.13702385858202e-20, -1.0636073693491288e-21],
]).T[:, :, None]  # (degree, row, 1), as _cheb_coefs() holds an interval


@lru_cache(maxsize=1)
def _airy_table() -> np.ndarray:
    """``_cheb_coefs()`` with the far series as one more interval, padded
    with zeros to its degree, which leave the recurrence's arithmetic as is."""
    far = np.zeros((_CHEB_DEG + 1, 4, 1))
    far[: _FAR_COEFS.shape[0]] = _FAR_COEFS
    return np.ascontiguousarray(np.concatenate((_cheb_coefs(), far), axis=2))


def _airy_rows(u: np.ndarray, rows: slice):
    """Rows ``rows`` of ``_airy_table()`` (ai, aip, bi, bip) at u >= 0 of any
    shape, stacked, and the mask of u at or past AIRY_SWITCH.  Below it the
    rows are the unscaled fields; at and past it they are the far series,
    lead added, which the scaled Ai and Bi are over u^(1/4) and the scaled
    derivatives times it.

    One Clenshaw recurrence in doubles, each point gathering its own
    interval's coefficients: numpy's chebval, vectorized and in place,
    (c0, c1) <- (coefs[k] - c1, c0 + c1 * t2), then c0 + c1 * t.  Each row's
    arithmetic is the same whichever rows and points travel with it.
    """
    idx = np.searchsorted(_CHEB_EDGES, u, side="right") - 1
    far = idx == _N_CHEB_INT
    i = np.minimum(idx, _N_CHEB_INT - 1)
    # Each side's map takes the other side's points to a bound, not to inf.
    r = AIRY_SWITCH / np.maximum(u, AIRY_SWITCH)
    t = (np.minimum(u, AIRY_SWITCH) - _CHEB_MID[i]) / _CHEB_HALF[i]
    t = np.where(far, 2.0 * (r * np.sqrt(r)) - 1.0, t)
    coefs = _airy_table()[:, rows]
    t2 = 2.0 * t
    c0 = coefs[-2].take(idx, axis=1)
    c1 = coefs[-1].take(idx, axis=1)
    buf = np.empty_like(c0)
    for k in range(_CHEB_DEG - 2, -1, -1):
        coefs[k].take(idx, axis=1, out=buf, mode="clip")
        buf -= c1
        c1 *= t2
        c1 += c0
        c0, buf = buf, c0
    c1 *= t
    c1 += c0
    c1[:, far] += _FAR_LEAD[rows]
    return c1, far


def _airy_fields(xs, rows: slice, scaled: bool) -> np.ndarray:
    """Rows ``rows`` of (Ai, Ai', Bi, Bi') at finite x >= 0 of any shape,
    stacked in front of x's shape: scaled (Ai, Ai' times e^zeta and Bi, Bi'
    over it) or not.  The one copy of the scaling rule.

    ``_airy_rows`` runs over blocks of ``numerics._BLOCK`` points; a call
    within one block (a Green's pass block's nodes) returns it uncopied.
    Each caller asks only for the rows it reads: four rows over a 320-point
    solve's quadrature nodes cross glibc's mmap threshold, and their page
    faults cost the pass ~0.1 ms.
    """
    x = _as_floats(xs)
    if x.size and not (x.min() >= 0 and x.max() < math.inf):
        raise DomainError("airy requires finite x >= 0")
    flat = x.ravel()
    ids = range(4)[rows]
    out = None if flat.size <= _BLOCK else np.empty((len(ids), flat.size))
    for i in range(0, max(flat.size, 1), _BLOCK):
        u = flat[i : i + _BLOCK]
        f, far = _airy_rows(u, rows)
        lo, uf = ~far, u[far]
        q = np.power(uf, 0.25)
        for row, r in zip(f, ids):
            row[far] = row[far] * q if r % 2 else row[far] / q
        if scaled:
            ul = u[lo]
            ez = np.exp((2.0 / 3.0) * ul * np.sqrt(ul))
            for row, r in zip(f, ids):
                row[lo] = row[lo] * ez if r < 2 else row[lo] / ez
        else:
            with np.errstate(over="ignore", under="ignore"):  # e^zeta is inf past x ~ 104.3
                z = (2.0 / 3.0) * uf * np.sqrt(uf)
                ez = np.exp(z)
                for row, r in zip(f, ids):
                    row[far] = row[far] / ez if r < 2 else _times_exp(row[far], z, ez)
        if out is None:
            return f.reshape(f.shape[:1] + x.shape)
        out[:, i : i + u.size] = f
    return out.reshape(out.shape[:1] + x.shape)


def _times_exp(scaled, z, ez):
    """scaled * e^z for scaled > 0, given ez = exp(z).  Where e^z alone
    overflows but the product still fits (Bi up to x ~ 104.43 while e^zeta
    ends at x ~ 104.27), the product is formed as exp(z + log(scaled))."""
    v = scaled * ez
    far = np.isinf(v)
    v[far] = np.exp(z[far] + np.log(scaled[far]))
    return v


class AiryValues(NamedTuple):
    """Ai, Bi and derivatives with exponentially scaled forms: arrays aligned
    with x from ``airy_many``, floats from ``airy``.

    ``ai_scaled = ai * e^zeta`` and ``bi_scaled = bi * e^-zeta`` with
    zeta = (2/3) x^(3/2); cross products Ai(a)Bi(b) for a > b are formed as
    exp(zeta_b - zeta_a) * ai_scaled(a) * bi_scaled(b) without overflow.
    """

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


def airy_many(xs) -> AiryValues:
    """``AiryValues`` of arrays on an array of finite non-negative points;
    any other point raises DomainError.

    Unscaled fields follow e^(+-zeta) and may overflow to inf / underflow to
    zero for very large x; the scaled fields are valid everywhere, within
    2.9e-16 relative of 40-digit references at x = 1 to 100.  Past the
    switch the unscaled Ai and Bi are within about zeta * eps relative
    (2.0e-14 at x = 50, 1.5e-13 at x = 100), the conditioning of e^(-+zeta).
    """
    x = _as_floats(xs)
    fields = _airy_fields(x, slice(None), False)
    ai_s, aip_s, bi_s, bip_s = _airy_fields(x, slice(None), True)
    with np.errstate(over="ignore"):  # inf past x ~ 1e205, as e^zeta is
        zeta = (2.0 / 3.0) * x * np.sqrt(x)
    return AiryValues(x, *fields, zeta, ai_s, bi_s, aip_s, bip_s)


def airy(x: float) -> AiryValues:
    """``airy_many`` at one non-negative point: an ``AiryValues`` of floats.

    Raises DomainError for x < 0 or non-finite x and AiryOverflowError when
    an unscaled field leaves double range: Bi' does from x ~ 104.22 and Bi
    from x ~ 104.43.  Use airy_many / scaled fields for extreme arguments.
    """
    x = _as_float(x)
    if not x >= 0:
        raise DomainError(f"airy requires x >= 0, got {x}")
    a = airy_many(np.array([x]))
    if not np.isfinite([a.ai, a.ai_prime, a.bi, a.bi_prime]).all():
        raise AiryOverflowError(
            f"unscaled Bi or Bi' overflows at x={x!r}; "
            "use airy_many and the scaled fields"
        )
    return AiryValues._make(float(v[0]) for v in a)


# ---------------------------------------------------------------------------
# Green's integrals: Scorer's Gi and the Stein solver kernel
# ---------------------------------------------------------------------------

# Quadrature cells are graded in zeta = (2/3) u^(3/2), the exponent of the
# Airy kernels: a cell spans at most _ZETA_STEP, two e-folds, so neither
# kernel changes by more than e^2 across it, which the 15 Kronrod nodes
# resolve (at 4 e-folds the CLI family's solves begin to need the adaptive
# fallback).  The tail ends _ZETA_CUT e-folds past the last grid point.
_ZETA_STEP = 2.0
_ZETA_CUT = 45.0
# Largest scale * x a Green's pass accepts: beyond ~1e10 a zeta step of 2
# moves u by only a few ulps and the grading collapses.
GREEN_U_MAX = 1e8


def _zeta_gap(ua, ub, du):
    """zeta(ua) - zeta(ub) from du = ua - ub, without the cancellation of
    subtracting two large zetas.  Passing du computed from the exact offset
    keeps the rounding of ua and ub out of the exponent."""
    ra, rb = np.sqrt(ua), np.sqrt(ub)
    r = ra + rb
    # Where both ends are 0 the gap is 0: keep 0/0 out of it.
    return (2.0 / 3.0) * du * (ua + ra * rb + ub) / np.where(r > 0, r, 1.0)


def _distinct(a):
    """The distinct values of ``a`` in ascending order, as ``np.unique``
    gives them, without the ``numpy.ma`` import of its first call."""
    a = np.sort(a)
    return a[np.concatenate((np.ones(min(a.size, 1), dtype=bool), a[1:] != a[:-1]))]


def _cell_edges(grid: np.ndarray, scale: float):
    """Cell edges of a Green's pass: 0, the grid and the tail cutoff, with
    each cell wider than _ZETA_STEP (two e-folds) in zeta split equally in
    zeta.

    A cell wider than 2 * _ZETA_CUT is graded from each end only, in
    ceil(_ZETA_CUT / _ZETA_STEP) equal zeta steps that end exactly _ZETA_CUT
    in.  The cell left in between is returned marked in ``dropped``: both
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
            n = math.ceil(_ZETA_CUT / _ZETA_STEP)
            ks = _ZETA_CUT * np.arange(1, n + 1) / n
            zs = np.concatenate((z[i] + ks, z[i + 1] - ks[::-1]))
        ts = (1.5 * zs) ** (2.0 / 3.0) / scale
        if span[i] > 2 * _ZETA_CUT:
            middles.append(ts[ks.size - 1])
        pieces.append(ts[(ts > edges[i]) & (ts < edges[i + 1])])
    edges = _distinct(np.concatenate(pieces))
    return edges, np.isin(edges[:-1], middles)


def _scan(c, d):
    """x_i = d_i x_{i-1} + c_i along the last axis, with x_{-1} = 0.

    A doubling scan (Blelloch 1990): after the step of shift s, entry i holds
    the affine map of entries i - 2s + 1 .. i applied to 0, so ceil(log2 n)
    vectorized steps replace the sequential loop.  The factors d_i lie in
    [0, 1] here, so no partial product overflows.
    """
    c = np.array(c, dtype=float)
    d = np.array(d, dtype=float)
    s = 1
    while s < c.shape[-1]:
        c[..., s:] += d[..., s:] * c[..., :-s]
        d[..., s:] = d[..., s:] * d[..., :-s]
        s *= 2
    return c


def green_pass(grid: np.ndarray, rhs_fns: list[Callable], scale: float, points=None):
    """Cumulative scaled prefix/suffix Airy Green's integrals over a grid.

    For sorted points p_i in [0, grid[-1]] (``points``, by default the grid
    itself) and u = scale * p, computes, for each right-hand side r in
    ``rhs_fns``,

        P_i = int_0^{p_i}   Bi(scale*t) r(t) dt * e^{-zeta(u_i)}
        S_i = int_{p_i}^inf Ai(scale*t) r(t) dt * e^{+zeta(u_i)}

    and the full-line integral int_0^inf Ai(scale*t) r(t) dt, in one O(n)
    pass of per-cell Gauss-Kronrod 7/15 quadrature.  The cells are the grid
    cells, a head [0, g_0] and a tail reaching 45 e-folds of the Ai kernel
    past the last grid point, each split into cells equally spaced in zeta
    where it spans more than two e-folds (see ``_cell_edges``); dense grids
    keep their own cells.  Every exponential is carried in relative,
    non-positive form, so nothing overflows, and exponent differences are
    formed without cancellation, so far-out points keep full accuracy.  The
    cell integrals accumulate into P and S at the cell edges by one doubling
    scan each (``_scan``) rather than a loop over the cells.

    A point on a cell edge reads the edge's values.  A point p inside a cell
    [a, b] (a tap) reads them from the cell's edges and a partial integral
    of the cell's own 15-node interpolant, at no extra evaluation:

        P(p) = e^{-(zeta(p) - zeta(a))} P(a) + e^{zeta(b) - zeta(p)} int_a^p wP r
        S(p) = e^{zeta(p) - zeta(b)} S(b) + e^{zeta(p) - zeta(a)} int_p^b wS r

    with wP, wS the cell's two kernels at its nodes and the weights of
    ``numerics._k15_partial_weights``.  A point inside a dropped cell (see
    ``_cell_edges``) joins the grid.

    The cells go in blocks of ``numerics._BLOCK // 16`` (4,096), so the
    quadrature's temporaries are one block's; a power of two, so each row's
    products round as in one whole-array product.  Each block takes one
    ``_airy_fields`` call for the scaled Ai and Bi at its Kronrod nodes, and
    one more gives the scaled fields at the points.  A cell keeps its K15
    value (``numerics._kronrod_cells``) unless its |K15 - G7| estimate
    misses ``numerics.TOL`` (1e-10 absolute or relative) for that
    right-hand side.  So does a tap's pair of partial integrals, also where
    the interpolant of r has not converged (its top two Legendre
    coefficients, times the cell's half-width and largest kernel value,
    exceed ``numerics.TOL``).  One ``numerics._adaptive`` call settles all
    misses to that tolerance, each round forming the scaled Ai and Bi of all
    its pieces in one ``_airy_fields`` call.  The cells depend on grid and
    scale only and each integral is settled on its own, so each right-hand
    side's result is bitwise independent of the others.

    Returns a dict with, per right-hand side and point (shape
    (len(rhs_fns), n)), the Green's values ``g`` = Ai P + Bi S and
    ``g_prime`` = Ai' P + Bi' S (Airy functions at scale * p_i, formed from
    their scaled fields) and the tail ``tail`` = S e^{-zeta(u_i)} =
    int_{p_i}^inf Ai(scale*t) r(t) dt; ``full_line`` of shape
    (len(rhs_fns),); an error estimate per right-hand side, shape
    (len(rhs_fns),); and the number of integrand evaluations.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("green_pass needs a 1-d non-empty grid")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("green_pass grid must be strictly increasing")
    if grid[0] < 0:
        raise DomainError("green_pass grid must be non-negative")
    pts = grid if points is None else np.asarray(points, dtype=float)
    if not (
        pts.ndim == 1 and pts.size and np.all(np.diff(pts) > 0)
        and pts[0] >= 0 and pts[-1] <= grid[-1]
    ):
        raise DomainError("green_pass points must be increasing, in [0, grid[-1]]")

    if scale * grid[-1] > GREEN_U_MAX:
        raise RangeError(
            f"Green's integrals support scale * x <= {GREEN_U_MAX:g}, "
            f"got {scale * grid[-1]:g}"
        )

    rvs = [_vectorized(r) for r in rhs_fns]
    m = len(rvs)
    edges, dropped = _cell_edges(grid, scale)
    cell = np.searchsorted(edges, pts, side="right") - 1
    inside = edges[cell] != pts
    if np.any(dropped[cell] & inside):
        # Both kernels are negligible in a dropped cell only near its ends.
        grid = _distinct(np.concatenate((grid, pts[dropped[cell] & inside])))
        edges, dropped = _cell_edges(grid, scale)
        cell = np.searchsorted(edges, pts, side="right") - 1
        inside = edges[cell] != pts
    ue = scale * edges
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    up = scale * pts
    p_ai, p_aip, p_bi, p_bip = _airy_fields(up, slice(None), True)
    ct = cell[inside]
    tp = pts[inside]
    d_pa = _zeta_gap(scale * tp, ue[ct], scale * (tp - edges[ct]))
    d_bp = _zeta_gap(ue[ct + 1], scale * tp, scale * (edges[ct + 1] - tp))

    cells = np.empty((2, m, half.size))  # P's cells, then S's
    part = np.empty((2, m, tp.size))  # the taps' partial integrals
    err = np.zeros(m)
    evals = 15 * half.size * m
    todo = []  # integrals to settle: (rhs, kernel, cell, tap or -1, a, b)
    for first in range(0, half.size, _BLOCK // 16):
        c = slice(first, first + _BLOCK // 16)
        # One row per cell: its 15 Kronrod nodes, every other one a GL7 node.
        nodes = mid[c, None] + half[c] * _K15_X
        un = scale * nodes
        ai_s, bi_s = _airy_fields(un, slice(0, None, 2), True)

        # Kernels relative to the owning cell's edge: P to its right edge, S
        # to its left, every exponent <= 0, formed from each node's offset in
        # its cell, so far-out nodes lose nothing to their rounding.
        wP = bi_s * np.exp(-_zeta_gap(ue[1:][c, None], un, scale * half[c] * (1 - _K15_X)))
        wS = ai_s * np.exp(-_zeta_gap(un, ue[:-1][c, None], scale * half[c] * (1 + _K15_X)))
        wP[dropped[c]] = wS[dropped[c]] = 0.0

        # The block's taps' partial-integral weights, kernels and exponentials
        # folded in: one (2, taps, 15) array that every right-hand side reads.
        t0, t1 = np.searchsorted(ct, (c.start, c.stop))
        tc, k = ct[t0:t1], ct[t0:t1] - first
        if tc.size:
            wt = _k15_partial_weights((tp[t0:t1] - mid[tc]) / half[tc, 0]) * half[tc]
            wt[0] *= np.exp(d_bp[t0:t1])[:, None] * wP[k]
            wt[1] *= np.exp(d_pa[t0:t1])[:, None] * wS[k]
            # How far a Legendre coefficient of r moves a tap's partials.
            reach = half[tc, 0] * np.maximum(wP[k], wS[k]).max(axis=1)

        for j, rv in enumerate(rvs):
            hv = rv(nodes.ravel())
            _check_finite(nodes.ravel(), hv)
            hv = hv.reshape(nodes.shape)
            missed = np.zeros(nodes.shape[0], dtype=bool)
            for q, w in enumerate((wP, wS)):
                cells[q, j, c], e, miss = _kronrod_cells(w * hv, half[c, 0])
                missed |= miss
                if miss.any():
                    e[miss] = 0.0  # the settled estimate replaces it
                    i = first + np.nonzero(miss)[0]
                    todo.append((j, q, i, -1, edges[i], edges[i + 1]))
                err[j] += float(np.sum(e))
            if tc.size:
                ht = hv[k]
                part[:, j, t0:t1] = (wt * ht).sum(axis=2)
                top = np.abs(ht @ _k15_legendre()[13:].T).sum(axis=1)
                t = t0 + np.nonzero(missed[k] | (reach * top > TOL))[0]
                if t.size:
                    todo.append((j, 0, ct[t], t, edges[ct[t]], tp[t]))
                    todo.append((j, 1, ct[t], t, tp[t], edges[ct[t] + 1]))

    def kernel_times_rhs(t, k):
        # P's kernel relative to the interval's right end, S's to its left,
        # which folds a tap's exponential factors into its partial integrals.
        u, p = scale * t, Q[k, None] == 0
        end = scale * np.where(p, B[k, None], A[k, None])
        hi, lo = np.where(p, end, u), np.where(p, u, end)
        r = np.empty_like(t)
        for j in _distinct(J[k]):
            r[J[k] == j] = rvs[j](t[J[k] == j].ravel()).reshape(-1, 15)
        ai_s, bi_s = _airy_fields(u, slice(0, None, 2), True)
        return np.where(p, bi_s, ai_s) * np.exp(-_zeta_gap(hi, lo, hi - lo)) * r

    if todo:
        J, Q, C, T, A, B = map(np.concatenate, zip(*(np.broadcast_arrays(*g) for g in todo)))
        v, e, n = _adaptive(kernel_times_rhs, A, B)
        evals += int(n.sum())
        err += np.bincount(J, e, m)
        c = T < 0
        cells[Q[c], J[c], C[c]] = v[c]
        part[Q[~c], J[~c], T[~c]] = v[~c]
    # Beyond the cutoff and in each dropped cell the kernels are below e^-45
    # of their values at the nearest kept edge.
    err += math.exp(-_ZETA_CUT) * (1 + np.count_nonzero(dropped))

    decay = np.exp(-_zeta_gap(ue[1:], ue[:-1], scale * 2.0 * half[:, 0]))
    Pe = np.zeros((m, edges.size))
    Se = np.zeros((m, edges.size))
    Pe[:, 1:] = _scan(cells[0], decay)
    Se[:, -2::-1] = _scan(cells[1, :, ::-1], decay[::-1])

    P, S = Pe[:, cell], Se[:, cell]
    P[:, inside] = np.exp(-d_pa) * Pe[:, ct] + part[0]
    S[:, inside] = np.exp(-d_bp) * Se[:, ct + 1] + part[1]
    return {
        "g": p_ai * P + p_bi * S,
        "g_prime": p_aip * P + p_bip * S,
        "tail": S * np.exp(-(2.0 / 3.0) * up * np.sqrt(up)),
        "full_line": Se[:, 0],  # edges[0] = 0, where e^zeta = 1
        "error_estimate": err,
        "evaluations": evals,
    }


def _ones(t):
    return np.ones_like(t)


def _green_at(x, r: Callable, scale: float, name: str):
    """Green's passes at arbitrary points x >= 0 (any shape and order).

    Returns floats for a scalar x, else arrays shaped like x (empty, with no
    pass, for an empty x): the pass's ``g``, ``g_prime`` and ``tail``.  Gi
    and Gi' are the first two at r = 1, scale = 1.  The sorted distinct
    points go through one pass per ``numerics._BLOCK // 16`` of them, since
    a pass's per-cell and per-point arrays grow with its points.
    """
    xs = _as_floats(x)
    if not np.all((xs >= 0) & np.isfinite(xs)):
        raise DomainError(f"{name} requires finite x >= 0")
    if xs.size == 0:
        return tuple(np.empty(xs.shape) for _ in range(3))
    uniq, inv = np.unique(xs.ravel(), return_inverse=True)
    parts = []
    for chunk in np.array_split(uniq, max(1, -(-uniq.size // (_BLOCK // 16)))):
        out = green_pass(chunk, [r], scale)
        parts.append((out["g"][0], out["g_prime"][0], out["tail"][0]))
    combos = (np.concatenate(c)[inv].reshape(xs.shape) for c in zip(*parts))
    return tuple(float(c) if c.ndim == 0 else c for c in combos)


def scorer_gi(x):
    """Scorer's function Gi(x) = Ai(x) int_0^x Bi + Bi(x) int_x^inf Ai.

    Accepts scalars (returns a float) or arrays of x.
    """
    return _green_at(x, _ones, 1.0, "scorer_gi")[0]


def scorer_gi_prime(x):
    """Gi'(x) = Ai'(x) int_0^x Bi + Bi'(x) int_x^inf Ai, for scalars or arrays.

    Obtained by differentiating the defining integral form of Gi directly;
    the boundary cross terms cancel through the Wronskian.
    """
    return _green_at(x, _ones, 1.0, "scorer_gi_prime")[1]


def airy_ai_tail_integral(x):
    """int_x^inf Ai(t) dt, computed without subtracting from 1/3; scalars or
    arrays of x."""
    return _green_at(x, _ones, 1.0, "airy_ai_tail_integral")[2]


# sup |Gi|, sup |x Gi(x)| and sup |Gi'| over x >= 0, attained at x = 0.609076,
# 2.530764 and 0.  The tests' grid search over [0, 40] reproduces all three
# bitwise, and mpmath agrees at the maximizers.
_GI_NORM = 0.24577778954956092
_XGI_NORM = 0.34571256639696135
_GI_PRIME_NORM = 0.14942945245127495


def scorer_gi_norms() -> tuple[float, float]:
    """(sup |Gi|, sup |x Gi(x)|) over x >= 0, attained at 0.609076 and 2.530764."""
    return _GI_NORM, _XGI_NORM


# ---------------------------------------------------------------------------
# Mittag-Leffler function: the Gorenflo-Mainardi spectral integral
# ---------------------------------------------------------------------------

ML_Z_MAX = 30.0
# Smallest beta mittag_leffler accepts: the e-folds of e^-u next to w = 1
# take ln(2)/beta panels (70 at the floor).
ML_BETA_MIN = 0.01
# e^-u is 0 in doubles past u = 750, so the integral ends at w = 750^beta.
_ML_U_MAX = 750.0
# One panel per e-fold of e^-u up to here; beyond lies under e^-40 of the
# integral.
_ML_U_FOLDS = 40
# Octaves of geometric grading on each side of |z|.
_ML_OCTAVES = 60
# Below this |z|, z / Gamma(1 + beta) is under half an ulp of 1.
_ML_Z_ROUNDS_TO_ONE = 2.0**-60


@lru_cache(maxsize=16)
def _ml_layout(beta: float):
    """The parts of the spectral rule's panel edges fixed by beta alone.

    Returns sin(beta pi), cos(beta pi), the fixed edges in w, the multipliers
    of |z| and those of the half-width |z| sin(beta pi) around
    w* = z cos(beta pi).  The fixed edges are w = 0 and the e-folds of e^-u,
    u = w^(1/beta): u = e^-k from w = 1/2 up, then u = 1, 2, ..., 40 and
    _ML_U_MAX.  The offsets from w* are the half-width times 2^k,
    k = -1, 0, 1, ..., until they pass 4 |w*|.
    """
    s = math.sin(math.pi * min(beta, 1.0 - beta))  # exact 1 - beta near 1
    c = math.cos(math.pi * beta)
    u = np.concatenate((
        [0.0],
        np.exp(-np.arange(math.ceil(math.log(2.0) / beta), 0, -1)),
        np.arange(1.0, _ML_U_FOLDS + 1),
        [_ML_U_MAX],
    ))
    around_z = 2.0 ** np.arange(-_ML_OCTAVES, _ML_OCTAVES + 1)
    toward = 2.0 ** np.arange(-1, max(0, math.ceil(math.log2(abs(c) / s))) + 3)
    return s, c, u**beta, around_z, np.concatenate((-toward, toward))


def _ml_spectral(beta: float, z: np.ndarray) -> np.ndarray:
    """sin(beta pi) / (beta pi) int_0^inf e^(-w^(1/beta)) z / (w^2 - 2 w z
    cos(beta pi) + z^2) dw at nonzero z, by GL15 on the edges of _ml_layout,
    sorted per point.

    The denominator is (w - w*)^2 + (z sin(beta pi))^2.  Nodes are held as
    offsets from w0 = max(w*, 0) and the edges next to w* as multiples of
    the half-width, so a narrow peak keeps full relative accuracy.  Edges
    clipped to the ends of [0, _ML_U_MAX^beta] leave panels of width 0
    (about a third of them), which get no nodes and add 0 to their point's
    row.  numpy sums each row pairwise, whatever else shares the block;
    summed in order instead, the ~110 panels lose up to 1/beta ulps more to
    the subtraction from e^(z^(1/beta)) / beta at small z > 0.
    """
    s, c, w_fixed, around_z, toward = _ml_layout(beta)
    zc = (z * c)[:, None]
    w0 = np.maximum(zc, 0.0)
    a = np.abs(z)[:, None]
    v = np.concatenate((w_fixed - w0, a * around_z - w0, a * s * toward), axis=1)
    v = np.clip(v, -w0, w_fixed[-1] - w0)
    v.sort(axis=1)
    panels = 0.5 * np.diff(v, axis=1)  # half-widths, then values
    row, col = np.nonzero(panels > 0)
    half = panels[row, col, None]
    v = 0.5 * (v[row, col + 1] + v[row, col])[:, None] + half * _GL15_X
    # The maximum keeps a node rounded below w = 0 out of the power.
    w = np.maximum(w0[row] + v, 0.0)
    zz = z[row, None]
    # w - w* = v + (w0 - w*), which is v itself where w* > 0.
    f = np.exp(-(w ** (1.0 / beta))) * zz / ((v + (w0 - zc)[row]) ** 2 + (zz * s) ** 2)
    panels[:] = 0.0
    panels[row, col] = (f @ _GL15_W) * half[:, 0]
    return s / (beta * math.pi) * panels.sum(axis=1)


def mittag_leffler(beta: float, z):
    """E_beta(z) = sum z^n / Gamma(beta n + 1) for real z, beta in (0, 1].

    For beta < 1 it is the Gorenflo-Mainardi spectral integral, whose
    integrand has one sign:

        E_beta(z) = [z > 0] e^(z^(1/beta)) / beta - sin(beta pi) / (beta pi)
                    * int_0^inf e^(-w^(1/beta)) z / (w^2 - 2 w z cos(beta pi) + z^2) dw,

    one GL15 rule on panels graded over the e-folds of e^(-w^(1/beta)),
    geometrically on both sides of |z| and toward the near-singular point
    w* = z cos(beta pi).  E_beta(z) = 1 for |z| < 2^-60, where it rounds to
    1, and E_1(z) = e^z.  Accepts scalars (returns a float) or arrays of z
    with |z| <= ML_Z_MAX, and beta down to ML_BETA_MIN.  A positive z whose
    result ~ exp(z^(1/beta)) / beta leaves double range raises RangeError.
    """
    beta = _as_float(beta)  # a 0-d array cannot key the cached layout
    if not (0 < beta <= 1):
        raise DomainError(f"mittag_leffler requires beta in (0, 1], got {beta}")
    if beta < ML_BETA_MIN:
        raise RangeError(f"mittag_leffler supports beta >= {ML_BETA_MIN}, got {beta}")
    zs = _as_floats(z)
    flat = zs.ravel()
    if np.isnan(flat).any():
        raise DomainError("mittag_leffler requires z that is not NaN")
    big = np.abs(flat) > ML_Z_MAX
    if big.any():
        raise RangeError(
            f"mittag_leffler supports |z| <= {ML_Z_MAX}, got {flat[big][0]} "
            "(the range its rule is checked on)"
        )
    u = np.maximum(flat, 0.0) ** (1.0 / beta)
    if np.any(u > 700.0):
        raise RangeError(
            f"mittag_leffler({beta}, {flat[u > 700.0][0]}) exceeds double range "
            "(result ~ exp(z**(1/beta))/beta)"
        )
    if beta == 1.0:
        out = np.exp(flat)
    else:
        out = np.ones_like(flat)
        live = np.flatnonzero(np.abs(flat) >= _ML_Z_ROUNDS_TO_ONE)
        edges = sum(e.size for e in _ml_layout(beta)[2:])
        step = max(1, _BLOCK // (15 * edges))
        for i in range(0, live.size, step):
            idx = live[i : i + step]
            lead = np.where(flat[idx] > 0, np.exp(u[idx]) / beta, 0.0)
            out[idx] = lead - _ml_spectral(beta, flat[idx])
    out = out.reshape(zs.shape)
    return float(out) if out.ndim == 0 else out


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
    beta = _as_float(beta)  # a 0-d array cannot key the cached rule
    if not (0 <= beta < 1):
        raise DomainError(f"wright_m_series requires beta in [0, 1), got {beta}")
    if beta > WRIGHT_BETA_MAX:
        raise RangeError(
            f"wright_m_series supports beta <= {WRIGHT_BETA_MAX}, got {beta}"
        )
    xs = _as_floats(x)
    if not np.all((xs >= 0) & np.isfinite(xs)):
        raise DomainError("wright_m_series requires finite x >= 0")
    flat = xs.ravel()
    # 1/Gamma(1 - 2 beta) is 0 at beta = 1/2, where Gamma has its pole.
    slope = 0.0 if beta == 0.5 else 1.0 / math.gamma(1.0 - 2.0 * beta)
    out = 1.0 / math.gamma(1.0 - beta) - flat * slope
    kappa, wk = _kanter_rule(beta)
    a = 1.0 / (1.0 - beta)
    far = np.nonzero(flat >= _WRIGHT_SMALL_X)[0]
    step = max(1, _BLOCK // kappa.size)
    for i in range(0, far.size, step):
        idx = far[i : i + step]
        # Where z overflows, e^-z is 0 anyway; capping z at 750 (e^-750 = 0
        # in doubles) keeps z^beta e^-z from forming inf * 0.
        with np.errstate(over="ignore"):
            z = np.minimum((flat[idx, None] * kappa) ** a, 750.0)
        out[idx] = (wk * z**beta * np.exp(-z)).sum(axis=1)
    out = out.reshape(xs.shape)
    return float(out) if out.ndim == 0 else out
