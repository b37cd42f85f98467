"""The M-Wright distribution family on the half line and its symmetrization.

Closed forms take precedence wherever they exist: beta = 0 is exp(-x),
beta = 1/2 is exp(-x^2/4)/sqrt(pi), beta = 1/3 is 3^(2/3) Ai(x 3^(-1/3)).
Other parameters evaluate Kanter's integral (``specfun.wright_m_series``)
over the whole array at once.  The CDF, sampler, moments and
Laplace-transform check are specific to beta = 1/3, the distribution this
package characterizes; the sampler is Kanter's exact method for the same
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, RangeError
from .numerics import GAMMA_1_3, gamma_fn, integrate
from .specfun import _green_at, _ones, airy_many, mittag_leffler
from .specfun import wright_m_series

__all__ = [
    "WrightParameter",
    "SampleSet",
    "density",
    "density_prime_at_zero",
    "density_sym",
    "cdf",
    "sample",
    "moment",
    "laplace_check",
]

_CBRT3 = 3.0 ** (1.0 / 3.0)
_3_23 = 3.0 ** (2.0 / 3.0)

MOMENT_MAX = 12
# Upper limit standing in for +inf in quadratures against M_{1/3}, whose
# density is below 1e-42 beyond it.
_DENSITY_CUT = 40.0


@dataclass(frozen=True)
class WrightParameter:
    """Family parameter beta in [0, 1); {0, 1/3, 1/2} hit closed forms."""

    beta: float

    def __post_init__(self):
        if not (0 <= self.beta < 1):
            raise DomainError(f"beta must lie in [0, 1), got {self.beta}")


def _as_beta(p) -> float:
    if isinstance(p, WrightParameter):
        return p.beta
    return WrightParameter(float(p)).beta


def density(p, x):
    """M_beta(x) for x >= 0; accepts scalars or arrays of x."""
    beta = _as_beta(p)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if not np.all((xs >= 0) & (xs < np.inf)):
        raise DomainError("density requires finite x >= 0")
    if beta == 0.0:
        out = np.exp(-xs)
    elif beta == 0.5:
        out = np.exp(-0.25 * xs * xs) / math.sqrt(math.pi)
    elif abs(beta - 1.0 / 3.0) <= 1e-15:
        out = _3_23 * airy_many(xs / _CBRT3).ai
    else:
        out = wright_m_series(beta, xs)
    return float(out[0]) if scalar else out


def density_prime_at_zero() -> float:
    """Right derivative of M_{1/3} at zero: -1/Gamma(1/3)."""
    return -1.0 / GAMMA_1_3


def density_sym(p, x):
    """Symmetrized density (1/2) M_beta(|x|); even in x by construction."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    out = 0.5 * density(p, np.abs(np.atleast_1d(xs)))
    return float(out[0]) if scalar else out


def cdf(x):
    """CDF of M_{1/3}: integral of the density over [0, x]; accepts scalars
    or arrays of x.

    Computed from the Airy tail integral (1 - 3 * int_u^inf Ai with
    u = x 3^(-1/3)), which stays accurate where the tail is tiny.  All points
    share one Green's pass.
    """
    xs = np.asarray(x, dtype=float)
    tail = _green_at(xs / _CBRT3, _ones, 1.0, "cdf")[2]
    out = np.where(xs == 0.0, 0.0, 1.0 - 3.0 * tail)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# CSV text: every value as "%.17g" writes it, formed by array operations
# ---------------------------------------------------------------------------

# Values per block of the array writer, and the fewest values it takes on:
# below that, its fixed cost per call exceeds one % formatting call.
_CSV_BLOCK = 1 << 15
_CSV_ARRAY_MIN = 512


@lru_cache(maxsize=None)
def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The writer's byte tables, built on its first call (not at import).

    groups: each 4-digit group 0000..9999 as one uint32 of its four ASCII
    digits, three ways: as is, with leading zeros blanked to NUL (the
    leading groups of an integer part; from _LEADING on) and with trailing
    zeros blanked (the last groups of a fraction; from _TRAILING on).  NUL
    bytes are dropped when a block is joined.

    head: 8 bytes per (sign, decimal exponent e in -4..16, leading digit d
    of the integer part): "-" for a negative value, "0." and -e-1 zeros
    before the digits of a value below 1, and d where the integer part has
    17 digits.

    point: the word before a fraction's last 16 digits: nothing for an
    empty fraction (index 0), its first digit d below 1 (1 + d; "0." is in
    the head) and ".d" from 1 up (11 + d).
    """
    digits = np.ascontiguousarray(48 + np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
    zero = digits == 48
    lead = np.logical_and.accumulate(zero, axis=1)
    trail = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    groups = np.concatenate((digits, digits * ~lead, digits * ~trail))
    head = np.zeros((2, 21, 10, 8), np.uint8)
    head[1, :, :, 0] = ord("-")
    e = np.arange(-4, 17)
    head[:, e < 0, :, 1:3] = np.frombuffer(b"0.", np.uint8)
    head[:, :, :, 3:6] = np.where(np.arange(3) < -e[:, None] - 1, 48, 0)[:, None, :]
    head[:, :, 1:, 7] = 48 + np.arange(1, 10)
    point = np.zeros((21, 4), np.uint8)
    point[1:, 0] = np.concatenate((48 + np.arange(10), np.full(10, ord("."))))
    point[11:, 1] = 48 + np.arange(10)
    tables = (groups.view(np.uint32).ravel(), head.view(np.uint64).ravel(),
              point.view(np.uint32).ravel())
    for t in tables:
        t.setflags(write=False)  # shared by every call
    return tables


_LEADING, _TRAILING = 10000, 20000
_POW10 = 10.0 ** np.arange(22)  # exact doubles up to 1e21
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _exact_product(a, p):
    """Dekker's TwoProduct: hi + lo == a * 10**p exactly, hi = fl(a * 10**p)."""
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(p), _POW10_LO.take(p)
    hi = a * _POW10.take(p)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digit_groups(n):
    """The four 4-digit groups of n < 10**16, most significant first."""
    hi = n // 10**8
    lo = n - hi * 10**8
    g0, g2 = hi // 10**4, lo // 10**4
    return g0, hi - g0 * 10**4, g2, lo - g2 * 10**4


def _csv_block(v: np.ndarray, sep: np.ndarray) -> bytes:
    """The text of values v, each followed by its separator byte in sep.

    Each value gets 12 uint32 words with NUL padding: 2 head words (sign,
    "0.000" or the leading digit), 4 for the integer part below 10**16, 1
    for the point and first fraction digit, 4 for the other 16 fraction
    digits and 1 for the separator.
    """
    groups, heads, points = _csv_tables()
    m = v.size
    a = np.abs(v)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0
    # p = 16 - floor(log10 a), then each a * 10**p is moved into
    # [10**16, 10**17), judged on the exact product.
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _exact_product(a, p)
    while True:
        up = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        down = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        off = np.flatnonzero(up | down)
        if not off.size:
            break
        p[off] += np.where(up[off], 1, -1)
        hi[off], lo[off] = _exact_product(a[off], p[off])
    # hi >= 2**53 is an even integer, so hi + rint(lo) rounds the exact
    # product to an integer, ties to even.  It never carries to 10**17: no
    # double in [1e-4, 1e16) lies within 0.8 units of the 17th digit below
    # a power of ten.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # |x| = d / 10**p: the integer part (0 below 1) and the fraction's
    # digits as a 17-digit integer, left-aligned.
    scale = _POW10_INT.take(np.minimum(p, 17))
    whole = d // scale
    frac = (d - whole * scale) * _POW10_INT.take(np.maximum(17 - p, 0))
    words = np.empty((12, m), np.uint32)
    top = whole // 10**16
    head = heads.take((21 * (v < 0) + 20 - p) * 10 + top)
    words[0:2] = head.view(np.uint32).reshape(m, 2).T
    blank = top == 0
    for k, g in enumerate(_digit_groups(whole - top * 10**16)):
        groups.take(g + _LEADING * blank, out=words[2 + k])
        blank &= g == 0
    top = frac // 10**16
    points.take(np.where(frac == 0, 0, 1 + top + 10 * (p <= 16)), out=words[6])
    digit_groups = _digit_groups(frac - top * 10**16)
    blank = np.ones(m, bool)
    for k in (3, 2, 1, 0):
        groups.take(digit_groups[k] + _TRAILING * blank, out=words[7 + k])
        blank &= digit_groups[k] == 0
    words[11] = sep
    cells = words.T.copy()
    if slow.size:
        # Zeros, subnormals, exponent forms, inf and nan: % formatting,
        # padded with spaces to 24 bytes (the longest %.17g text).
        text = ("%-24.17g" * slow.size % tuple(v[slow].tolist())).encode()
        rows = np.zeros((slow.size, 12), np.uint32)
        raw = rows.view(np.uint8)
        raw[:, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
        raw[raw == 32] = 0
        rows[:, 11] = sep[slow]
        cells[slow] = rows
    out = cells.view(np.uint8).ravel()
    return np.compress(out != 0, out).tobytes()


def _csv_rows(*cols) -> str:
    """CSV rows of equal-length columns, each value with 17 significant
    digits so that each double round-trips.

    The text is byte for byte that of ``"%.17g"``.  Below _CSV_ARRAY_MIN
    values it is one % formatting call.  Otherwise blocks of about
    _CSV_BLOCK values are formed by array operations: a finite |x| in
    [1e-4, 1e16), whose text is positional, is scaled to
    D = round(|x| * 10**p) in [10**16, 10**17) with p = 16 - floor(log10|x|)
    in [1, 20], so 10**p is an exact double.  Dekker's TwoProduct (with
    Veltkamp's split, as numpy has no fused multiply-add) gives
    hi + lo = |x| * 10**p exactly; hi is then an even integer (it is at
    least 2**53), so D = hi + rint(lo) is the correctly rounded 17-digit
    significand, ties to even, as `%` rounds.  A row whose exact
    product falls outside [10**16, 10**17) (log10 may be one off) is
    re-scaled.  The digits come from a table of 4-digit groups, with the
    fraction's trailing zeros blanked, laid out at fixed places with NUL
    padding that is dropped at the end.  Zeros, subnormals, values printed
    in exponent form, inf and nan keep % formatting, one call per block.
    """
    flat = cols[0] if len(cols) == 1 else np.column_stack(cols).ravel()
    if flat.size < _CSV_ARRAY_MIN:
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        return row * len(cols[0]) % tuple(flat.tolist())
    flat = np.asarray(flat, dtype=float)
    step = max(1, _CSV_BLOCK // len(cols)) * len(cols)
    sep = np.tile(np.array([44] * (len(cols) - 1) + [10], np.uint32), step // len(cols))
    text = b"".join([
        _csv_block(flat[i : i + step], sep[: min(step, flat.size - i)])
        for i in range(0, flat.size, step)
    ])
    return text.decode("ascii")


@dataclass(frozen=True)
class SampleSet:
    """Immutable array of draws plus provenance."""

    values: np.ndarray
    seed: int
    generator: str
    size: int = field(default=0)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "size", int(vals.size))

    def to_csv(self) -> str:
        head = f"# generator={self.generator} seed={self.seed} n={self.size}\n"
        return head + _csv_rows(self.values)


def _kappa_third(u):
    """Kanter's kappa(pi u) at beta = 1/3, for u in [0, 1].

    sin(t)^(1/3) sin(2t)^(2/3) / sin(3t) with t = pi u / 3 is
    (4c^2)^(1/3) / (4c^2 - 1), c = cos t, and 4c^2 - 1 = (2c - 1)(2c + 1)
    with 2c - 1 = 4 sin(pi (1 - u) / 6) sin(pi (1 + u) / 6): no 0/0 at
    u = 0, and full relative accuracy as u -> 1, where kappa ~ 1 / (1 - u).
    """
    c = np.cos(np.pi / 3.0 * u)
    lo = np.sin(np.pi / 6.0 * (1.0 - u)) * np.sin(np.pi / 6.0 * (1.0 + u))
    return np.cbrt(4.0 * c * c) / (4.0 * lo * (2.0 * c + 1.0))


def sample(n: int, seed: int, symmetric: bool = False) -> SampleSet:
    """Exact draws from M_{1/3} by Kanter's method; optional independent fair
    sign flip.

    Y = (E / K(pi U))^(2/3) = E^(2/3) / kappa(pi U) with U ~ U(0, 1) and
    E ~ Exp(1), K and kappa as in ``specfun.wright_m_series``; kappa is in
    closed form (``_kappa_third``).  Deterministic
    given (n, seed, symmetric): uniforms, then exponentials, then signs are
    drawn from one numpy default_rng stream, whose seed must be a
    non-negative integer.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sample requires n >= 1, got {n}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"sample requires an integer seed >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    e = rng.standard_exponential(n)
    xs = e ** (2.0 / 3.0) / _kappa_third(u)
    label = "mwright-sym-1/3" if symmetric else "mwright-1/3"
    if symmetric:
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        xs = xs * signs
    return SampleSet(values=xs, seed=int(seed), generator=label)


def moment(n: int) -> float:
    """E[Y^n] = n! / Gamma(n/3 + 1) for Y ~ M_{1/3}, 0 <= n <= 12.

    The identity follows from expanding both sides of the Laplace-transform
    relation in t; the shipped test compares against direct quadrature.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise DomainError(f"moment requires a non-negative integer, got {n}")
    if n > MOMENT_MAX:
        raise RangeError(
            f"moment supports n <= {MOMENT_MAX} (quadrature validation domain)"
        )
    return math.factorial(int(n)) / gamma_fn(n / 3.0 + 1.0)


def laplace_check(t: float) -> tuple[float, float]:
    """Both sides of the Laplace-transform identity at t.

    Returns (quadrature of e^{-xt} M_{1/3}(x) over the half line,
    E_{1/3}(-t)).  The two are independent code paths and must agree.
    """
    t = float(t)
    if not (0 <= t <= 5):
        raise DomainError(f"laplace_check requires t in [0, 5], got {t}")
    r = integrate(lambda x: np.exp(-t * x) * density(1.0 / 3.0, x), 0.0, _DENSITY_CUT)
    return r.value, mittag_leffler(1.0 / 3.0, -t)
