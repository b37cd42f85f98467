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

import numpy as np

from ._csvtext import _csv_pieces
from .errors import DomainError, RangeError
from .numerics import _BLOCK, GAMMA_1_3, _as_float, _as_floats, _is_int, gamma_fn, integrate
from .specfun import _airy_fields, _green_at, _ones, mittag_leffler
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
    """Family parameter beta in [0, 1), held as a float; {0, 1/3, 1/2} hit
    closed forms."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_float(self.beta))
        if not (0 <= self.beta < 1):
            raise DomainError(f"beta must lie in [0, 1), got {self.beta}")


def _as_beta(p) -> float:
    if isinstance(p, WrightParameter):
        return p.beta
    return WrightParameter(p).beta


def density(p, x):
    """M_beta(x) for x >= 0; accepts scalars or arrays of x."""
    beta = _as_beta(p)
    xs = _as_floats(x)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if not np.all((xs >= 0) & (xs < np.inf)):
        raise DomainError("density requires finite x >= 0")
    if beta == 0.0:
        out = np.exp(-xs)
    elif beta == 0.5:
        out = np.exp(-0.25 * xs * xs) / math.sqrt(math.pi)
    elif abs(beta - 1.0 / 3.0) <= 1e-15:
        out = _3_23 * _airy_fields(xs / _CBRT3, slice(0, 1), False)[0]
    else:
        out = wright_m_series(beta, xs)
    return float(out[0]) if scalar else out


def density_prime_at_zero() -> float:
    """Right derivative of M_{1/3} at zero: -1/Gamma(1/3)."""
    return -1.0 / GAMMA_1_3


def density_sym(p, x):
    """Symmetrized density (1/2) M_beta(|x|), even in x: ``density`` at |x|."""
    return 0.5 * density(p, np.abs(_as_floats(x)))


def cdf(x):
    """CDF of M_{1/3}: integral of the density over [0, x]; accepts scalars
    or arrays of x.

    Computed from the Airy tail integral (1 - 3 * int_u^inf Ai with
    u = x 3^(-1/3)).  All points share one Green's pass.  The result is
    accurate in absolute terms only (<= 4e-17 at x = 5 to 20): 1 - cdf(20)
    reads 1.11e-16 against a true 1.297e-16.  For the tail itself use
    ``3 * airy_ai_tail_integral(x / 3**(1/3))``, 3.1e-16 relative there.
    """
    xs = _as_floats(x)
    tail = _green_at(xs / _CBRT3, _ones, 1.0, "cdf")[2]
    out = np.where(xs == 0.0, 0.0, 1.0 - 3.0 * tail)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SampleSet:
    """Immutable 1-d array of draws plus provenance.  The values are a
    read-only copy, so the caller's array stays its own; values of any other
    shape raise DomainError."""

    values: np.ndarray
    seed: int
    generator: str
    size: int = field(init=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise DomainError(f"SampleSet values must be 1-d, got shape {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "size", int(vals.size))

    def to_csv(self, file=None) -> str | None:
        """The sample as CSV: a "# generator=... seed=... n=..." line, then
        one value per line.  Returns the text; given an open text file,
        writes it there block by block instead, so the whole text is never
        held."""
        head = f"# generator={self.generator} seed={self.seed} n={self.size}\n"
        if file is None:
            return "".join([head, *_csv_pieces(self.values)])
        file.write(head)
        file.writelines(_csv_pieces(self.values))
        return None


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
    if not (_is_int(n) and n >= 1):
        raise DomainError(f"sample requires n >= 1, got {n}")
    if n > np.iinfo(np.intp).max:
        raise DomainError(f"sample requires n <= {np.iinfo(np.intp).max}, the largest array")
    if not (_is_int(seed) and seed >= 0):
        raise DomainError(f"sample requires an integer seed >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    # Two full-length arrays at once, the copy SampleSet takes counted, and
    # one block of temporaries: the uniforms become kappa in place and the
    # exponentials the draws.  Blocks of signs from the stream are the
    # doubles of one call.
    kappa = rng.random(n)
    blocks = [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]
    for b in blocks:
        kappa[b] = _kappa_third(kappa[b])
    xs = rng.standard_exponential(n)
    for b in blocks:
        np.power(xs[b], 2.0 / 3.0, out=xs[b])
        xs[b] /= kappa[b]
    del kappa
    if symmetric:
        for b in blocks:
            np.negative(xs[b], out=xs[b], where=rng.random(xs[b].size) < 0.5)
    label = "mwright-sym-1/3" if symmetric else "mwright-1/3"
    return SampleSet(values=xs, seed=int(seed), generator=label)


def moment(n: int) -> float:
    """E[Y^n] = n! / Gamma(n/3 + 1) for Y ~ M_{1/3}, 0 <= n <= 12.

    The identity follows from expanding both sides of the Laplace-transform
    relation in t; the shipped test compares against direct quadrature.
    """
    if not (_is_int(n) and n >= 0):
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
    t = _as_float(t)
    if not (0 <= t <= 5):
        raise DomainError(f"laplace_check requires t in [0, 5], got {t}")
    r = integrate(lambda x: np.exp(-t * x) * density(1.0 / 3.0, x), 0.0, _DENSITY_CUT)
    return r.value, mittag_leffler(1.0 / 3.0, -t)
