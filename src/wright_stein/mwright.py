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

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError
from .numerics import (
    DEFAULT_CONFIG,
    GAMMA_1_3,
    QuadratureConfig,
    gamma_fn,
    integrate,
)
from .specfun import _green_at, _kanter, _ones, airy_many, mittag_leffler
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
    if xs.size and float(np.min(xs)) < 0:
        raise DomainError("density requires x >= 0")
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


def cdf(x, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """CDF of M_{1/3}: integral of the density over [0, x]; accepts scalars
    or arrays of x.

    Computed from the Airy tail integral (1 - 3 * int_u^inf Ai with
    u = x 3^(-1/3)), which stays accurate where the tail is tiny.  All points
    share one Green's pass.
    """
    xs = np.asarray(x, dtype=float)
    tail = _green_at(xs / _CBRT3, _ones, 1.0, cfg, "cdf")[2]
    out = np.where(xs == 0.0, 0.0, 1.0 - 3.0 * tail)
    return float(out) if out.ndim == 0 else out


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
        buf = io.StringIO()
        buf.write(f"# generator={self.generator} seed={self.seed} n={self.size}\n")
        for v in self.values:
            buf.write(f"{v:.17g}\n")
        return buf.getvalue()


def sample(n: int, seed: int, symmetric: bool = False) -> SampleSet:
    """Exact draws from M_{1/3} by Kanter's method; optional independent fair
    sign flip.

    Y = (E / K(pi U))^(2/3) = E^(2/3) / kappa(pi U) with U ~ U(0, 1) and
    E ~ Exp(1), K and kappa as in ``specfun.wright_m_series``.  Deterministic
    given (n, seed, symmetric): uniforms, then exponentials, then signs are
    drawn from one numpy default_rng stream.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sample requires n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    e = rng.standard_exponential(n)
    xs = e ** (2.0 / 3.0) / _kanter(1.0 / 3.0, u, np.sinc(u))
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


def laplace_check(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Both sides of the Laplace-transform identity at t.

    Returns (quadrature of e^{-xt} M_{1/3}(x) over the half line,
    E_{1/3}(-t)).  The two are independent code paths and must agree.
    """
    t = float(t)
    if not (0 <= t <= 5):
        raise DomainError(f"laplace_check requires t in [0, 5], got {t}")
    r = integrate(
        lambda x: np.exp(-t * x) * density(1.0 / 3.0, x),
        0.0,
        cfg.truncation_point,
        cfg,
    )
    return r.value, mittag_leffler(1.0 / 3.0, -t)
