"""Sample-based Stein-discrepancy goodness-of-fit statistics.

The engine solves the Stein equation for the whole test-function family in
one Green's pass (the Airy kernel depends on the grid, not on h), once per
family, grid and kind in a process: the solutions do not depend on the
sample, so the cell operators of the last few solved families (each h's
operator polynomial and its square on every grid cell, stacked over the
family) are kept and reused.  Each call then sweeps its sample once (once
per side on the symmetric line) into per-cell moments, from which the mean
of (A f_h)(X) = f_h''(X) - (1/3) |X| f_h(X) over the sample and its
standard error follow for the whole family in two row-wise reductions.
Under the target law every such mean vanishes in expectation, so the
standardized statistics behave like standard normals; the verdict thresholds
(4 to accept, 5 to reject, gap inconclusive) are deliberate crude
multiple-testing slack for a family of at most 16 functions.

The symmetric engine additionally tests the sign-balance condition
P(X >= 0) = 1/2 with a binomial z-score; matching |X| alone is not enough
to identify the symmetric law, so a lopsided sign split rejects on its own.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RangeError
from .mwright import SampleSet
from .numerics import _BLOCK, _as_floats, _is_int
from .stein import TestFunction, _as_test_function, _locate, _solve_batch, default_grid

__all__ = [
    "FunctionStat",
    "SignBalance",
    "DiscrepancyReport",
    "default_test_functions",
    "discrepancy",
    "discrepancy_sym",
    "ACCEPT_THRESHOLD",
    "REJECT_THRESHOLD",
]

ACCEPT_THRESHOLD = 4.0
REJECT_THRESHOLD = 5.0
SIGN_Z_ACCEPT = 3.0
SIGN_Z_REJECT = 5.0
MIN_SAMPLES = 100
CLIP_WARN_FRACTION = 0.01


@dataclass(frozen=True)
class FunctionStat:
    label: str
    mean: float
    std_error: float
    standardized: float


@dataclass(frozen=True)
class SignBalance:
    fraction_nonneg: float
    z_score: float


@dataclass(frozen=True)
class DiscrepancyReport:
    per_function: tuple
    max_standardized: float
    n: int
    clipped: int
    clipped_warning: bool
    verdict: str  # consistent | rejected | inconclusive
    sign_balance: SignBalance | None = None
    at_zero: int = 0

    def to_table(self) -> str:
        buf = io.StringIO()
        buf.write(f"{'label':<12} {'mean':>14} {'std_error':>14} {'standardized':>14}\n")
        for s in self.per_function:
            buf.write(
                f"{s.label:<12} {s.mean:>14.6e} {s.std_error:>14.6e} "
                f"{s.standardized:>14.4f}\n"
            )
        buf.write(f"n = {self.n}, clipped = {self.clipped}")
        if self.clipped_warning:
            buf.write("  [warning: clipped fraction > 1%]")
        buf.write("\n")
        if self.sign_balance is not None:
            buf.write(
                f"sign balance: fraction_nonneg = {self.sign_balance.fraction_nonneg:.6f}, "
                f"z = {self.sign_balance.z_score:.3f}\n"
            )
            buf.write(f"at_zero = {self.at_zero}\n")
        buf.write(f"max standardized = {self.max_standardized:.4f}\n")
        buf.write(f"verdict: {self.verdict}\n")
        return buf.getvalue()

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("label,mean,std_error,standardized\n")
        for s in self.per_function:
            buf.write(
                f"{s.label},{s.mean:.17g},{s.std_error:.17g},{s.standardized:.17g}\n"
            )
        buf.write(f"# n={self.n}\n")
        buf.write(f"# clipped={self.clipped}\n")
        if self.sign_balance is not None:
            buf.write(
                f"# sign_balance fraction_nonneg={self.sign_balance.fraction_nonneg:.17g} "
                f"z={self.sign_balance.z_score:.17g}\n"
            )
            buf.write(f"# at_zero={self.at_zero}\n")
        buf.write(f"# verdict={self.verdict}\n")
        return buf.getvalue()


# The documented family, built once: every default_test_functions call hands
# out these same objects, so the solve memo below recognizes them.
_FAMILY = (
    TestFunction(np.cos, 1.0, "cos", even=True),
    TestFunction(np.sin, 1.0, "sin", even=False),
    TestFunction(lambda x: np.cos(2 * x), 1.0, "cos2", even=True),
    TestFunction(lambda x: np.sin(2 * x), 1.0, "sin2", even=False),
    TestFunction(lambda x: np.cos(3 * x), 1.0, "cos3", even=True),
    TestFunction(lambda x: np.sin(3 * x), 1.0, "sin3", even=False),
    TestFunction(lambda x: np.exp(-np.abs(x)), 1.0, "exp1", even=True),
    TestFunction(lambda x: np.exp(-2 * np.abs(x)), 1.0, "exp2", even=True),
    TestFunction(lambda x: np.exp(-3 * np.abs(x)), 1.0, "exp3", even=True),
    TestFunction(lambda x: 1.0 / (1.0 + x * x), 1.0, "invquad", even=True),
    TestFunction(np.arctan, math.pi / 2, "atan", even=False),
    TestFunction(lambda x: np.cos(4 * x), 1.0, "cos4", even=True),
    TestFunction(lambda x: np.sin(4 * x), 1.0, "sin4", even=False),
    TestFunction(lambda x: np.exp(-4 * np.abs(x)), 1.0, "exp4", even=True),
    TestFunction(lambda x: (1.0 + x * x) ** -2, 1.0, "invquad2", even=True),
    TestFunction(lambda x: x / (1.0 + x * x), 0.5, "ratio", even=False),
)


def default_test_functions(k: int) -> list[TestFunction]:
    """First k members of the fixed documented family (1 <= k <= 16).

    Order: cos(jx), sin(jx) for j = 1, 2, 3; exp(-j|x|) for j = 1, 2, 3;
    1/(1+x^2); arctan; then cos(4x), sin(4x), exp(-4|x|), 1/(1+x^2)^2,
    x/(1+x^2).  Sup norms are exact.  The exponentials carry |x| so they
    stay bounded on the whole line: on the half-line domain this is the
    same function as exp(-jx), and the symmetric engine requires bounded h.
    """
    if not (_is_int(k) and 1 <= k <= 16):
        raise RangeError(f"default_test_functions requires 1 <= k <= 16, got {k}")
    return list(_FAMILY[: int(k)])


class _SolveKey:
    """Memo key of one solve: test functions by identity, the grid by value
    and shape, and the kind.  Identity, not hash, so a TestFunction around an
    unhashable callable works; the key holds the functions, so no id is
    reused while its entry lives."""

    def __init__(self, hs: tuple, grid: np.ndarray, symmetric: bool):
        self.hs, self.grid, self.symmetric = hs, grid, symmetric
        self._id = (tuple(map(id, hs)), grid.shape, grid.tobytes(), symmetric)

    def __hash__(self):
        return hash(self._id)

    def __eq__(self, other):
        return self._id == other._id


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def _solved(key: _SolveKey) -> tuple:
    """Per side, its knots and the family's operators stacked: Q, shape
    (H, cells * 7), holds row h's A p = p'' - (t/3) p of its Hermite
    interpolant p on each cell, in the cell coordinate; C, shape
    (H, cells * 13), holds each of those polynomials' square, with
    C_k = sum over j + l = k of q_j q_l.  One Green's pass per key; a
    refused solve raises and leaves nothing behind."""
    sols = _solve_batch(key.hs, key.grid, key.symmetric)
    sides = []
    for pieces in zip(*(sol._pieces for sol in sols)):
        q = np.stack([p.operator() for p in pieces])  # (H, cells, 7)
        c = np.zeros(q.shape[:2] + (13,))
        for j in range(7):
            c[..., j : j + 7] += q[..., j : j + 1] * q
        arrays = (pieces[0].knots, q.reshape(len(q), -1), c.reshape(len(c), -1))
        sides.append(tuple(map(_frozen, arrays)))
    return tuple(sides)


def _power_sums(knots, t) -> np.ndarray:
    """m[b, k] = sum of s^k over the points t in cell b of ``knots``, s
    being each point's cell coordinate, for k = 0..12: shape (cells, 13)."""
    b, s = _locate(knots, t)
    sums, sk = [], np.ones_like(s)
    for _ in range(13):
        sums.append(np.bincount(b, weights=sk, minlength=knots.size - 1))
        sk *= s
    return np.stack(sums, axis=1)


def _report(samples, hs, grid, symmetric: bool) -> DiscrepancyReport:
    """The body of ``discrepancy`` and ``discrepancy_sym``: refuse a bad
    sample or an empty family, then take the operator means of every h over
    the sample, and the verdict; the symmetric kind also tests its sign
    balance.  Samples outside [grid[0], grid[-1]], where nothing was
    solved, are clipped."""
    if isinstance(samples, SampleSet):
        samples = samples.values
    vals = _as_floats(samples)
    if vals.ndim != 1:
        raise DomainError(f"samples must be a 1-d array, got shape {vals.shape}")
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise DomainError(f"samples must be finite; {bad} are NaN or infinite")
    n = vals.size
    if n < MIN_SAMPLES:
        name = "discrepancy_sym" if symmetric else "discrepancy"
        raise DomainError(f"{name} requires n >= {MIN_SAMPLES}, got {n}")
    if not symmetric and np.any(vals < 0):
        raise DomainError("half-line discrepancy requires non-negative samples")
    hs = tuple(hs)
    if not hs:
        raise DomainError("goodness of fit needs at least one test function")
    grid = np.array(_as_floats(default_grid(symmetric) if grid is None else grid))
    solved = _solved(_SolveKey(hs, grid, symmetric))

    # On each cell (A f_h)(x) = f'' - (|x|/3) f of the Hermite interpolant is
    # a degree-6 polynomial q in the cell coordinate s, and its square the
    # degree-12 polynomial C.  Every h has the grid's cells, so one sweep per
    # side builds the per-cell moments m of s^0..s^12, and each h's sum and
    # sum of squares over the sample are q . m[:, :7] and C . m: one row-wise
    # reduction over the family each, whose row h does not depend on the
    # other rows.  Clipped points count as A f_h = 0.  The sweep runs in
    # blocks of _BLOCK points, which add their moments; a sample of
    # one block is summed as a whole.
    clipped, moments = 0, [0.0] * len(solved)
    for i in range(0, n, _BLOCK):
        v = vals[i : i + _BLOCK]
        inside = (v >= grid[0]) & (v <= grid[-1])
        out = v.size - np.count_nonzero(inside)
        clipped += int(out)
        vin = v if out == 0 else v[inside]
        sides = (np.abs(vin[vin >= 0]), -vin[vin < 0]) if symmetric else (vin,)
        moments = [m + _power_sums(knots, t)
                   for m, (knots, _, _), t in zip(moments, solved, sides)]
    totals = sumsqs = 0.0
    for (_, q, c), m in zip(solved, moments):
        totals = totals + (q * m[:, :7].ravel()).sum(axis=1)
        sumsqs = sumsqs + (c * m.ravel()).sum(axis=1)
    stats = []
    for h, total, sumsq in zip(hs, totals.tolist(), sumsqs.tolist()):
        mean = total / n
        se = math.sqrt(max(sumsq - total * mean, 0.0) / (n - 1) / n)
        if se > 0:
            standardized = abs(mean) / se
        else:
            standardized = 0.0 if mean == 0 else math.inf
        stats.append(FunctionStat(_as_test_function(h).label, mean, se, standardized))

    max_std = max(s.standardized for s in stats)
    sign_balance, at_zero, z = None, 0, 0.0
    if symmetric:
        frac = float(np.count_nonzero(vals >= 0)) / n
        sign_balance = SignBalance(frac, (frac - 0.5) * 2.0 * math.sqrt(n))
        at_zero, z = int(np.count_nonzero(vals == 0.0)), abs(sign_balance.z_score)
    if max_std > REJECT_THRESHOLD or z > SIGN_Z_REJECT:
        verdict = "rejected"
    elif max_std < ACCEPT_THRESHOLD and z < SIGN_Z_ACCEPT:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return DiscrepancyReport(
        per_function=tuple(stats),
        max_standardized=max_std,
        n=n,
        clipped=clipped,
        clipped_warning=clipped > CLIP_WARN_FRACTION * n,
        verdict=verdict,
        sign_balance=sign_balance,
        at_zero=at_zero,
    )


def discrepancy(samples, hs, grid: np.ndarray | None = None) -> DiscrepancyReport:
    """Half-line Stein discrepancy of a non-negative sample against M_{1/3}.

    ``samples`` is a 1-d array or a ``SampleSet``; any other shape raises
    ``DomainError``.  ``hs`` is a non-empty sequence of test functions.  They
    are treated as pure: the solutions of a family on a grid are reused by
    later calls that pass the same function objects (by identity) and an
    equal grid.
    """
    return _report(samples, hs, grid, symmetric=False)


def discrepancy_sym(samples, hs, grid: np.ndarray | None = None) -> DiscrepancyReport:
    """Symmetric Stein discrepancy against the symmetrized M_{1/3}.

    Combines the operator means with the sign-balance z-score; the latter is
    a necessary condition on its own, so a grossly unbalanced sign split
    rejects even when every operator mean vanishes.  Samples exactly at 0
    use the 0+ branch of f''; their count is reported.  As in
    ``discrepancy``, a sample that is not 1-d raises ``DomainError``, and
    test functions are treated as pure and their solutions reused.
    """
    return _report(samples, hs, grid, symmetric=True)
