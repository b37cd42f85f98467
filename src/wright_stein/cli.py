"""Command-line front door.

Verbs: eval, solve, sample, gof, plotdata.  All numbers print with 17
significant digits so output round-trips bit-faithfully.  Verbs raise;
``main`` alone prints ``error: <message>`` and picks the exit status:

- 0: success, or gof verdict "consistent".
- 1: gof verdict "rejected"; a library refusal that is not a usage error
  for the verb (unmet solver tolerance, a domain or range error in eval or
  plotdata, Bi overflow, non-finite values); out of memory.
- 2: usage: a bad option, grid, number or sample file, an unwritable
  output path, and a DomainError from solve or sample, or a DomainError
  or RangeError from gof.
- 3: gof verdict "inconclusive".
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from fractions import Fraction

import numpy as np

from . import gof as gof_mod
from . import mwright, specfun, stein
from ._csvtext import _csv_pieces, parse_samples_csv
from .errors import AiryOverflowError, DomainError, RangeError, WrightSteinError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# Largest grid a start:stop:step spec may expand to.
MAX_GRID_POINTS = 1_000_000


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        try:
            return float(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return float(text)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:step, got {spec!r}")
    start, stop, step = (_parse_number(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"grid start, stop and step must be finite, got {spec!r}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} is below start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # also an overflow to inf
        raise ValueError(f"grid {spec!r} exceeds {MAX_GRID_POINTS} points")
    n = int(math.floor(span)) + 1
    k0 = start / step
    if k0.is_integer() and k0 * step == start:
        # Integer multiples of the step: a point and its mirror -x are
        # both on the grid bitwise, as the symmetric solver pairs them.
        return (k0 + np.arange(n)) * step
    return start + step * np.arange(n)


@contextlib.contextmanager
def _output(path: str | None):
    """The verb's output: stdout, or the file at path.  A verb that fails
    after opening its file leaves no file behind, as a truncated file would
    read as a smaller sample or a shorter table.  The regular file that was
    opened is removed, through a link too; a device or a pipe stays."""
    if path is None:
        yield sys.stdout
        return
    fh = open(path, "w")
    opened = os.fstat(fh.fileno())
    try:
        with fh:
            yield fh
    except BaseException:
        real = os.path.realpath(path)
        with contextlib.suppress(OSError):
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.stat(real)):
                os.remove(real)
        raise


def _solve_family() -> dict:
    fns = {tf.label: tf for tf in gof_mod.default_test_functions(16)}
    fns["const"] = stein.TestFunction(
        fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        sup_norm=1.0,
        label="const",
        even=True,
    )
    return fns


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wright-stein",
        description="M-Wright(1/3) special functions, Stein solver and goodness-of-fit",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    pe = sub.add_parser("eval", help="tabulate a special function over a grid")
    pe.add_argument("function", choices=["ai", "bi", "gi", "ml", "mwright", "mwright-sym"])
    pe.add_argument("grid", nargs="?", default=None,
                    help="start:stop:step (for negative starts use --grid=...)")
    pe.add_argument("--grid", dest="grid_opt", default=None,
                    help="start:stop:step; the = form accepts negative starts")
    pe.add_argument("--beta", default=None, help="parameter for ml / mwright (fractions ok)")
    pe.add_argument("-o", "--output", default=None)

    ps = sub.add_parser("solve", help="solve the Stein equation for a named h")
    ps.add_argument("--h", required=True, dest="h_label",
                    help="test-function label (default family, or 'const')")
    ps.add_argument("--symmetric", action="store_true")
    ps.add_argument("--grid", default=None, help="start:stop:step")
    ps.add_argument("-o", "--output", default=None)

    pm = sub.add_parser("sample", help="draw M-Wright(1/3) samples")
    pm.add_argument("n", type=int)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--symmetric", action="store_true")
    pm.add_argument("-o", "--output", default=None)

    pg = sub.add_parser("gof", help="Stein-discrepancy goodness of fit on a sample CSV")
    pg.add_argument("input", help="CSV path, one value per line, # comments ignored")
    pg.add_argument("--symmetric", action="store_true")
    pg.add_argument("--k", type=int, default=11, help="number of test functions (1..16)")
    pg.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    pg.add_argument("-o", "--output", default=None)

    pp = sub.add_parser("plotdata", help="symmetrized density curves as CSV")
    pp.add_argument("--betas", default="0,1/7,1/3,1/2",
                    help="comma-separated list, fractions ok, each in [0, 1/2]")
    pp.add_argument("--grid", default="-5:5:0.01", help="start:stop:step")
    pp.add_argument("-o", "--output", default=None)

    return p


def _cmd_eval(args) -> int:
    if args.grid is not None and args.grid_opt is not None:
        raise ValueError("eval takes one grid, positional or --grid, not both")
    spec = args.grid_opt if args.grid_opt is not None else args.grid
    if spec is None:
        raise ValueError("eval needs a grid (positional or --grid=start:stop:step)")
    xs = _parse_grid(spec)

    needs_beta = args.function in ("ml", "mwright", "mwright-sym")
    if needs_beta and args.beta is None:
        raise ValueError(f"--beta is required for {args.function}")
    if not needs_beta and args.beta is not None:
        raise ValueError(f"--beta is not accepted for {args.function}")
    try:
        beta = _parse_number(args.beta) if args.beta is not None else None
    except ValueError as e:
        raise ValueError(f"--beta: {e}") from None

    if args.function in ("ai", "bi"):
        row = slice(0, 1) if args.function == "ai" else slice(2, 3)
        vals = specfun._airy_fields(xs, row, False)[0]
        bad = ~np.isfinite(vals)
        if bad.any():
            raise AiryOverflowError(
                f"unscaled {args.function} overflows at x={float(xs[bad][0])!r}"
            )
    elif args.function == "gi":
        vals = specfun.scorer_gi(xs)
    elif args.function == "ml":
        vals = specfun.mittag_leffler(beta, xs)
    elif args.function == "mwright":
        vals = np.asarray(mwright.density(beta, xs))
    else:
        vals = np.asarray(mwright.density_sym(beta, xs))

    with _output(args.output) as fh:
        fh.write("x,value\n")
        fh.writelines(_csv_pieces(xs, np.atleast_1d(vals)))
    return EXIT_OK


def _cmd_solve(args) -> int:
    family = _solve_family()
    if args.h_label not in family:
        raise ValueError(
            f"unknown test function {args.h_label!r}; choose from {sorted(family)}"
        )
    tf = family[args.h_label]
    grid = None if args.grid is None else _parse_grid(args.grid)
    solve = stein.solve_stein_sym if args.symmetric else stein.solve_stein
    text = solve(tf, grid).to_csv()
    with _output(args.output) as fh:
        fh.write(text)
    return EXIT_OK


def _cmd_sample(args) -> int:
    s = mwright.sample(args.n, seed=args.seed, symmetric=args.symmetric)
    with _output(args.output) as fh:
        s.to_csv(fh)
    return EXIT_OK


def _cmd_gof(args) -> int:
    with open(args.input) as fh:
        vals = parse_samples_csv(fh)
    hs = gof_mod.default_test_functions(args.k)
    test = gof_mod.discrepancy_sym if args.symmetric else gof_mod.discrepancy
    rep = test(vals, hs)
    text = rep.to_csv() if args.csv else rep.to_table()
    with _output(args.output) as fh:
        fh.write(text)
    return {
        "consistent": EXIT_OK,
        "rejected": EXIT_REJECTED,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[rep.verdict]


def _cmd_plotdata(args) -> int:
    labels = [b.strip() for b in args.betas.split(",") if b.strip()]
    betas = [_parse_number(b) for b in labels]
    xs = _parse_grid(args.grid)
    if not betas:
        raise ValueError("no betas given")
    for b in betas:
        if not (0 <= b <= 0.5):
            raise ValueError(f"beta {b} outside [0, 1/2]")
    cols = [np.asarray(mwright.density_sym(b, xs)) for b in betas]
    with _output(args.output) as fh:
        fh.write("x," + ",".join(f"beta={label}" for label in labels) + "\n")
        fh.writelines(_csv_pieces(xs, *cols))
    return EXIT_OK


# Each verb's command, and the library errors that are usage errors (exit 2)
# for it; every other WrightSteinError exits 1.
_VERBS = {
    "eval": (_cmd_eval, ()),
    "solve": (_cmd_solve, (DomainError,)),
    "sample": (_cmd_sample, (DomainError,)),
    "gof": (_cmd_gof, (DomainError, RangeError)),
    "plotdata": (_cmd_plotdata, ()),
}

# The parser main uses, built on its first call.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    try:
        # parse_known_args so that "eval fn --beta B start:stop:step" works:
        # argparse does not match an optional positional that appears after
        # an option, so a single non-flag leftover is accepted as the grid.
        args, extra = parser.parse_known_args(argv)
        if extra:
            if (
                getattr(args, "verb", None) == "eval"
                and getattr(args, "grid", None) is None
                and len(extra) == 1
                and not extra[0].startswith("-")
            ):
                args.grid = extra[0]
            else:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_USAGE
    command, usage_errors = _VERBS[args.verb]
    try:
        return command(args)
    except (WrightSteinError, MemoryError, ValueError, OSError) as e:
        # WrightSteinError first: DomainError and RangeError are ValueErrors.
        if isinstance(e, WrightSteinError):
            code = EXIT_USAGE if isinstance(e, usage_errors) else EXIT_REJECTED
        else:
            code = EXIT_REJECTED if isinstance(e, MemoryError) else EXIT_USAGE
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
