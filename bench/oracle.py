"""Correctness checks for benchmark ops, run outside the timed region.

The rule is "right or refused": an op passes when it returns values within
the documented accuracy of the oracle in refs.json (or the verdict a planted
input calls for), or when it refuses with a documented error (a
WrightSteinError from the library, or CLI exit 1/2 with a message on
stderr).  It fails when it raises anything else, returns a value outside its
accuracy, gives the wrong verdict or exit code, or misses its deadline.

Run as a script it checks a finished worker run in its own process, so the
checks' time and memory stay out of the worker's figures:

    python3 bench/oracle.py < RUN.json

RUN.json is {"workload", "seed", "seconds", "workdir", "records"} with the
worker's records; it prints one JSON list of {"status", "reason", "known"},
one per op.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from workloads import build_ops, gof_values, rounds_for

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# (absolute, relative) tolerance per function, from the documented accuracy:
# Airy a few 1e-16 abs / ~3e-14 rel; Scorer quadrature at 1e-12; ML abs_tol
# 1e-10; Wright M series abs_tol 1e-12 (closed forms are tighter).
TOLERANCE = {
    "ai": (1e-300, 1e-12),
    "bi": (1e-300, 1e-12),
    "gi": (1e-300, 1e-10),
    "ml": (1e-9, 1e-9),
    "mwright": (1e-11, 1e-9),
}
EXPECTATION_TOL = 1e-9
RESIDUAL_TOL = 1e-6  # stein.RESIDUAL_TOL, the solver's documented guarantee
BOUNDARY_TOL = 1e-10  # half-line solutions satisfy f(0) = f'(0) = 0 to roundoff
# A GoF mean is the sample mean of (A f_h)(x) = h(x) - E[h(+-Y)] over the
# points inside the default grid ([0, 12] or [-12, 12]; the rest count 0).
# The solver's residual (1e-6) and the interpolation between grid points
# bound the gap; at the seed commit it is at most 6e-7 on 2e4 points.
IDENTITY_ATOL = 5e-6
IDENTITY_SE_RTOL = 1e-3
GOF_GRID_CAP = 12.0

# The first eleven of the documented test-function family, in its order.
GOF_FAMILY = (
    ("cos", np.cos), ("sin", np.sin),
    ("cos2", lambda x: np.cos(2 * x)), ("sin2", lambda x: np.sin(2 * x)),
    ("cos3", lambda x: np.cos(3 * x)), ("sin3", lambda x: np.sin(3 * x)),
    ("exp1", lambda x: np.exp(-np.abs(x))), ("exp2", lambda x: np.exp(-2 * np.abs(x))),
    ("exp3", lambda x: np.exp(-3 * np.abs(x))), ("invquad", lambda x: 1 / (1 + x * x)),
    ("atan", np.arctan),
)

class Oracle:
    def __init__(self, path: str = REFS_PATH):
        with open(path) as fh:
            self.refs = json.load(fh)
        self.lattices = self.refs["lattices"]

    def _lookup(self, table, lattice, xs):
        lo, hi, step = lattice
        idx = np.rint((np.asarray(xs) - lo) / step).astype(int)
        if np.any(np.asarray(xs) < lo) or np.any(np.asarray(xs) > hi):
            raise ValueError("grid leaves the oracle lattice")
        if np.any(np.abs(lo + idx * step - np.asarray(xs)) > 0):
            raise ValueError("grid point off the oracle lattice")
        return np.asarray(table, dtype=float)[idx]

    def reference(self, fn: str, beta: str | None, xs):
        if fn in ("ai", "bi"):
            return self._lookup(self.refs[fn], self.lattices["airy"], xs)
        if fn == "gi":
            return self._lookup(self.refs["gi"], self.lattices["gi"], xs)
        if fn == "ml":
            return self._lookup(self.refs["ml"][beta], self.lattices[f"ml {beta}"], xs)
        if fn == "mwright":
            return self._lookup(self.refs["mwright"][beta], self.lattices["mwright"], xs)
        if fn == "mwright-sym":
            return 0.5 * self.reference("mwright", beta, np.abs(xs))
        raise KeyError(fn)

    @staticmethod
    def bad_points(fn, xs, got, ref):
        atol, rtol = TOLERANCE["mwright" if fn == "mwright-sym" else fn]
        ok = np.isfinite(got) & (np.abs(got - ref) <= atol + rtol * np.abs(ref))
        return [float(x) for x in np.asarray(xs)[~ok]]


def cli_grid(start: float, step: float, n: int) -> np.ndarray:
    """The points the CLI builds for start:stop:step (mirrors cli._parse_grid)."""
    stop = start + (n - 1) * step
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _csv_rows(text: str) -> np.ndarray:
    body = [ln for ln in text.splitlines()[1:] if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in body])


def _refused(outcome) -> bool:
    return outcome["exit"] in (1, 2) and outcome["stderr"].strip() != ""


def check_cli(oracle: Oracle, op: dict, outcome: dict, text: str | None) -> tuple[str, str]:
    """Return (status, reason) for a CLI op other than gof; status is 'ok',
    'refused' or 'failed'."""
    kind = op["kind"]
    if _refused(outcome):
        return "refused", outcome["stderr"].strip().splitlines()[-1][:160]
    if outcome["exit"] != 0:
        return "failed", f"exit {outcome['exit']} without a message"
    if kind.startswith("eval-"):
        xs = cli_grid(*op["grid"])
        rows = _csv_rows(text)
        if rows.shape != (xs.size, 2) or np.any(rows[:, 0] != xs):
            return "failed", "output grid differs from the requested grid"
        ref = oracle.reference(op["fn"], op["beta"], xs)
        return _value_status(Oracle.bad_points(op["fn"], xs, rows[:, 1], ref))
    if kind == "plotdata":
        xs = cli_grid(*op["grid"])
        rows = _csv_rows(text)
        if rows.shape != (xs.size, 1 + len(op["betas"])) or np.any(rows[:, 0] != xs):
            return "failed", "output grid differs from the requested grid"
        bad = []
        for j, beta in enumerate(op["betas"]):
            ref = oracle.reference("mwright-sym", beta, xs)
            bad += Oracle.bad_points("mwright-sym", xs, rows[:, j + 1], ref)
        return _value_status(sorted(bad))
    if kind in ("solve", "solve-sym"):
        return _check_solve(oracle, op, text)
    if kind == "sample":
        return "ok", ""  # content checked by check_sample_file
    return "failed", f"no check for op kind {kind}"


def _value_status(bad: list[float]) -> tuple[str, str]:
    if not bad:
        return "ok", ""
    more = f" (+{len(bad) - 4} more)" if len(bad) > 4 else ""
    return "failed", f"wrong values at x={bad[:4]}{more}; lowest {bad[0]!r}"


def _check_solve(oracle: Oracle, op: dict, text: str) -> tuple[str, str]:
    header = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and "=" in ln and " " not in ln[2:].split("=", 1)[0]:
            key, val = ln[2:].split("=", 1)
            header[key] = val
    rows = _csv_rows("\n".join(ln for ln in text.splitlines() if not ln.startswith("#")))
    xs = cli_grid(*op["grid"])
    if rows.shape != (xs.size, 5) or np.any(rows[:, 0] != xs):
        return "failed", "solution grid differs from the requested grid"
    if not np.all(np.isfinite(rows)):
        return "failed", "non-finite solution values"
    e_pos, e_neg = oracle.refs["expectation"][op["label"]]
    if abs(float(header["expectation_h"]) - e_pos) > EXPECTATION_TOL:
        return "failed", f"E[h(Y)] = {header['expectation_h']}, oracle {e_pos!r}"
    if op["kind"] == "solve-sym" and abs(float(header["expectation_h_neg"]) - e_neg) > EXPECTATION_TOL:
        return "failed", f"E[h(-Y)] = {header['expectation_h_neg']}, oracle {e_neg!r}"
    if float(header["residual_sup"]) > RESIDUAL_TOL or np.max(rows[:, 4]) > RESIDUAL_TOL:
        return "failed", "residual above the documented tolerance"
    if op["kind"] == "solve" and xs[0] == 0.0 and max(abs(rows[0, 1]), abs(rows[0, 2])) > BOUNDARY_TOL:
        return "failed", "f(0) or f'(0) not zero"
    return "ok", ""


_EXIT_VERDICT = {0: "consistent", 1: "rejected", 3: "inconclusive"}


def _check_gof_text(oracle: Oracle, op: dict, outcome: dict, text: str | None,
                    values: np.ndarray) -> tuple[str, str]:
    if _refused(outcome):
        return "refused", outcome["stderr"].strip().splitlines()[-1][:160]
    verdict = _EXIT_VERDICT.get(outcome["exit"])
    if verdict is None or text is None:
        return "failed", f"exit {outcome['exit']}"
    if f"verdict: {verdict}" not in text or f"n = {op['n']}," not in text:
        return "failed", "report disagrees with the exit code or sample size"
    rows = [ln.split() for ln in text.splitlines()[1:1 + len(GOF_FAMILY)]]
    stats = [[r[0], float(r[1]), float(r[2])] for r in rows]
    status = _check_identity(oracle, op, stats, values)
    return status if status[0] == "failed" else _verdict_status(op, verdict)


def _verdict_status(op: dict, verdict: str) -> tuple[str, str]:
    if op["expect"] == "rejected" and verdict != "rejected":
        return "failed", f"planted {op['stratum']} sample not rejected ({verdict})"
    if op["expect"] == "not-rejected" and verdict == "rejected":
        return "failed", "null sample rejected"
    return "ok", ""


def _check_identity(oracle: Oracle, op: dict, stats: list, values: np.ndarray) -> tuple[str, str]:
    """Compare each reported (label, mean, std_error) with the Stein identity
    (A f_h)(x) = h(x) - E[h(Y)] (E[h(-Y)] for x < 0 in the symmetric test)."""
    if [s[0] for s in stats] != [label for label, _ in GOF_FAMILY]:
        return "failed", "report lists other test functions than the default eleven"
    inside = np.abs(values) <= GOF_GRID_CAP
    for (label, mean, se), (_, h) in zip(stats, GOF_FAMILY):
        e_pos, e_neg = oracle.refs["expectation"][label]
        e = np.where(values >= 0, e_pos, e_neg) if op["symmetric"] else e_pos
        av = np.where(inside, h(values) - e, 0.0)
        want, want_se = float(np.mean(av)), float(np.std(av, ddof=1)) / math.sqrt(av.size)
        if not abs(mean - want) <= IDENTITY_ATOL:
            return "failed", f"{label}: mean {mean!r}, Stein identity gives {want!r}"
        if not abs(se - want_se) <= IDENTITY_SE_RTOL * want_se:
            return "failed", f"{label}: std_error {se!r}, Stein identity gives {want_se!r}"
    return "ok", ""


def check_gof_report(oracle: Oracle, op: dict, report: dict, values: np.ndarray) -> tuple[str, str]:
    stats = report["per_function"]
    if report["n"] != op["n"] or report["clipped"] != int(np.sum(np.abs(values) > GOF_GRID_CAP)):
        return "failed", "report size or clipped count mismatch"
    if not all(math.isfinite(s[3]) for s in stats):
        return "failed", "non-finite statistic"
    status = _check_identity(oracle, op, [s[:3] for s in stats], values)
    return status if status[0] == "failed" else _verdict_status(op, report["verdict"])


def check_sample_file(op: dict, text: str, expected: np.ndarray) -> tuple[str, str]:
    head, _, body = text.partition("\n")
    if not head.startswith("# generator=mwright") or f"n={op['n']}" not in head:
        return "failed", "sample header wrong"
    vals = np.fromstring(body, sep="\n")
    if vals.shape != expected.shape or not np.array_equal(vals, expected):
        return "failed", "sample file does not round-trip the draws"
    return "ok", ""


def known_class(op: dict, reason: str) -> str | None:
    """Name of the known seed failure this failed op belongs to, if any."""
    if op["kind"] == "eval-ml" and op["stratum"] == "cliff" and reason == "deadline":
        return "ml-deadline-cliff"
    if op["kind"] == "eval-gi" and reason.startswith("wrong values at x="):
        if float(reason.rsplit("lowest ", 1)[1]) > 250.0:
            return "gi-beyond-250"
    return None


def check_op(oracle: Oracle, op: dict, outcome: dict, opdir: str, draws: dict, ws) -> tuple[str, str]:
    """Check one op from its outcome and output file.

    ``draws`` carries each sample file's expected draws to the gof op that
    reads the file.
    """
    if outcome.get("deadline"):
        return "failed", "deadline"
    if "exception" in outcome:
        return "failed", "exception " + outcome["exception"]
    if "refused" in outcome:
        return "refused", outcome["refused"]
    if "report" in outcome:
        values = gof_values(op, ws)
        return check_gof_report(oracle, op, outcome["report"], getattr(values, "values", values))
    path = os.path.join(opdir, op["out"])
    text = None
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
    try:
        if op["kind"] == "gof-cli":
            if op["input"] not in draws and not _refused(outcome):
                return "failed", "its input sample failed its own check"
            return _check_gof_text(oracle, op, outcome, text, draws.get(op["input"]))
        status = check_cli(oracle, op, outcome, text)
        if op["kind"] == "sample" and status[0] == "ok":
            expected = ws.sample(op["n"], op["seed"], symmetric=op["symmetric"]).values
            status = check_sample_file(op, text, expected)
            if status[0] == "ok":
                draws[op["out"]] = expected
        return status
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # Output missing or not in the documented format.
        return "failed", f"unreadable output ({type(exc).__name__}: {exc})"


def main():
    import wright_stein as ws

    run = json.load(sys.stdin)
    ops = build_ops(run["workload"], run["seed"], rounds_for(run["workload"], run["seconds"]))
    if [op["id"] for op in ops] != [r["id"] for r in run["records"]]:
        raise SystemExit("oracle: the records are not the ops of this workload and seed")
    oracle, draws, out = Oracle(), {}, []
    opdir = os.path.join(run["workdir"], "ops")
    for op, rec in zip(ops, run["records"]):
        status, reason = check_op(oracle, op, rec["outcome"], opdir, draws, ws)
        known = known_class(op, reason) if status == "failed" else None
        out.append({"status": status, "reason": reason, "known": known})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
