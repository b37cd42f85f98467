"""Span tracing of wright_stein from outside the package.

The package binds its functions with ``from .x import name``, so patching
``specfun.airy_many`` alone would miss ``stein.airy_many`` and
``mwright.airy_many``.  ``Tracer.install`` replaces every binding of each
traced function in every loaded wright_stein module, plus the two ``to_csv``
methods on their classes, and ``uninstall`` puts the originals back.  No
code under src/ changes.

Each span records name, start, end, parent span, op id, status and a few
counts taken from the call's arguments or result.  Spans stay in memory and
are written out by the caller when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x) -> int:
    return int(np.size(getattr(x, "values", x)))


def _solve_key(kind):
    def counts(args, kwargs, result):
        h = args[0] if args else kwargs.get("h")
        grid = args[1] if len(args) > 1 else kwargs.get("grid")
        g = "default" if grid is None else hashlib.sha1(
            np.ascontiguousarray(grid, dtype=float).tobytes()).hexdigest()
        return {"key": f"{getattr(h, 'label', repr(h))}|{g}|{kind}"}
    return counts


# (module, attribute, class or None, span name, counts(args, kwargs, result))
TRACED = (
    ("cli", "main", None, "cli.main", None),
    ("cli", "parse_samples_csv", None, "cli.parse_samples_csv",
     lambda a, k, r: {"rows": len(r)}),
    ("gof", "discrepancy", None, "gof.discrepancy",
     lambda a, k, r: {"sample_points": _size(a[0])}),
    ("gof", "discrepancy_sym", None, "gof.discrepancy",
     lambda a, k, r: {"sample_points": _size(a[0])}),
    ("stein", "solve_stein", None, "stein.solve", _solve_key("half")),
    ("stein", "solve_stein_sym", None, "stein.solve_sym", _solve_key("sym")),
    ("stein", "to_csv", "SteinSolution", "stein.to_csv", None),
    ("mwright", "to_csv", "SampleSet", "mwright.to_csv",
     lambda a, k, r: {"rows": a[0].size}),
    ("mwright", "sample", None, "mwright.sample",
     lambda a, k, r: {"draws": int(a[0] if a else k["n"])}),
    ("mwright", "density", None, "mwright.density",
     lambda a, k, r: {"points": _size(a[1] if len(a) > 1 else k["x"])}),
    ("specfun", "airy_many", None, "specfun.airy_many",
     lambda a, k, r: {"points": _size(a[0] if a else k["xs"])}),
    ("specfun", "green_pass", None, "specfun.green_pass",
     lambda a, k, r: {"rhs": len(a[1] if len(a) > 1 else k["rhs_fns"]),
                      "evaluations": int(r["evaluations"])}),
    ("specfun", "scorer_gi", None, "specfun.scorer", None),
    ("specfun", "scorer_gi_prime", None, "specfun.scorer", None),
    ("specfun", "airy_ai_tail_integral", None, "specfun.scorer", None),
    ("specfun", "mittag_leffler", None, "specfun.mittag_leffler", None),
    ("specfun", "wright_m_series", None, "specfun.wright_m_series", None),
    ("numerics", "integrate", None, "numerics.integrate",
     lambda a, k, r: {"evaluations": int(r.evaluations)}),
    ("numerics", "cell_integrals", None, "numerics.cell_integrals",
     lambda a, k, r: {"evaluations": int(r[2])}),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, status, counts]
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.op = None

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, "ok", None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counts is not None:
                rec[6] = counts(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "wright_stein" or n.startswith("wright_stein.")]
        for mod_name, attr, cls, name, counts in TRACED:
            home = sys.modules[f"wright_stein.{mod_name}"]
            if cls is not None:
                owner = getattr(home, cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, counts))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, counts)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, status, counts) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "status": status,
                                     **(counts or {})}) + "\n")


def aggregate(spans, op_walls: dict) -> dict:
    """Per-layer metrics from a span list (see README for the definitions).

    ``op_walls`` maps op id to the op's traced wall time; the share of it
    that the op's top-level spans cover is reported as its lowest value
    over the ops.
    """
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    by = defaultdict(lambda: defaultdict(float))
    top = defaultdict(float)
    for i, (name, t0, t1, parent, op, status, counts) in enumerate(spans):
        agg = by[name]
        agg["calls"] += 1
        agg["self_s"] += (t1 - t0) - child[i]
        for key, val in (counts or {}).items():
            if key != "key":
                agg[key] += val
        if parent < 0:
            top[op] += t1 - t0
        if status == "DeadlineMiss":
            agg["deadline_misses"] += 1

    def ancestor(i, target):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == target:
                return True
            p = spans[p][3]
        return False

    solves = [s for s in spans if s[0] in ("stein.solve", "stein.solve_sym")]
    keys = {s[6]["key"] for s in solves if s[6]}
    halfline_in_gof = sum(1 if s[0] == "stein.solve" else 2
                          for i, s in enumerate(spans)
                          if s[0] in ("stein.solve", "stein.solve_sym")
                          and ancestor(i, "gof.discrepancy"))
    fallbacks = sum(1 for s in spans if s[0] == "numerics.integrate"
                    and s[3] >= 0 and spans[s[3]][0] == "numerics.cell_integrals")

    out = {}
    fields = {
        "specfun.airy_many": ("calls", "points", "self_s"),
        "specfun.green_pass": ("calls", "rhs", "self_s", "evaluations"),
        "stein.solve": ("calls", "self_s"),
        "stein.solve_sym": ("calls", "self_s"),
        "gof.discrepancy": ("calls", "self_s", "sample_points"),
        "cli.main": ("calls", "self_s"),
        "cli.parse_samples_csv": ("rows", "self_s"),
        "mwright.to_csv": ("rows", "self_s"),
        "stein.to_csv": ("calls", "self_s"),
        "mwright.sample": ("calls", "draws", "self_s"),
        "mwright.density": ("calls", "points", "self_s"),
        "specfun.scorer": ("calls", "self_s"),
        "specfun.mittag_leffler": ("calls", "self_s", "deadline_misses"),
        "specfun.wright_m_series": ("calls", "self_s"),
        "numerics.integrate": ("calls", "self_s", "evaluations"),
        "numerics.cell_integrals": ("calls", "self_s", "evaluations"),
    }
    for name, keys_ in fields.items():
        for key in keys_:
            out[f"{name}.{key}"] = by[name][key] if name in by else 0.0
    air = by.get("specfun.airy_many", {})
    out["specfun.airy_many.ns_per_point"] = (
        1e9 * air["self_s"] / air["points"] if air and air["points"] else 0.0)
    gd = by.get("gof.discrepancy", {})
    out["gof.discrepancy.ns_per_sample_point"] = (
        1e9 * gd["self_s"] / gd["sample_points"] if gd and gd["sample_points"] else 0.0)
    out["gof.solves_per_call"] = halfline_in_gof / gd["calls"] if gd else 0.0
    out["stein.solve.unique_frac"] = len(keys) / len(solves) if solves else 0.0
    out["numerics.cell_fallbacks"] = float(fallbacks)
    out["trace.top_span_coverage"] = min(top[op] / wall for op, wall in op_walls.items())
    return out
