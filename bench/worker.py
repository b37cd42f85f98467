"""One workload, closed loop, in a fresh interpreter; prints one JSON object.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

A single caller issues each op after the previous one returns.  The
interpreter starts with the cold start of cold.py, so its set-up figures are
one of the samples run.py takes the median of.  The worker only runs ops: it
keeps each op's outcome, and the CLI's output files under WORKDIR/ops, for
oracle.py to check in another process, so neither the checks' time nor
their memory lands in this process's figures.  With TRACE=1 the same ops
run a second time under the span tracer, in WORKDIR/traced; the two passes
must produce identical outputs.
"""

import sys
import time

from cold import cold_start
from workloads import DEADLINE_S, USES_SAMPLER, build_ops, gof_values, rounds_for


class DeadlineMiss(BaseException):
    """Raised by SIGALRM inside an op that outlives its deadline.

    A BaseException, so no ``except Exception`` inside the package absorbs it.
    """


def main():
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    cold = cold_start(USES_SAMPLER[workload])

    import contextlib
    import hashlib
    import io
    import json
    import os
    import platform
    import resource
    import shutil
    import signal

    import mpmath
    import numpy as np
    import scipy

    import wright_stein as ws
    from wright_stein import cli
    from spans import Tracer, aggregate

    seed, trace = int(seed), trace == "1"
    ops = build_ops(workload, seed, rounds_for(workload, float(seconds)))
    deadline = DEADLINE_S[workload]

    def on_alarm(signum, frame):
        raise DeadlineMiss()

    signal.signal(signal.SIGALRM, on_alarm)

    def run_op(op, opdir):
        """Run one op; returns (latency_s, outcome)."""
        outcome = {}
        if op["kind"] in ("gof", "gof-sym"):
            # Off-law plants are drawn before the timer; a user's own
            # sample() call is part of the op.
            values = gof_values(op, ws) if op["law"] in ("exp1", "normal-var2") else None
        else:
            argv = [os.path.join(opdir, a[1:]) if a.startswith("@") else a for a in op["argv"]]
            argv += ["-o", os.path.join(opdir, op["out"])]
        err = io.StringIO()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            if op["kind"] in ("gof", "gof-sym"):
                if values is None:
                    values = gof_values(op, ws)
                test = ws.discrepancy_sym if op["symmetric"] else ws.discrepancy
                report = test(values, ws.default_test_functions(11))
                outcome["report"] = {
                    "n": report.n, "clipped": report.clipped, "verdict": report.verdict,
                    "per_function": [[s.label, s.mean, s.std_error, s.standardized]
                                     for s in report.per_function]}
            else:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
                    outcome["exit"] = cli.main(argv)
        except DeadlineMiss:
            outcome["deadline"] = True
        except ws.WrightSteinError as exc:
            outcome["refused"] = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an undocumented exception is a failed op
            outcome["exception"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
        outcome["stderr"] = err.getvalue().replace(opdir, "<workdir>")
        return latency, outcome

    def run_pass(opdir):
        os.makedirs(opdir)
        records = []
        for op in ops:
            if tracer is not None:
                tracer.op = op["id"]
            latency, outcome = run_op(op, opdir)
            if tracer is not None:
                tracer.op = None
            records.append({"id": op["id"], "kind": op["kind"], "stratum": op["stratum"],
                            "argv": op.get("argv") or [op["law"], op["n"], op["seed"]],
                            "latency_s": latency, "outcome": outcome})
        return records

    def digest(record, opdir, op):
        """Hash of an op's outcome and output file, read in chunks."""
        h = hashlib.sha256(json.dumps(record["outcome"], sort_keys=True).encode())
        path = os.path.join(opdir, op.get("out", ""))
        if op.get("out") and os.path.exists(path):
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        return h.hexdigest()

    tracer = None
    records = run_pass(os.path.join(workdir, "ops"))
    # The high-water mark of the ops alone: nothing after this line counts.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"cold": cold, "records": records, "peak_rss_mb": peak_rss_mb,
           "deadline_s": deadline, "versions": {
               "python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__, "mpmath": mpmath.__version__}}

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(os.path.join(workdir, "traced"))
        finally:
            tracer.uninstall()
        out["identical"] = all(
            digest(a, os.path.join(workdir, "ops"), op)
            == digest(b, os.path.join(workdir, "traced"), op)
            for a, b, op in zip(records, traced, ops))
        shutil.rmtree(os.path.join(workdir, "traced"), ignore_errors=True)
        wall = sum(r["latency_s"] for r in records)
        traced_wall = sum(r["latency_s"] for r in traced)
        out["layers"] = aggregate(tracer.spans, {r["id"]: r["latency_s"] for r in traced})
        out["layers"]["trace.overhead_frac"] = traced_wall / wall - 1.0
        out["span_count"] = len(tracer.spans)
        tracer.write(os.path.join(os.path.dirname(os.path.abspath(workdir)),
                                  f"spans-{workload}-seed{seed}.jsonl"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
