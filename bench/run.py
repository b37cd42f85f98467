"""wright-stein benchmark: one workload, one seed, one line of results.

    python3 bench/run.py --workload gof-small --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  The line
before it is the run record (machine, versions, seeds, op counts, failing
ops, every per-layer figure), also written to bench/out/.

Child processes run in turn: cold.py twice (set-up samples), worker.py (the
ops) and oracle.py (the checks, on the worker's outcomes and files).
Set-up time is the median of three fresh interpreters: the two cold.py runs
and the worker's own cold start.  The OS file cache is not dropped between
them (that needs a machine setting this benchmark may not change), so the
figures are warm-cache cold starts.

The latency metrics cover the ops that returned.  An op that misses its
deadline is counted in ``failed``; its time is the benchmark's timer, not
the program's, so it is left out of them.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import KNOWN_FAILURES, USES_SAMPLER, WORKLOADS, rounds_for  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PARTS = ("setup.import_s", "specfun.cheb_table_cold_s",
               "specfun.scorer_norms_cold_s", "mwright.sampler_table_cold_s")


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def per_layer_units() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def source_info(src: str) -> dict:
    files = sorted(os.path.join(dp, f) for dp, _, fs in os.walk(src)
                   for f in fs if f.endswith(".py"))
    h, lines = hashlib.sha256(), 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, src).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": h.hexdigest(), "src_lines": lines, "src_files": len(files)}


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten ops beyond it.

    With ten ops or fewer no percentile qualifies and the maximum is
    reported; the record gives the percentile and its basis either way.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, f"max of {n} ops (no percentile has 10 beyond it)"
    i = n - 11
    return lat[i], 100.0 * (i + 1) / n, f"{n - 1 - i} of {n} ops beyond it"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wright_stein", "__init__.py")):
        fail(f"no wright_stein package under {src}; run from the repository root")
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)

    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.update({v: "1" for v in THREAD_VARS})

    def child(argv, what, stdin=None):
        left = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            p = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                               text=True, timeout=max(left, 1.0), input=stdin)
        except subprocess.TimeoutExpired:
            fail(f"{what} did not finish within the run limit")
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            fail(f"{what} exited with status {p.returncode}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    uses_sampler = ["--sampler"] if USES_SAMPLER[args.workload] else []
    colds = [child([os.path.join(HERE, "cold.py"), *uses_sampler], "set-up probe")
             for _ in range(SETUP_PROBES)]
    workdir = tempfile.mkdtemp(prefix="work-", dir=outdir)
    try:
        work = child([os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
                      str(args.seconds), str(args.trace), workdir], "worker")
        run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "workdir": workdir, "records": work["records"]}
        checks = child([os.path.join(HERE, "oracle.py")], "oracle", json.dumps(run))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    colds.append(work["cold"])
    setup = {k: statistics.median(c[k] for c in colds) for k in ("setup_s", *SETUP_PARTS)}

    records = work["records"]
    for r, c in zip(records, checks):
        r.update(c)
    failed = [r for r in records if r["status"] == "failed"]
    unknown = [r for r in failed if r["known"] is None]
    lat = [r["latency_s"] for r in records if not r["outcome"].get("deadline")]
    if not lat:
        fail("every op missed its deadline")
    tail_ms, tail_pct, tail_note = tail(lat)
    tail_ms *= 1000.0

    end_to_end = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": tail_ms,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": work["peak_rss_mb"],
    }
    kinds = {}
    for r in records:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "threads": {v: env[v] for v in THREAD_VARS}, "versions": work["versions"],
        "git_commit": git_commit(root), **source_info(src),
        "rounds": rounds_for(args.workload, args.seconds),
        "ops": len(records), "ops_by_kind": kinds,
        "op_deadline_s": work["deadline_s"], "ops_timed": len(lat),
        "op_tail": {"ms": tail_ms, "percentile": tail_pct, "basis": tail_note},
        "fail_frac": len(failed) / len(records),
        "refused": sum(r["status"] == "refused" for r in records),
        "known_failure_classes": KNOWN_FAILURES,
        "failed_ops": [{k: r[k] for k in ("id", "kind", "stratum", "argv", "reason", "known")}
                       for r in failed],
        "op_log": [[r["id"], r["kind"], r["stratum"], round(1000.0 * r["latency_s"], 3),
                    r["status"]] for r in records],
        "setup_samples": colds,
        "os_file_cache": "not dropped between set-up samples (needs a machine setting)",
        "end_to_end": end_to_end,
    }
    correct = not unknown
    if args.trace:
        layers = dict(work["layers"])
        layers.update({k: setup[k] for k in SETUP_PARTS})
        record["per_layer"] = layers
        record["traced_outputs_identical"] = work["identical"]
        record["span_count"] = work["span_count"]
        correct = correct and work["identical"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer_units().items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    with open(os.path.join(outdir, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
