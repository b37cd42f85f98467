"""Cold start of wright_stein in a fresh interpreter, timed phase by phase.

Imports only the standard library before ``import wright_stein`` so the
import time includes numpy, scipy and mpmath.  Run as a script it prints one
JSON object; bench/worker.py calls ``cold_start`` first thing for the same
numbers from its own interpreter.
"""

import json
import sys
import time


def cold_start(uses_sampler: bool) -> dict:
    """Time import and each lazy table build through public calls.

    ``setup_s`` covers the tables the workload uses; the sampler table is
    timed in every case so its per-layer figure exists for every workload,
    but counts towards ``setup_s`` only when the workload samples.
    """
    t0 = time.perf_counter()
    import wright_stein as ws

    t1 = time.perf_counter()
    ws.airy_many([0.5])
    t2 = time.perf_counter()
    ws.scorer_gi_norms()
    t3 = time.perf_counter()
    ws.sample(16, seed=0)
    t4 = time.perf_counter()
    parts = {
        "setup.import_s": t1 - t0,
        "specfun.cheb_table_cold_s": t2 - t1,
        "specfun.scorer_norms_cold_s": t3 - t2,
        "mwright.sampler_table_cold_s": t4 - t3,
    }
    parts["setup_s"] = (t4 - t0) if uses_sampler else (t3 - t0)
    return parts


if __name__ == "__main__":
    print(json.dumps(cold_start(sys.argv[1:] == ["--sampler"])))
