"""Seeded op lists for the three workloads.

An op is one public call: a library call, or one ``wright_stein.cli.main``
verb writing to a file.  Each workload is a sequence of identical-shape
rounds; only the inputs inside a round vary with the seed, so every run of a
workload carries the same mix of op kinds and planted inputs, and run-to-run
spread comes from the inputs and the machine, not from a changing mix.

Every eval/plotdata grid lies on the oracle lattices of make_refs.py (steps
that are powers of two), so the oracle checks an op by table lookup.
"""

from __future__ import annotations

import random

import numpy as np

WORKLOADS = ("gof-small", "cli-pipeline", "tables")

# A run does round(seconds / NOMINAL_ROUND_S) rounds (at least one), so both
# commits of a comparison run exactly the same ops.  At --seconds 25 that is
# 4, 1 and 7 rounds (16, 4 and 189 ops); at the seed commit on a 2-vCPU VM a
# round takes 7-9.5 s, ~17 s and ~4.6 s of op time (1.5 s of the last is
# the round's one deadline miss).  gof-small gets 16 ops because its p50 and
# tail need that many to stay steady.
NOMINAL_ROUND_S = {"gof-small": 6.25, "cli-pipeline": 17.0, "tables": 3.6}

# Per-op deadline, at least three times the slowest op expected to finish
# and at most a third of the fastest op expected to miss, so the miss count
# of a seed repeats exactly.
DEADLINE_S = {"gof-small": 20.0, "cli-pipeline": 40.0, "tables": 1.5}

# Which workloads build the sampler table during set-up.
USES_SAMPLER = {"gof-small": True, "cli-pipeline": True, "tables": False}

# Known failures of the seed commit, by name.  A failing op outside these
# classes makes the run incorrect.
KNOWN_FAILURES = {
    "gi-beyond-250": "eval gi returns half of Gi(x) for x past ~272 (ROADMAP item 4)",
    "ml-deadline-cliff": "eval ml misses the per-op deadline in the mpmath series "
                         "path (beta=1/3 below z~-11, 1/4 on [-14.5, -6], 1/7 on [-4.25, -3])",
}

GOF_N = (18_000, 22_000)
# One size for every CLI sample: with only four ops a run, a size drawn per op
# would move the latency metrics as much as the host does.
CLI_N = 1_000_000

BETAS = ("1/7", "1/4", "1/3", "1/2")
PLOT_BETAS = ("0", "1/7", "1/4", "1/3", "1/2")

# Mittag-Leffler strata per beta: (name, lowest z, highest z, outcome the
# seed commit gives).  Measured single-point costs at the seed commit:
#   beta=1/7: 0.1 s at z=+-2, 0.64 s at 2.5, 2.5 s at -3, 39 s at -3.5,
#             RangeError <= -4.5
#   beta=1/4: 0.07 s at -4, 0.2 s at 5, 0.45 s at -5, 8.6 s at -7,
#             >10 s on [-14.5, -9], RangeError <= -15
#   beta=1/3: 0.08 s at -7, 0.15 s at 8.75, 3.5 s at -12, >10 s at -14
#   beta=1/2: <= 0.16 s everywhere on [-30, 26.25]
# The strata skip the bands whose op time would fall within 3x of the tables
# deadline, so a seed's deadline misses repeat exactly.  An op's first point
# is its lowest z, which sets its cost.  The "cliff" strata miss the deadline
# at the seed commit (known failure ml-deadline-cliff); a round runs one of
# them, in the order of CLIFF_BETAS, so a missed op's deadline-bound time
# does not crowd out the ops that finish.  "refused" strata get a documented
# RangeError.
ML_STRATA = {
    "1/7": (("near", -2.0, 2.0, "value"), ("cliff", -4.25, -3.5, "miss"),
            ("refused", -30.0, -4.5, "refuse")),
    "1/4": (("near", -4.0, 5.0, "value"), ("cliff", -12.0, -9.0, "miss"),
            ("refused", -30.0, -15.5, "refuse")),
    "1/3": (("near", -7.0, 8.75, "value"), ("cliff", -30.0, -14.0, "miss")),
    "1/2": (("near", -15.0, 26.25, "value"), ("far", -30.0, -15.25, "value")),
}

CLIFF_BETAS = ("1/3", "1/4", "1/7")

# One-off solves are what tables measures of the solver.  Three of each kind
# per round also put the median tables op among the Wright M series evals:
# with one of each it fell between the refusals (~60 ms) and the next op
# kind (~100 ms), where it jumped by a third from seed to seed.
SOLVES_PER_ROUND = 3

SOLVE_LABELS = (
    "cos", "sin", "cos2", "sin2", "cos3", "sin3", "exp1", "exp2", "exp3",
    "invquad", "atan", "cos4", "sin4", "exp4", "invquad2", "ratio", "const",
)


def _fmt(v: float) -> str:
    return repr(float(v))


def _spec(start, step, n) -> str:
    return f"{_fmt(start)}:{_fmt(start + (n - 1) * step)}:{_fmt(step)}"


def _spanning(rng: random.Random, seen: set, key, lo: float, hi: float, n: int) -> tuple:
    """n points on the 0.25 lattice across [lo, hi] from a seeded offset.

    Every such op costs about the same; the offset is drawn without
    replacement within a run (16 choices), so no two ops share a grid.
    """
    free = [k for k in range(16) if (key, k) not in seen] or list(range(16))
    k = rng.choice(free)
    seen.add((key, k))
    step = 0.25 * int((hi - lo - 0.25 * 15) / (n - 1) / 0.25)
    return lo + 0.25 * k, step, n


def _eval_op(fn, start, step, n, beta=None, stratum="", expect="value"):
    argv = ["eval", fn]
    if beta is not None:
        argv += ["--beta", beta]
    argv.append(f"--grid={_spec(start, step, n)}")
    return {"kind": f"eval-{fn}", "argv": argv, "fn": fn, "beta": beta,
            "grid": [start, step, n], "stratum": stratum, "expect": expect}


def _tables_round(rng: random.Random, seen: set, index: int) -> list[dict]:
    ops = []
    for fn in ("ai", "bi"):
        ops.append(_eval_op(fn, *_spanning(rng, seen, fn, 0.0, 100.0, 25)))
    # Gi: five points across [0, 250], and five from just past 250 to ~400,
    # where the seed commit loses the Ai * int Bi term (gi-beyond-250).
    ops.append(_eval_op("gi", 0.5 * rng.randint(0, 20), 0.5 * rng.randint(100, 118), 5,
                        stratum="near"))
    ops.append(_eval_op("gi", 0.5 * rng.randint(501, 520), 0.5 * rng.randint(60, 68), 5,
                        stratum="far"))
    for beta, strata in ML_STRATA.items():
        for name, lo, hi, expect in strata:
            if name == "cliff" and beta != CLIFF_BETAS[index % len(CLIFF_BETAS)]:
                continue
            if expect == "value":
                # Three points across the stratum from a seeded start near its
                # bottom, where the series costs most, so each op costs the same.
                start = lo + 0.25 * rng.randint(0, 3)
                step = 0.25 * int((hi - start) / 0.5)
            else:
                # The first point alone decides a miss or a refusal.
                start = lo + 0.25 * rng.randint(0, int(round((hi - lo) / 0.25)))
                step = 0.25 * rng.choice((1, 2))
            ops.append(_eval_op("ml", start, step, 3, beta, name, expect))
    for beta in BETAS:
        ops.append(_eval_op("mwright", *_spanning(rng, seen, ("m", beta), 0.0, 30.0, 22),
                            beta=beta))
        ops.append(_eval_op("mwright-sym",
                            *_spanning(rng, seen, ("ms", beta), -30.0, 30.0, 24), beta=beta))
    for _ in range(SOLVES_PER_ROUND):
        ops.append(_solve_op(rng, symmetric=False))
        ops.append(_solve_op(rng, symmetric=True))
    betas = list(PLOT_BETAS)
    rng.shuffle(betas)
    start, step, n = _spanning(rng, seen, "plot", -10.0, 10.0, 33)
    ops.append({"kind": "plotdata", "argv": ["plotdata", "--betas", ",".join(betas),
                                             f"--grid={_spec(start, step, n)}"],
                "betas": betas, "grid": [start, step, n], "stratum": "", "expect": "value"})
    return ops


def _solve_op(rng: random.Random, symmetric: bool) -> dict:
    """A Stein solve for a seeded test function on a seeded grid of fixed size
    (320 points on the half line, 401 on the line)."""
    label = rng.choice(SOLVE_LABELS)
    if symmetric:
        # 401 points with 0 among them and |x| <= 20, the solver's cap.
        step = rng.randint(3, 5) / 64.0
        reach = int(20.0 / step)
        left = rng.randint(max(int(4.0 / step), 400 - reach), min(400 - int(4.0 / step), reach))
        start, n = -left * step, 401
    else:
        step = rng.randint(2, 3) / 64.0
        start, n = rng.randint(0, 8) / 8.0, 320
    argv = ["solve", "--h", label, f"--grid={_spec(start, step, n)}"]
    if symmetric:
        argv.append("--symmetric")
    return {"kind": "solve-sym" if symmetric else "solve", "argv": argv, "label": label,
            "grid": [start, step, n], "stratum": "", "expect": "value"}


def gof_values(op: dict, ws):
    """The sample a library GoF op tests, from its seed.

    Null and unsigned-draw samples come from ``ws.sample`` (inside the timed
    op, as a user would draw them); the off-law plants come from numpy.
    """
    rng = np.random.default_rng(op["seed"])
    if op["law"] == "exp1":
        return rng.exponential(1.0, op["n"])
    if op["law"] == "normal-var2":
        return rng.normal(0.0, np.sqrt(2.0), op["n"])
    return ws.sample(op["n"], op["seed"], symmetric=op["law"] == "null" and op["symmetric"])


def _gof_round(rng: random.Random, index: int) -> list[dict]:
    """Null half-line, null symmetric, Exp(1) half-line, and a symmetric plant
    alternating between N(0, 2) draws and unsigned M_1/3 draws."""
    def op(law, symmetric, expect):
        return {"kind": "gof-sym" if symmetric else "gof", "law": law,
                "symmetric": symmetric, "n": rng.randint(*GOF_N),
                "seed": rng.randrange(2**31), "expect": expect, "stratum": law}

    plant = "normal-var2" if index % 2 == 0 else "half-line"
    return [op("null", False, "not-rejected"), op("null", True, "not-rejected"),
            op("exp1", False, "rejected"), op(plant, True, "rejected")]


def _cli_round(rng: random.Random, index: int) -> list[dict]:
    """A user's shell session: sample to a file, then test the file, once per mode."""
    ops = []
    for symmetric in (False, True):
        n, seed = CLI_N, rng.randrange(2**31)
        path = f"session{index}-{'sym' if symmetric else 'half'}.csv"
        flag = ["--symmetric"] if symmetric else []
        ops.append({"kind": "sample", "argv": ["sample", str(n), "--seed", str(seed), *flag],
                    "out": path, "n": n, "seed": seed, "symmetric": symmetric,
                    "stratum": "", "expect": "value"})
        ops.append({"kind": "gof-cli", "argv": ["gof", "@" + path, *flag], "n": n,
                    "input": path, "symmetric": symmetric, "stratum": "",
                    "expect": "not-rejected"})
    return ops


def build_ops(workload: str, seed: int, rounds: int) -> list[dict]:
    rng = random.Random(f"{workload}-{seed}")
    ops, seen = [], set()
    for r in range(rounds):
        if workload == "tables":
            ops += _tables_round(rng, seen, r)
        elif workload == "gof-small":
            ops += _gof_round(rng, r)
        else:
            ops += _cli_round(rng, r)
    for i, op in enumerate(ops):
        op["id"] = f"{workload}-{seed}-{i}"
        if "argv" in op:
            op.setdefault("out", f"op{i}.out")
    return ops


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))
