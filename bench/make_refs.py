"""Generate the oracle tables in bench/refs.json with mpmath.

Run from the repository root:

    python3 bench/make_refs.py

The tables hold reference values on fixed lattices; every grid the
benchmark generates lies on these lattices, so checking an op is a lookup.
No value comes from wright_stein itself, and the Mittag-Leffler references
for z < 0 use the Gorenflo-Mainardi spectral integral, not the power series
the package sums:

    E_b(-x) = int_0^inf exp(-r x^(1/b)) K_b(r) dr,
    K_b(r) = sin(b pi)/pi * r^(b-1) / (r^(2b) + 2 r^b cos(b pi) + 1),

taken in the variable w = x r^b, where the endpoint singularity is gone:

    E_b(-x) = sin(b pi)/(b pi) * int_0^inf exp(-w^(1/b)) x / (w^2 + 2 w x cos(b pi) + x^2) dw.

Self-checks run first: they compare independent routes where both exist
(beta = 1/2 closed form, beta = 1/3 Laplace integral of 3^(2/3) Ai, the
Wright M series against the Airy closed form) and abort on disagreement.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

mp.mp.dps = 40

HERE = os.path.dirname(os.path.abspath(__file__))

# (lo, hi, step) of each lattice; steps are powers of two so lattice points
# are exact binary floats and CLI grids built from them hit them exactly.
AIRY_LATTICE = (0.0, 100.0, 0.25)
GI_LATTICE = (0.0, 400.0, 0.5)
MWRIGHT_LATTICE = (0.0, 30.0, 0.25)
ML_STEP = 0.25
ML_Z_MIN = -30.0
BETAS = {"1/7": mp.mpf(1) / 7, "1/4": mp.mpf(1) / 4, "1/3": mp.mpf(1) / 3, "1/2": mp.mpf(1) / 2}
MWRIGHT_BETAS = {"0": mp.mpf(0), **BETAS}


def lattice(lo, hi, step):
    n = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(n)]


def ml_z_max(beta: float) -> float:
    """Largest lattice z whose E_beta(z) ~ exp(z^(1/beta)) stays in double range."""
    z = 0.0
    while (z + ML_STEP) ** (1.0 / beta) <= 700.0:
        z += ML_STEP
    return z


def ml_spectral(beta, x):
    """E_beta(-x) for x > 0 by the spectral (complete monotonicity) integral."""
    x = mp.mpf(x)
    c2 = 2 * mp.cos(beta * mp.pi)

    def k(w):
        return mp.exp(-(w ** (1 / beta))) * x / (w * w + c2 * w * x + x * x)

    cuts = [0, 0.25, 0.5, 1, 1.5, 2, 3, 5, 8, mp.inf]
    return mp.sin(beta * mp.pi) / (beta * mp.pi) * mp.quad(k, cuts)


def ml_series_positive(beta, z):
    z = mp.mpf(z)
    total, n = mp.mpf(0), 0
    while True:
        term = z**n * mp.rgamma(beta * n + 1)
        total += term
        if n > 10 and term < total * mp.mpf(10) ** (-mp.mp.dps):
            return total
        n += 1


def ml_ref(beta, z):
    if z == 0:
        return mp.mpf(1)
    if z < 0:
        return ml_spectral(beta, -z)
    return ml_series_positive(beta, z)


def wright_m_series_mp(beta, x, extra_dps):
    """sum (-x)^n / (n! Gamma(1 - beta - beta n)) at raised precision.

    beta is 1/q; it is rebuilt at the working precision, because the terms
    at the poles of Gamma must vanish to that precision, not to 40 digits.
    """
    q = int(mp.nint(1 / beta))
    with mp.workdps(extra_dps):
        beta = mp.mpf(1) / q
        x = mp.mpf(x)
        total, scale, n, small = mp.mpf(0), mp.mpf(1), 0, 0
        while True:
            term = (-x) ** n * mp.rgamma(1 - beta - beta * n) / mp.factorial(n)
            total += term
            scale = max(scale, abs(term))
            # Pole terms are exactly zero; stop after a full period of small terms.
            small = small + 1 if abs(term) < scale * mp.mpf(10) ** (-extra_dps) else 0
            if n > 20 and small > q:
                return +total
            n += 1


def mwright_ref(beta, x):
    x = mp.mpf(x)
    if beta == 0:
        return mp.exp(-x)
    if beta == mp.mpf(1) / 2:
        return mp.exp(-x * x / 4) / mp.sqrt(mp.pi)
    if beta == mp.mpf(1) / 3:
        return mp.mpf(3) ** (mp.mpf(2) / 3) * mp.airyai(x / mp.cbrt(3))
    a = wright_m_series_mp(beta, x, 60)
    b = wright_m_series_mp(beta, x, 90)
    if abs(a - b) > mp.mpf(10) ** -25:
        raise SystemExit(f"Wright M series unstable at beta={beta}, x={x}")
    return b


def _family():
    """mpmath twins of the CLI solve family (default_test_functions(16) + const)."""
    return {
        "cos": mp.cos,
        "sin": mp.sin,
        "cos2": lambda x: mp.cos(2 * x),
        "sin2": lambda x: mp.sin(2 * x),
        "cos3": lambda x: mp.cos(3 * x),
        "sin3": lambda x: mp.sin(3 * x),
        "exp1": lambda x: mp.exp(-abs(x)),
        "exp2": lambda x: mp.exp(-2 * abs(x)),
        "exp3": lambda x: mp.exp(-3 * abs(x)),
        "invquad": lambda x: 1 / (1 + x * x),
        "atan": mp.atan,
        "cos4": lambda x: mp.cos(4 * x),
        "sin4": lambda x: mp.sin(4 * x),
        "exp4": lambda x: mp.exp(-4 * abs(x)),
        "invquad2": lambda x: (1 + x * x) ** -2,
        "ratio": lambda x: x / (1 + x * x),
        "const": lambda x: mp.mpf(1),
    }


def density13(x):
    return mp.mpf(3) ** (mp.mpf(2) / 3) * mp.airyai(x / mp.cbrt(3))


def expectation(h, sign):
    return mp.quad(lambda x: h(sign * x) * density13(x), [0, 2, 5, 10, 20, mp.inf])


def self_checks():
    half = BETAS["1/2"]
    for x in (0.5, 3.0, 17.0, 30.0):
        closed = mp.exp(mp.mpf(x) ** 2) * mp.erfc(x)
        got = ml_spectral(half, x)
        if abs(got - closed) > mp.mpf(10) ** -25:
            raise SystemExit(f"spectral E_1/2(-{x}) disagrees with closed form")
    third = BETAS["1/3"]
    for t in (0.25, 2.0, 5.0):
        lap = mp.quad(lambda x: mp.exp(-t * x) * density13(x), [0, 1, 5, 20, mp.inf])
        if abs(lap - ml_spectral(third, t)) > mp.mpf(10) ** -25:
            raise SystemExit(f"spectral E_1/3(-{t}) disagrees with the Laplace integral")
    for x in (0.0, 2.5, 9.0):
        if abs(wright_m_series_mp(third, x, 60) - density13(x)) > mp.mpf(10) ** -30:
            raise SystemExit("Wright M series disagrees with the Airy closed form")


def main():
    self_checks()
    out = {"lattices": {}}

    lo, hi, st = AIRY_LATTICE
    xs = lattice(lo, hi, st)
    out["lattices"]["airy"] = [lo, hi, st]
    out["ai"] = [float(mp.airyai(x)) for x in xs]
    out["bi"] = [float(mp.airybi(x)) for x in xs]

    lo, hi, st = GI_LATTICE
    out["lattices"]["gi"] = [lo, hi, st]
    out["gi"] = [float(mp.scorergi(x)) for x in lattice(lo, hi, st)]

    out["ml"] = {}
    for name, beta in BETAS.items():
        zmax = ml_z_max(float(beta))
        zs = lattice(ML_Z_MIN, zmax, ML_STEP)
        out["lattices"][f"ml {name}"] = [ML_Z_MIN, zmax, ML_STEP]
        out["ml"][name] = [float(ml_ref(beta, z)) for z in zs]
        print(f"ml {name}: {len(zs)} points", file=sys.stderr)

    lo, hi, st = MWRIGHT_LATTICE
    out["lattices"]["mwright"] = [lo, hi, st]
    out["mwright"] = {
        name: [float(mwright_ref(beta, x)) for x in lattice(lo, hi, st)]
        for name, beta in MWRIGHT_BETAS.items()
    }

    out["expectation"] = {
        label: [float(expectation(h, 1)), float(expectation(h, -1))]
        for label, h in _family().items()
    }

    if abs(out["expectation"]["const"][0] - 1.0) > 1e-15:
        raise SystemExit("M_1/3 density does not integrate to 1")
    path = os.path.join(HERE, "refs.json")
    with open(path, "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
