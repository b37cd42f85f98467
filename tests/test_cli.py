import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wright_stein import _csvtext
from wright_stein.cli import _parse_grid, main, parse_samples_csv
from wright_stein._csvtext import _csv_pieces
from wright_stein.mwright import sample
from wright_stein.numerics import GAMMA_4_3


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return header, rows


class TestEval:
    def test_ai_at_zero(self, capsys):
        code, out, _ = run(capsys, ["eval", "ai", "0:0:1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "value"]
        assert rows.shape == (1, 2)
        assert rows[0, 1] == pytest.approx(0.3550280538878172, abs=1e-13)

    def test_gi_asymptotic(self, capsys):
        code, out, _ = run(capsys, ["eval", "gi", "20:20:1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 1] * 20.0 * math.pi == pytest.approx(1.0, abs=1e-3)

    def test_mwright_beta_zero(self, capsys):
        code, out, _ = run(capsys, ["eval", "mwright", "--beta", "0", "1:1:1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_ml_fraction_beta_negative_grid(self, capsys):
        code, out, _ = run(capsys, ["eval", "ml", "--beta", "1/3", "--grid=-1:-1:1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 1] == pytest.approx(0.4517512323819965, abs=1e-9)

    def test_ml_one_call_per_grid(self, capsys, monkeypatch):
        from wright_stein import specfun

        calls = []
        real = specfun.mittag_leffler
        monkeypatch.setattr(specfun, "mittag_leffler",
                            lambda beta, z: calls.append(z) or real(beta, z))
        code, out, _ = run(capsys, ["eval", "ml", "--beta", "1/7", "--grid=-30:2:0.5"])
        assert code == 0 and len(calls) == 1
        _, rows = parse_csv(out)
        assert np.array_equal(rows[:, 1], real(1.0 / 7.0, rows[:, 0]))
        for argv in (["--beta", "1/3", "--grid=-31:0:1"], ["--beta", "0.005", "0:1:1"]):
            code, out, err = run(capsys, ["eval", "ml", *argv])
            assert code == 1 and out == "" and "error" in err

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, ["eval", "mwright", "--beta", "1/3", "--grid=-1:1:1"])
        assert code == 1
        assert "error" in err

    def test_beta_required(self, capsys):
        code, _, err = run(capsys, ["eval", "ml", "0:1:1"])
        assert code == 2

    def test_beta_forbidden(self, capsys):
        code, _, err = run(capsys, ["eval", "ai", "--beta", "0.5", "0:1:1"])
        assert code == 2

    def test_bi_overflow_exit_one(self, capsys):
        code, out, err = run(capsys, ["eval", "bi", "150:150:1"])
        assert code == 1
        assert "x=150.0" in err
        assert out == ""

    def test_bi_near_overflow(self, capsys):
        # e^zeta alone overflows here, but Bi(104.3) ~ 4.47e307 fits.
        code, out, _ = run(capsys, ["eval", "bi", "104.3:104.3:1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 1] == pytest.approx(float(mp.airybi(104.3)), rel=1e-12)
        code, out, err = run(capsys, ["eval", "bi", "104.5:104.5:1"])
        assert code == 1 and "x=104.5" in err and out == ""

    def test_far_ai_is_quiet(self, capsys):
        code, out, err = run(capsys, ["eval", "ai", "1e300:1e300:1"])
        assert code == 0
        assert err == ""
        assert parse_csv(out)[1][0, 1] == 0.0

    def test_grid_spec_errors(self, capsys):
        assert run(capsys, ["eval", "ai", "0:1"])[0] == 2
        assert run(capsys, ["eval", "ai", "0:1:-0.5"])[0] == 2
        assert run(capsys, ["eval", "ai", "1:0:0.5"])[0] == 2
        assert run(capsys, ["eval", "ai", "0:inf:1"])[0] == 2
        assert run(capsys, ["eval", "ai", "0:1:nan"])[0] == 2
        assert run(capsys, ["eval", "ai", "0:1:1/0"])[0] == 2
        assert run(capsys, ["eval", "ai", "0:1000000:1"])[0] == 2  # 10^6 + 1 points
        assert run(capsys, ["eval", "ai", "0:1e300:1e-300"])[0] == 2

    def test_seventeen_digit_roundtrip(self, capsys):
        code, out, _ = run(capsys, ["eval", "bi", "0.7:0.7:1"])
        _, rows = parse_csv(out)
        from wright_stein.specfun import airy

        assert rows[0, 1] == airy(0.7).bi  # bit-exact through the CSV

    def test_no_grid_refused(self, capsys):
        assert run(capsys, ["eval", "ai"]) == (
            2, "", "error: eval needs a grid (positional or --grid=start:stop:step)\n")

    def test_mwright_sym_prints_density_sym(self, capsys):
        from wright_stein.mwright import density_sym

        code, out, _ = run(capsys, ["eval", "mwright-sym", "--beta", "1/3", "--grid=-3:3:0.125"])
        assert code == 0
        _, rows = parse_csv(out)
        assert np.array_equal(rows[:, 0], np.arange(-24, 25) * 0.125)
        assert rows[:, 1].tobytes() == density_sym(1 / 3, rows[:, 0]).tobytes()

    def test_two_grids_refused(self, capsys):
        for argv in (["eval", "ai", "0:1:1", "--grid=0:2:1"],
                     ["eval", "ml", "--beta", "1/3", "--grid=0:1:1", "0:2:1"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err == "error: eval takes one grid, positional or --grid, not both\n"


class TestSolve:
    def test_const_gives_zero_column(self, capsys):
        code, out, _ = run(capsys, ["solve", "--h", "const"])
        assert code == 0
        _, rows = parse_csv(out)
        assert np.max(np.abs(rows[:, 1])) <= 1e-12

    def test_cos_header_reports_boundary(self, capsys):
        code, out, _ = run(capsys, ["solve", "--h", "cos"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("# boundary_residual=")][0]
        assert abs(float(line.split("=")[1])) <= 1e-8

    def test_atan_symmetric_jump(self, capsys):
        code, out, _ = run(capsys, ["solve", "--h", "atan", "--symmetric"])
        assert code == 0
        jump = float(
            [l for l in out.splitlines() if l.startswith("# fpp_jump=")][0].split("=")[1]
        )
        from wright_stein.stein import expectation_mwright

        e = expectation_mwright(np.arctan)
        assert abs(jump + 2.0 * e) <= 1e-6

    def test_unknown_label(self, capsys):
        code, _, err = run(capsys, ["solve", "--h", "nosuch"])
        assert code == 2

    def test_custom_grid(self, capsys):
        code, out, _ = run(capsys, ["solve", "--h", "cos", "--grid", "0:6:0.05"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows.shape[0] == 121

    @pytest.mark.parametrize("argv", [
        ["--grid", "0:1e-300:1e-301"],
        ["--grid", "0:1e-20:1e-21"],
        ["--symmetric", "--grid=-1e-300:1e-300:1e-301"],
    ], ids=["half-1e-301", "half-1e-21", "sym-1e-301"])
    def test_tiny_grid_solves(self, capsys, argv):
        # PROBE_DELTA spans 2e299 steps of 1e-301: the stencil multiple must
        # not overflow an int into garbage probe indices, nor a NaN residual
        # pass the check.
        code, out, err = run(capsys, ["solve", "--h", "cos", *argv])
        assert (code, err) == (0, "")
        line = [l for l in out.splitlines() if l.startswith("# residual_sup=")][0]
        assert float(line.split("=")[1]) <= 1e-6
        _, rows = parse_csv(out)
        assert rows.shape[0] == (21 if "--symmetric" in argv else 11)
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("spec", ["-3:12:0.05", "-10:10:0.0625", "-2.5:7:0.1"])
    def test_grid_mirrors_exactly(self, spec):
        # A start that is a whole number of steps puts every negative
        # point's mirror on the grid bitwise.
        grid = _parse_grid(spec)
        neg = grid[grid < 0]
        assert neg.size and np.all(np.isin(-neg, grid))


class TestSample:
    def test_deterministic(self, capsys):
        code1, out1, _ = run(capsys, ["sample", "10", "--seed", "7"])
        code2, out2, _ = run(capsys, ["sample", "10", "--seed", "7"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_header(self, capsys):
        _, out, _ = run(capsys, ["sample", "3", "--seed", "1", "--symmetric"])
        assert out.splitlines()[0] == "# generator=mwright-sym-1/3 seed=1 n=3"

    def test_mean_statistic(self, capsys):
        code, out, _ = run(capsys, ["sample", "100000", "--seed", "1"])
        vals = np.array([float(l) for l in out.splitlines()[1:]])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0 / GAMMA_4_3) <= 4 * se

    def test_zero_is_usage_error(self, capsys):
        assert run(capsys, ["sample", "0"])[0] == 2

    def test_size_beyond_any_array_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["sample", "1" + "0" * 400])
        assert (code, out) == (2, "")
        assert err == f"error: sample requires n <= {np.iinfo(np.intp).max}, the largest array\n"

    def test_matches_library_sampler(self, capsys):
        _, out, _ = run(capsys, ["sample", "5", "--seed", "11"])
        vals = np.array([float(l) for l in out.splitlines()[1:]])
        assert np.array_equal(vals, sample(5, seed=11).values)


class TestGof:
    def test_self_generated_consistent(self, tmp_path, capsys):
        p = tmp_path / "mw.csv"
        assert run(capsys, ["sample", "20000", "--seed", "20260811", "-o", str(p)])[0] == 0
        code, out, _ = run(capsys, ["gof", str(p)])
        assert code == 0
        assert "verdict: consistent" in out

    def test_exponential_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(424242)
        p = tmp_path / "exp.csv"
        p.write_text("\n".join(f"{v:.17g}" for v in rng.exponential(1.0, 20000)))
        code, out, _ = run(capsys, ["gof", str(p)])
        assert code == 1
        assert "verdict: rejected" in out

    def test_halfline_into_symmetric_rejected_by_sign(self, tmp_path, capsys):
        p = tmp_path / "mw.csv"
        run(capsys, ["sample", "20000", "--seed", "7", "-o", str(p)])
        code, out, _ = run(capsys, ["gof", str(p), "--symmetric"])
        assert code == 1
        assert "sign balance" in out

    def test_malformed_line_number(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\nnot-a-number\n3.0\n")
        code, _, err = run(capsys, ["gof", str(p)])
        assert code == 2
        assert "line 3" in err

    def test_missing_file(self, capsys):
        assert run(capsys, ["gof", "/nonexistent/file.csv"])[0] == 2

    def test_too_few_values(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        p.write_text("\n".join(["1.0"] * 50))
        assert run(capsys, ["gof", str(p)])[0] == 2

    def test_csv_output_mode(self, tmp_path, capsys):
        p = tmp_path / "mw.csv"
        run(capsys, ["sample", "20000", "--seed", "20260811", "-o", str(p)])
        code, out, _ = run(capsys, ["gof", str(p), "--csv", "--k", "3"])
        assert code == 0
        assert out.splitlines()[0] == "label,mean,std_error,standardized"

    def test_parse_comments_and_blanks(self):
        vals = parse_samples_csv("# hdr\n\n1.5\n# c\n2.5\n")
        assert np.array_equal(vals, [1.5, 2.5])

    def test_input_text_freed_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        # The file's text is gone by the time the test runs: what is still
        # allocated then is the draws (8 bytes each), not the ~20 bytes of
        # text per draw.
        from wright_stein import gof as gof_mod

        p = tmp_path / "mw.csv"
        run(capsys, ["sample", "200000", "--seed", "3", "-o", str(p)])
        size = p.stat().st_size
        held = []
        real = gof_mod.discrepancy

        def recording(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(gof_mod, "discrepancy", recording)
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["gof", str(p), "--k", "2"])
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(held) == 1 and held[0] < size / 2, (held, size)

    def test_undecodable_file_is_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bin.csv"
        p.write_bytes(b"1.0\n\xff\xfe\n")
        code, out, err = run(capsys, ["gof", str(p)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("chunk", [7, 60, None])
    def test_undecodable_leading_comment_reports_the_whole_file_offset(
            self, tmp_path, capsys, monkeypatch, chunk):
        # The bad byte lies past the first bytes the file object decodes at
        # a time (8 KiB by default, or chunk), so only a read of the whole
        # text names its offset in the file.
        from wright_stein import cli

        p = tmp_path / "bin.csv"
        p.write_bytes(b"# " + b"x" * 10_000 + b"\xff\n1.0\n2.0\n")
        with pytest.raises(UnicodeDecodeError) as whole, open(p) as fh:
            fh.read()
        if chunk is not None:
            def opening(*args, **kwargs):
                fh = open(*args, **kwargs)
                fh._CHUNK_SIZE = chunk
                return fh

            monkeypatch.setattr(cli, "open", opening, raising=False)
        assert run(capsys, ["gof", str(p)]) == (2, "", f"error: {whole.value}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("last", ["", "nan\n"])
    def test_pipe_into_stdin_matches_the_file(self, tmp_path, last):
        # A pipe cannot seek: it is read whole, then parsed as the file is.
        import wright_stein

        p = tmp_path / "mw.csv"
        p.write_text(sample(20_000, seed=6, symmetric=True).to_csv() + last)
        src = os.path.dirname(os.path.dirname(wright_stein.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        cmd = [sys.executable, "-m", "wright_stein.cli", "gof", "--symmetric"]
        by_file = subprocess.run([*cmd, str(p)], env=env, capture_output=True)
        piped = subprocess.run([*cmd, "/dev/stdin"], env=env, capture_output=True,
                               input=p.read_bytes())
        assert piped.returncode == by_file.returncode == (2 if last else 0)
        assert (piped.stdout, piped.stderr) == (by_file.stdout, by_file.stderr)


class TestPlotdata:
    def test_default_curve_identities(self, capsys):
        code, out, _ = run(capsys, ["plotdata"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "beta=0", "beta=1/7", "beta=1/3", "beta=1/2"]
        x = rows[:, 0]
        # Laplace curve, exactly e^{-|x|}/2.
        assert np.max(np.abs(rows[:, 1] - np.exp(-np.abs(x)) / 2.0)) <= 1e-12
        # Gaussian N(0,2) density.
        gauss = np.exp(-x * x / 4.0) / (2.0 * math.sqrt(math.pi))
        assert np.max(np.abs(rows[:, 4] - gauss)) <= 1e-12

    def test_peak_ordering(self, capsys):
        _, out, _ = run(capsys, ["plotdata", "--grid=0:0:1"])
        _, rows = parse_csv(out)
        peak = rows[0, 1:]
        assert peak[0] > peak[1] > peak[2] > peak[3]
        assert peak[0] == pytest.approx(0.5, rel=1e-14)

    def test_beta_out_of_range(self, capsys):
        assert run(capsys, ["plotdata", "--betas", "0.6"])[0] == 2

    def test_no_betas_refused(self, capsys):
        assert run(capsys, ["plotdata", "--betas", ","]) == (2, "", "error: no betas given\n")

    def test_header_skips_empty_betas(self, capsys):
        code, out, _ = run(capsys, ["plotdata", "--betas", "0,,1/3", "--grid=-1:1:1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "beta=0", "beta=1/3"]
        assert rows.shape == (3, 3)

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2


def _csv_rows(*cols):
    return "".join(_csv_pieces(*cols))


def test_csv_rows_match_per_value_format():
    # The row writer writes what a per-value f-string writes, on both of its
    # paths (array blocks from 512 values on, one % call below) and across
    # its block size.
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, np.finfo(float).max]
    a = np.concatenate((rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500), special))
    b = rng.permutation(a)
    ref = "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(a, b))
    assert _csv_rows(a, b) == ref
    assert _csv_rows(a) == "".join(f"{x:.17g}\n" for x in a)

    # Random bit patterns over the whole double range, NaNs included.
    bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64, endpoint=False)
    # The double nearest each 10^k, its neighbours and the doubles just below
    # it.  Some lie below 10^k and still round up to it at 17 digits (1e-14
    # and 1e-305 print as such); none of those has -4 <= k <= 16.
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [np.nextafter(p10, 0.0), p10, np.nextafter(p10, np.inf)]
    near += [p10 * (1.0 - j * 2.0**-53) for j in range(2, 12)]
    # Dyadic values m 2^-e: exact decimal expansions with up to e digits after
    # the point, so the 17-digit rounding meets exact ties.
    ties = [np.ldexp(rng.integers(1, 2**k, 300).astype(float), -e)
            for e in range(1, 71) for k in (12, 53)]
    # Integers and short decimals, which end in zeros.
    short = np.round(rng.uniform(-1e6, 1e6, 3000), 3)
    whole = rng.integers(-10**16, 10**16, 3000).astype(float)
    cases = [bits.view(np.float64), np.concatenate(near), np.concatenate(ties), short, whole]
    for x in cases:
        x = np.concatenate((x, -x))
        assert _csv_rows(x) == "".join(f"{v:.17g}\n" for v in x)

    # Negative multi-column mixes, at row counts across the block size.
    mixed = np.concatenate(cases)
    for n in (1, 2, 170, 171, 511, 512, 10_922, 10_923, 32_768, 32_769, 70_000):
        cols = [rng.choice(mixed, n), -np.abs(rng.choice(mixed, n)), rng.standard_normal(n)]
        ref = "".join(f"{x:.17g},{y:.17g},{z:.17g}\n" for x, y, z in zip(*cols))
        assert _csv_rows(*cols) == ref, n
    assert _csv_rows(cols[2]) == "".join(f"{z:.17g}\n" for z in cols[2])


class TestEnvironment:
    def test_override_flows_through_solve(self, capsys):
        code, out, _ = run(capsys, ["solve", "--h", "cos", "--grid", "0:6:0.1"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("# boundary_residual=")][0]
        assert abs(float(line.split("=")[1])) <= 1e-8


class TestExitCodeContract:
    def test_bad_beta_is_usage_error(self, capsys):
        assert run(capsys, ["eval", "ml", "--beta", "abc", "0:1:1"])[0] == 2
        assert run(capsys, ["eval", "ml", "--beta", "1/0", "0:1:1"])[0] == 2

    def test_non_finite_samples_rejected_with_line(self, tmp_path, capsys):
        vals = sample(2000, seed=12).values
        p = tmp_path / "nonfinite.csv"
        p.write_text(
            "# draws\n"
            + "\n".join(repr(float(v)) for v in vals)
            + "\n" + "nan\n" * 30 + "inf\n" * 5
        )
        code, out, err = run(capsys, ["gof", str(p)])
        assert code == 2
        assert "line 2002" in err
        assert out == ""

    def test_one_parser_across_calls(self, capsys, monkeypatch):
        from wright_stein import cli

        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        # Two leftovers after the grid: a usage error from the parser.
        code, out, err = run(capsys, ["eval", "mwright", "--beta", "1/7", "0:2:0.5", "x"])
        assert code == 2 and out == "" and "unrecognized arguments: 0:2:0.5 x" in err
        # Nothing of that call carries over: eval ai refuses a --beta.
        code, out, _ = run(capsys, ["eval", "ai", "0:0:1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "value"]
        assert rows[0, 1] == pytest.approx(0.3550280538878172, abs=1e-13)
        assert built == [1]
        assert cli.build_parser() is not cli.build_parser()

    def test_parse_rejects_infinity(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_samples_csv("1.0\n# c\n-inf\n2.0\n")


def _sample_file(tmp_path):
    p = tmp_path / "mw.csv"
    p.write_text(sample(2000, seed=9).to_csv())
    return str(p)


# One quick invocation per verb; "@" is the sample file.
_VERB_ARGV = {
    "eval": ["eval", "ai", "0:1:1"],
    "solve": ["solve", "--h", "cos", "--grid", "0:2:0.5"],
    "sample": ["sample", "10"],
    "gof": ["gof", "@", "--k", "2"],
    "plotdata": ["plotdata", "--grid=0:1:1"],
}


def _verb_argv(verb, tmp_path):
    return [_sample_file(tmp_path) if a == "@" else a for a in _VERB_ARGV[verb]]


# Each writing verb on at least 3 blocks: its argv, the lines before its rows
# and its number of columns.
_BIG_WRITES = {
    "sample": (["sample", "200000"], 1, 1),
    "eval": (["eval", "mwright", "--beta", "0", "--grid=0:5:1e-4"], 1, 2),
    "plotdata": (["plotdata", "--betas", "0,1/2", "--grid=-5:5:2e-4"], 1, 3),
    "solve": (["solve", "--h", "cos", "--grid", "0:20:1e-3"], 7, 5),
}


class TestErrorExit:
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("verb", sorted(_VERB_ARGV))
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, verb, target):
        path = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        code, out, err = run(capsys, [*_verb_argv(verb, tmp_path), "-o", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb, target", [
        pytest.param(verb, target, id=target if verb == "sample" else f"{verb}-{target}")
        for verb in _BIG_WRITES for target in ("file", "link", "stdout")])
    def test_failed_sample_leaves_no_truncated_file(self, tmp_path, capsys, monkeypatch,
                                                   verb, target):
        # The 3rd block fails after the first two were written: the file
        # goes, as it would read as a smaller sample or a shorter table.
        # Through a link, the file it names goes and the link stays; stdout
        # keeps the lines written.  solve forms its whole text before it
        # opens its output, so it writes nothing.
        argv, head, cols = _BIG_WRITES[verb]
        code, text, _ = run(capsys, argv)
        rows = _csvtext._CSV_BLOCK // cols
        assert code == 0 and text.count("\n") > head + 2 * rows
        real, calls = _csvtext._csv_block, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError
            return real(*args)

        monkeypatch.setattr(_csvtext, "_csv_block", failing)
        p = tmp_path / "f.csv"
        if target == "link":
            p.symlink_to(tmp_path / "elsewhere.csv")
        output = [] if target == "stdout" else ["-o", str(p)]
        code, out, err = run(capsys, [*argv, *output])
        written = "".join(text.splitlines(keepends=True)[: head + 2 * rows])
        if verb == "solve" or output:
            written = ""
        assert (code, out, err) == (1, written, "error: MemoryError\n")
        assert os.path.lexists(p) == (target == "link")
        assert not (tmp_path / "elsewhere.csv").exists()

    @pytest.mark.parametrize("argv, want", [
        (["solve", "--h", "cos", "--grid", "0:25:0.1"], 2),
        (["eval", "bi", "--grid", "0:110:10"], 1),
        (["plotdata", "--betas", "0.7"], 2),
    ], ids=["solve", "eval", "plotdata"])
    def test_refused_run_leaves_existing_output(self, tmp_path, capsys, argv, want):
        # Each verb computes its result before it opens its output.
        p = tmp_path / "f.csv"
        p.write_bytes(b"# kept\r\n1.5\n")
        code, out, err = run(capsys, [*argv, "-o", str(p)])
        assert (code, out, err.count("\n")) == (want, "", 1) and err.startswith("error: ")
        assert p.read_bytes() == b"# kept\r\n1.5\n"

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        from wright_stein import mwright

        # numpy's MemoryError names the allocation; Python's own has no
        # message, and the line then names the error.
        for raised, line in ((MemoryError("Unable to allocate 745. GiB"),
                              "error: Unable to allocate 745. GiB\n"),
                             (MemoryError(), "error: MemoryError\n")):
            def no_memory(*args, raised=raised, **kwargs):
                raise raised

            monkeypatch.setattr(mwright, "sample", no_memory)
            code, out, err = run(capsys, ["sample", "100000000000"])
            assert (code, out, err) == (1, "", line)

    # The library call each verb makes, and the exit code of each refusal.
    @pytest.mark.parametrize("verb, module, name, codes", [
        ("eval", "specfun", "_airy_fields", (1, 1, 1, 1)),
        ("solve", "stein", "solve_stein", (2, 1, 1, 1)),
        ("sample", "mwright", "sample", (2, 1, 1, 1)),
        ("gof", "gof", "discrepancy", (2, 2, 1, 1)),
        ("plotdata", "mwright", "density_sym", (1, 1, 1, 1)),
    ])
    def test_library_refusals_map_to_the_exit_table(self, tmp_path, capsys, monkeypatch,
                                                    verb, module, name, codes):
        import importlib

        from wright_stein.errors import (
            DomainError, NonFiniteError, RangeError, SolverAccuracyError)

        argv = _verb_argv(verb, tmp_path)
        owner = importlib.import_module(f"wright_stein.{module}")
        for error, want in zip(
                (DomainError, RangeError, SolverAccuracyError, NonFiniteError), codes):
            def refuse(*args, error=error, **kwargs):
                raise error(f"planted {error.__name__}")

            monkeypatch.setattr(owner, name, refuse)
            code, out, err = run(capsys, argv)
            assert (code, out, err) == (want, "", f"error: planted {error.__name__}\n"), error


_GRID_PART = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**7, 10**7).map(str),
    st.fractions(max_denominator=50).map(str),
    st.text(alphabet="0123456789.-+e/:naif ", max_size=8),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(start=_GRID_PART, stop=_GRID_PART, step=_GRID_PART, fn=st.sampled_from(["ai", "bi"]))
def test_arbitrary_grid_specs_keep_exit_contract(start, stop, step, fn):
    code = main(["eval", fn, f"--grid={start}:{stop}:{step}", "-o", os.devnull])
    assert code in (0, 1, 2, 3)


# Positional decimals of 1-21 digits, with or without a sign and a point:
# the lines the array path reads by arithmetic, and some it leaves to float().
_DECIMAL = st.builds(
    lambda sign, digits, at: sign + (digits if at > len(digits) else f"{digits[:at]}.{digits[at:]}"),
    st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=21), st.integers(0, 22))
_CSV_LINE = st.one_of(
    _DECIMAL,
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=12),
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.floats(-50.0, 50.0).map(repr),
    st.sampled_from(["", "#", "# c", "1e309", "-0", "+inf", "0x10", "1_0", " 2.5 "]),
)
_CSV_BODY = [f"{v:.17g}" for v in sample(120, seed=5).values]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lines=st.lists(st.tuples(st.integers(0, len(_CSV_BODY)), _CSV_LINE), max_size=6),
    keep=st.one_of(st.just(len(_CSV_BODY)), st.integers(0, len(_CSV_BODY))),
    symmetric=st.booleans(),
)
def test_arbitrary_csv_lines_keep_exit_contract(tmp_path_factory, lines, keep, symmetric):
    body = _CSV_BODY[:keep]
    for pos, line in lines:
        body.insert(min(pos, len(body)), line)
    path = tmp_path_factory.mktemp("csv") / "draws.csv"
    path.write_text("\n".join(body), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gof", str(path), "--k", "3", *(["--symmetric"] if symmetric else [])])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


def _parse_line_by_line(text):
    # Reference reader: every line on its own, as the docstring describes.
    values, non_finite = [], None
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = float(line)
        except ValueError:
            raise ValueError(f"line {i}: cannot parse {line!r} as a number") from None
        if not math.isfinite(v) and non_finite is None:
            non_finite = f"line {i}: non-finite value {line!r}"
        values.append(v)
    if non_finite is not None:
        raise ValueError(non_finite)
    return np.array(values, dtype=float)


def _outcome(parse, source):
    """The bytes of the array read, or the text of the ValueError."""
    try:
        got = parse(source)
    except ValueError as e:
        return str(e)
    assert got.dtype == np.float64
    return got.tobytes()


_HEAD = "# generator=mwright-1/3 seed=1 n=3"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    head=st.lists(st.sampled_from(["#", _HEAD, "#\r", "# a\x0cb", "# 12"]), max_size=3),
    lines=st.lists(st.tuples(st.integers(0, 8), _CSV_LINE), max_size=5),
    inner=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(["#", "# c", " # c", ""])),
                   max_size=2),
    keep=st.integers(0, 8),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    final=st.booleans(),
)
# "\r\n" and lone "\r" line ends, and several comment lines.
@example(head=[_HEAD], lines=[], inner=[], keep=8, ending="\r\n", final=True)
@example(head=[_HEAD], lines=[], inner=[], keep=8, ending="\r", final=True)
@example(head=[_HEAD] * 3, lines=[], inner=[], keep=8, ending="\n", final=False)
# A comment whose tail reads as a number.
@example(head=["# 12"], lines=[], inner=[], keep=8, ending="\n", final=True)
def test_parse_samples_csv_matches_line_by_line_reader(tmp_path_factory, head, lines, inner,
                                                       keep, ending, final):
    body = _CSV_BODY[:keep]
    for pos, line in lines + inner:
        body.insert(min(pos, len(body)), line)
    text = ending.join(head + body) + (ending if final else "")
    # The text as a file too, read in text mode as gof reads it.
    path = tmp_path_factory.getbasetemp() / "parse.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _outcome(_parse_line_by_line, text)
    assert _outcome(parse_samples_csv, text) == expected
    with open(path, encoding="utf-8") as fh:
        assert _outcome(parse_samples_csv, fh) == expected


def _both_ways(tmp_path, text):
    """parse_samples_csv's outcome on text, and on it as a file, which must
    agree."""
    path = tmp_path / "edge.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as fh:
        got = _outcome(parse_samples_csv, fh)
    assert _outcome(parse_samples_csv, text) == got
    return got


@pytest.mark.filterwarnings("error")
class TestReaderEdges:
    @pytest.mark.parametrize("text", ["", _HEAD + "\n", "#\n# c"])
    def test_no_values(self, tmp_path, text):
        assert _both_ways(tmp_path, text) == b""

    @pytest.mark.parametrize("line", ["1.5 # c", "1,2", "1 2"])
    def test_refused_with_line_number(self, tmp_path, line):
        for text, at in ((f"{_HEAD}\n0.5\n{line}\n2.5\n", 3), (f"{_HEAD}\n{line}\n", 2)):
            assert _both_ways(tmp_path, text) == f"line {at}: cannot parse {line!r} as a number"

    def test_comment_lines_longer_than_any_read(self, tmp_path):
        values = sample(1000, seed=4).values
        head = "# " + "x" * (1 << 18) + "\n"
        text = head * 2 + "".join(f"{v:.17g}\n" for v in values.tolist())
        assert _both_ways(tmp_path, text) == values.tobytes()


def _stdin_outcome(text):
    """parse_samples_csv's outcome on text piped into a child interpreter's
    /dev/stdin, opened as gof opens it."""
    import wright_stein

    src = os.path.dirname(os.path.dirname(wright_stein.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\n"
            "from wright_stein._csvtext import parse_samples_csv\n"
            "try:\n"
            "    out = parse_samples_csv(open('/dev/stdin')).tobytes().hex()\n"
            "except ValueError as e:\n"
            "    out = 'error ' + str(e)\n"
            "sys.stdout.write(out)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         input=text.encode(), timeout=120)
    assert run.returncode == 0, run.stderr
    out = run.stdout.decode()
    return out.removeprefix("error ") if out.startswith("error ") else bytes.fromhex(out)


def _writer_text(values):
    return "".join(_csv_pieces(np.asarray(values, dtype=float)))


# Doubles at the edges of the arithmetic path: zeros, the ends of the
# writer's positional range and their neighbours, 2**53 and its neighbours,
# 0.1 and the smallest subnormal.
_EDGE_DOUBLES = np.array([0.0, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16,
                          np.nextafter(1e16, 0), 2.0**53, 2.0**53 + 2, 2.0**53 - 1, 0.1, 5e-324])
_EDGE_DOUBLES = np.concatenate([_EDGE_DOUBLES, -_EDGE_DOUBLES])


def _block_edge_text(edge, bad):
    """A 20,000-draw file of about three blocks whose header is sized so
    that a line ends at index edge, with its last line malformed if bad and
    no final "\n"."""
    lines = [f"{v:.17g}" for v in sample(20_000, seed=8, symmetric=True).values.tolist()]
    if bad:
        lines[-2] = "1.5.5"
    body = "\n".join(lines)
    end = body.rfind("\n", 0, edge - 100)
    text = "# " + "x" * (edge - end - 3) + "\n" + body
    assert text[edge] == "\n" and len(text) > 2 * _csvtext._READ_BLOCK
    return text


@pytest.mark.filterwarnings("error")
class TestArrayReader:
    """The array path of parse_samples_csv, bitwise against the line-by-line
    reader: every value, refusal text and line number."""

    @pytest.mark.parametrize("symmetric", [False, True], ids=["half", "sym"])
    @pytest.mark.parametrize("seed", [1, 123, 99991])
    def test_million_draws(self, tmp_path, seed, symmetric):
        text = sample(10**6, seed=seed, symmetric=symmetric).to_csv()
        expected = _parse_line_by_line(text).tobytes()
        assert _both_ways(tmp_path, text) == expected

    @pytest.mark.parametrize("lo, hi", [(-300, 300), (-5, 17), (-4, 1), (15, 17)])
    def test_writer_text(self, lo, hi):
        # Doubles drawn from 10**[lo, hi], either sign, as the writer prints
        # them: each reads back as itself.
        rng = np.random.default_rng(hi - lo)
        values = 10.0 ** rng.uniform(lo, hi, 301_008) * rng.choice([-1.0, 1.0], 301_008)
        values = np.concatenate([values, _EDGE_DOUBLES])
        text = _writer_text(values)
        got = parse_samples_csv(text).tobytes()
        assert got == _parse_line_by_line(text).tobytes() == values.tobytes()

    def test_writer_positional_text_needs_no_float(self, monkeypatch):
        # Each positional line of the writer's text, |x| in [1e-4, 1e16), is
        # taken by arithmetic: by Clinger's path, or as the candidate or its
        # neighbour toward the line's decimal.  float() reads exponent forms.
        real = _csvtext._float_lines

        def exponent_forms_only(lines):
            assert all("e" in line for line in lines), [line for line in lines if "e" not in line]
            return real(lines)

        monkeypatch.setattr(_csvtext, "_float_lines", exponent_forms_only)
        rng = np.random.default_rng(16)
        values = 10.0 ** rng.uniform(-4, 16, 100_000) * rng.choice([-1.0, 1.0], 100_000)
        for text in (sample(10**5, seed=1).to_csv(), sample(10**5, seed=2, symmetric=True).to_csv(),
                     _writer_text(np.concatenate([values, _EDGE_DOUBLES[abs(_EDGE_DOUBLES) < 1e16]]))):
            assert parse_samples_csv(text).tobytes() == _parse_line_by_line(text).tobytes()

    def test_hand_typed_decimals(self, tmp_path):
        # Decimals of 1-20 digits with a point anywhere or none, a sign or
        # none: Clinger's path below 2**53, the kernel check above it, and
        # float() past 17 digits or 24 characters.
        rng = np.random.default_rng(34)
        fixed = ["9007199254740993", "9007199254740992", "0.10000000000000002", "123456789012345678",
                 "999999999999999999", "-0", "-0.0", "0.0", "-.5", ".5", "5.", "0.000",
                 ".00000000000000000000011", ".00000000000000000000007", "-00000000000000000000012.5",
                 "0.00010000000000000001", "9999999999999999.5", "1e5", "+1.5"]
        count = 200_006 - len(fixed)
        digits = (rng.integers(0, 10, (count, 20)) + 48).astype(np.uint8).tobytes().decode()
        lines = []
        for i, (n, at, minus) in enumerate(zip(rng.integers(1, 21, count).tolist(),
                                               rng.integers(-1, 21, count).tolist(),
                                               (rng.random(count) < 0.3).tolist())):
            line = digits[20 * i : 20 * i + n]
            if 0 <= at <= n:
                line = f"{line[:at]}.{line[at:]}"
            lines.append("-" + line if minus else line)
        text = "\n".join(fixed + lines) + "\n"
        assert _both_ways(tmp_path, text) == _parse_line_by_line(text).tobytes()

    @pytest.mark.parametrize("bad", [False, True], ids=["good", "malformed"])
    @pytest.mark.parametrize("edge", ["file", "text"])
    def test_block_edges(self, tmp_path, edge, bad):
        # A file reads blocks of _READ_BLOCK characters, then to the line's
        # end; text ends each block at the first "\n" from that index on.
        block = _csvtext._READ_BLOCK
        text = _block_edge_text(block - 1 if edge == "file" else block, bad)
        expected = _outcome(_parse_line_by_line, text)
        assert (expected == "line 20000: cannot parse '1.5.5' as a number") == bad
        assert _both_ways(tmp_path, text) == expected
        if os.path.exists("/dev/stdin"):
            assert _stdin_outcome(text) == expected

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_small_blocks(self, tmp_path, monkeypatch, size):
        # Blocks of a line or a few: every line starts and ends a block.
        monkeypatch.setattr(_csvtext, "_READ_BLOCK", size)
        text = _HEAD + "\n" + _writer_text(np.concatenate([sample(200, seed=2).values, _EDGE_DOUBLES]))
        for last in ("", "-0.5", "2.5\n# c\n", "1.5.5\n"):
            assert _both_ways(tmp_path, text + last) == _outcome(_parse_line_by_line, text + last)


def _traced_peak(call) -> float:
    """The most memory call held at once, in MiB; numpy reports its
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemory:
    # 1e6 draws are 7.6 MiB and their text 19.5 MB.  The bounds leave the
    # sampler two arrays of draws, the sample verb those (a block of text is
    # far smaller), and gof and a read of text one array of draws and one
    # block of the read or the sweep, each with a few MiB to spare: a second
    # array of draws, a copy of the text or whole-sample sweep temporaries
    # would go over them.
    def test_sampler(self):
        assert _traced_peak(lambda: sample(10**6, 5)) <= 24

    def test_sample_verb(self, tmp_path, capsys):
        p = str(tmp_path / "f.csv")
        assert _traced_peak(lambda: main(["sample", "1000000", "-o", p])) <= 20

    def test_gof_verb(self, tmp_path, capsys):
        p = str(tmp_path / "f.csv")
        assert main(["sample", "1000000", "-o", p]) == 0
        assert _traced_peak(lambda: main(["gof", p])) <= 14

    def test_parse_text(self):
        text = sample(10**6, seed=5).to_csv()
        assert _traced_peak(lambda: parse_samples_csv(text)) <= 12

    def test_gof_sym_verb(self, tmp_path, capsys):
        p = str(tmp_path / "f.csv")
        assert main(["sample", "1000000", "--symmetric", "-o", p]) == 0
        assert _traced_peak(lambda: main(["gof", p, "--symmetric"])) <= 14

    # 999,001 grid points: each column is 7.6 MiB, and the eval and plotdata
    # texts 40 and 61 MB.  The bounds leave the grid, the value columns, the
    # density's temporaries and a block of text; the whole text, or the
    # columns interleaved into one array, would go over them.  An Airy column
    # (eval ai and bi, and M_{1/3} behind the density) also leaves one block
    # of Airy rows, and M_{1/3} its x / 3^(1/3): all ten Airy fields over the
    # grid would take ~150 MiB.
    def test_eval_verb(self, tmp_path, capsys):
        argv = ["eval", "mwright", "--beta", "0", "--grid=0:9.99:1e-5", "-o", str(tmp_path / "f")]
        assert _traced_peak(lambda: main(argv)) <= 28

    @pytest.mark.parametrize("argv, bound", [
        (["ai"], 28), (["bi"], 28), (["mwright", "--beta", "1/3"], 34),
    ], ids=["ai", "bi", "mwright-1/3"])
    def test_airy_eval_verb(self, tmp_path, capsys, argv, bound):
        argv = ["eval", *argv, "--grid=0:9.99:1e-5", "-o", str(tmp_path / "f")]
        assert _traced_peak(lambda: main(argv)) <= bound

    # 100,001 grid points: a solve's Green's pass holds one block of cells'
    # quadrature at a time.  Over all its cells at once it held 148 MiB.
    def test_solve_verb(self, tmp_path, capsys):
        argv = ["solve", "--h", "cos", "--grid", "0:2:2e-5", "-o", str(tmp_path / "f")]
        assert _traced_peak(lambda: main(argv)) <= 60

    def test_plotdata_verb(self, tmp_path, capsys):
        argv = ["plotdata", "--betas", "0,1/2", "--grid=-5:4.99:1e-5", "-o", str(tmp_path / "f")]
        assert _traced_peak(lambda: main(argv)) <= 48
