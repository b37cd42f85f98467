import contextlib
import io
import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wright_stein.cli import main, parse_samples_csv
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

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2


class TestEnvironment:
    def test_truncation_override(self, monkeypatch):
        from wright_stein.cli import _config

        monkeypatch.setenv("WRIGHT_STEIN_TRUNC", "30")
        assert _config().truncation_point == 30.0
        monkeypatch.delenv("WRIGHT_STEIN_TRUNC")
        assert _config().truncation_point == 40.0

    def test_override_flows_through_solve(self, monkeypatch, capsys):
        monkeypatch.setenv("WRIGHT_STEIN_TRUNC", "35")
        code, out, _ = run(capsys, ["solve", "--h", "cos", "--grid", "0:6:0.1"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("# boundary_residual=")][0]
        assert abs(float(line.split("=")[1])) <= 1e-8


class TestExitCodeContract:
    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf"])
    def test_bad_truncation_is_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("WRIGHT_STEIN_TRUNC", value)
        code, _, err = run(capsys, ["eval", "ai", "0:1:0.5"])
        assert code == 2
        assert "WRIGHT_STEIN_TRUNC" in err

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

    def test_parse_rejects_infinity(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_samples_csv("1.0\n# c\n-inf\n2.0\n")


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(trunc=st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=12),
    st.floats().map(repr),
))
def test_arbitrary_truncation_strings_keep_exit_contract(trunc):
    saved = os.environ.get("WRIGHT_STEIN_TRUNC")
    os.environ["WRIGHT_STEIN_TRUNC"] = trunc
    try:
        code = main(["eval", "ai", "0:1:0.5", "-o", os.devnull])
    finally:
        if saved is None:
            del os.environ["WRIGHT_STEIN_TRUNC"]
        else:
            os.environ["WRIGHT_STEIN_TRUNC"] = saved
    assert code in (0, 2)


_CSV_LINE = st.one_of(
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
