"""End-to-end CLI tests: every invocation goes through ``cli.main(argv)``
in-process, with files under tmp_path.  Exit-code contract under test:

    0  success
    1  environment/parse trouble (flags, unreadable files, model parameters)
    2  domain trouble (malformed rows, empty windows, non-monotone transforms)
"""

from __future__ import annotations

import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smilewings import cli
from smilewings.blackscholes import SmileCurve, WingForm
from smilewings.fileio import CHAIN_HEADER, write_smile_csv

SMILE_GEN_REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench"
                       / "reference" / "smile-gen.json")
PUT_ATM_02 = "0.079655674554057984"   # flat-0.2 normalized put at x = 0


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse rejections surface here
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_smile(path, smile, **meta):
    with open(path, "w", encoding="utf-8") as fh:
        write_smile_csv(fh, smile, metadata=meta or None)
    return str(path)


# ---------------------------------------------------------------------------
# iv


class TestIv:
    def test_inverts_and_passes_through(self, tmp_path, capsys):
        chain = write_text(tmp_path / "chain.csv",
                           CHAIN_HEADER + "\n"
                           f"0.0,{PUT_ATM_02},put_price\n"
                           "-1.0,0.25,implied_vol\n")
        out = tmp_path / "smile.csv"
        code, _, err = run_cli(["iv", "--input", chain, "--output", str(out)],
                               capsys)
        assert code == 0 and err == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "log_moneyness,implied_vol"
        x0, v0 = (float(t) for t in lines[1].split(","))
        assert x0 == 0.0 and abs(v0 - 0.2) < 1e-10
        assert lines[2] == "-1,0.25"

    def test_intrinsic_price_maps_to_zero_vol(self, tmp_path, capsys):
        intrinsic = math.exp(0.5) - 1.0
        chain = write_text(tmp_path / "chain.csv",
                           CHAIN_HEADER + f"\n0.5,{intrinsic!r},put_price\n")
        out = tmp_path / "smile.csv"
        code, _, _ = run_cli(["iv", "--input", chain, "--output", str(out)],
                             capsys)
        assert code == 0
        assert float(out.read_text().splitlines()[1].split(",")[1]) == 0.0

    def test_bad_rows_reported_good_rows_kept(self, tmp_path, capsys):
        chain = write_text(tmp_path / "chain.csv",
                           CHAIN_HEADER + "\n"
                           "-1.0,-0.5,implied_vol\n"       # line 2: negative
                           f"0.0,{PUT_ATM_02},put_price\n"  # line 3: fine
                           "not,even,close,to,csv\n")        # line 4: malformed
        out = tmp_path / "smile.csv"
        code, _, err = run_cli(["iv", "--input", chain, "--output", str(out)],
                               capsys)
        assert code == 2
        assert "line 2:" in err and "line 4:" in err
        # stderr is sorted by line number
        assert err.index("line 2:") < err.index("line 4:")
        lines = out.read_text().splitlines()
        assert len(lines) == 2   # header + the one good row
        assert abs(float(lines[1].split(",")[1]) - 0.2) < 1e-10

    def test_bad_header_is_exit_1(self, tmp_path, capsys):
        chain = write_text(tmp_path / "chain.csv", "k,price\n0,0.1\n")
        code, _, err = run_cli(["iv", "--input", chain], capsys)
        assert code == 1 and "error:" in err

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["iv", "--input", str(tmp_path / "nope.csv")], capsys)
        assert code == 1 and "error:" in err

    def test_thread_env_override(self, tmp_path, capsys):
        chain = write_text(tmp_path / "chain.csv",
                           CHAIN_HEADER + "\n"
                           f"0.0,{PUT_ATM_02},put_price\n"
                           "-2.0,0.3,implied_vol\n"
                           "-1.0,0.25,implied_vol\n")
        out = tmp_path / "smile.csv"
        code, _, _ = run_cli(["iv", "--input", chain, "--output", str(out)],
                             capsys)
        assert code == 0
        # output rows keep the input row order
        xs = [float(l.split(",")[0])
              for l in out.read_text().splitlines()[1:]]
        assert xs == [0.0, -2.0, -1.0]


# ---------------------------------------------------------------------------
# wing-fit


class TestWingFit:
    def _exact_file(self, tmp_path, q):
        xs = np.array([-15.0, -12.0, -10.0, -8.0, -6.0, -5.0])
        sm = SmileCurve(xs, WingForm(q, 0.0).vol(xs), interpolation="linear")
        return write_smile(tmp_path / "smile.csv", sm)

    def test_recovers_tail_index(self, tmp_path, capsys):
        path = self._exact_file(tmp_path, 1.5)
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["wing-fit", "--input", path, "--x-min", "-15",
                              "--x-max", "-5", "--output", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["q_hat"] - 1.5) < 1e-4
        assert doc["method"] == "min-statistic"
        assert len(doc["statistic_samples"]) == 6
        assert doc["bound_violations"] == []

    def test_least_squares_method(self, tmp_path, capsys):
        path = self._exact_file(tmp_path, 3.0)
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["wing-fit", "--input", path, "--x-min", "-15",
                              "--x-max", "-5", "--method", "least-squares",
                              "--output", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["q_hat"] - 3.0) < 1e-4
        assert doc["method"] == "least-squares"

    def test_flat_smile_hits_ceiling(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["wing-fit", "--input", path, "--x-min", "-15",
                              "--x-max", "-5", "--q-ceiling", "50",
                              "--output", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["q_hat"] == 50.0
        assert any("no finite q" in n for n in doc["notes"])

    def test_inverted_window_is_exit_2(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        code, _, err = run_cli(["wing-fit", "--input", path, "--x-min", "-2",
                                "--x-max", "-5"], capsys)
        assert code == 2 and "error:" in err

    def test_empty_window_is_exit_2(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        code, _, err = run_cli(["wing-fit", "--input", path, "--x-min", "-4.3",
                                "--x-max", "-4.1"], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("method", ["least-squares", "min-statistic"])
    def test_infinite_q_ceiling_is_exit_2(self, tmp_path, capsys, method):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        code, _, err = run_cli(["wing-fit", "--input", path, "--x-min", "-15",
                                "--x-max", "-5", "--method", method,
                                "--q-ceiling", "inf"], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        cfgfile = write_text(tmp_path / "run.cfg", "q_ceiling = 5\n")
        out = tmp_path / "report.json"
        args = ["wing-fit", "--input", path, "--x-min", "-15", "--x-max", "-5",
                "--config", cfgfile, "--output", str(out)]
        run_cli(args, capsys)
        assert json.loads(out.read_text())["q_hat"] == 5.0
        run_cli(args + ["--q-ceiling", "7"], capsys)
        assert json.loads(out.read_text())["q_hat"] == 7.0


# ---------------------------------------------------------------------------
# varswap


class TestVarswap:
    def test_flat_smile_both_routes(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        out = tmp_path / "vs.json"
        code, _, _ = run_cli(["varswap", "--input", path,
                              "--output", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "both"
        assert abs(doc["strip"] - 0.04) < 1e-7
        assert abs(doc["gf"] - 0.04) < 1e-7
        assert doc["discrepancy"] < 1e-7

    def test_single_route_selection(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        out = tmp_path / "vs.json"
        code, _, _ = run_cli(["varswap", "--input", path, "--method", "strip",
                              "--output", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"method", "strip"}

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(["varswap", "--input", path, "--output", str(out)], capsys)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_report_format(self, tmp_path, capsys):
        path = write_smile(tmp_path / "flat.csv", SmileCurve.flat(0.2))
        out = tmp_path / "vs.csv"
        code, _, _ = run_cli(["varswap", "--input", path, "--method", "strip",
                              "--output-format", "csv",
                              "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "field,value"
        assert lines[1] == "method,strip"
        assert abs(float(lines[2].split(",")[1]) - 0.04) < 1e-7

    def test_non_monotone_transform_is_exit_2(self, tmp_path, capsys):
        steep = SmileCurve(np.array([-2.0, -1.0]), np.array([0.5, 0.1]))
        # A q = 0 corollary wing holds f at -sqrt(c): constant, not invertible.
        flat_f = SmileCurve.from_points(
            [(-3.0, 0.9), (-2.0, 0.7), (-1.0, 0.5), (0.0, 0.3)],
            left_wing="corollary_expansion", left_wing_q=0.0)
        for name, sm in (("steep.csv", steep), ("q0.csv", flat_f)):
            path = write_smile(tmp_path / name, sm)
            code, _, err = run_cli(["varswap", "--input", path,
                                    "--method", "gf"], capsys)
            assert code == 2 and err.count("error:") == 1, (name, err)
            assert "Traceback" not in err


# ---------------------------------------------------------------------------
# smile-gen


class TestSmileGen:
    def test_lognormal_generates_flat_smile(self, tmp_path, capsys):
        out = tmp_path / "smile.csv"
        code, _, err = run_cli(["smile-gen", "--model", "lognormal",
                                "--sigma", "0.2", "--x-grid=-8:0:33",
                                "--output", str(out)], capsys)
        assert code == 0 and err == ""
        from smilewings.fileio import parse_float, read_smile_csv
        with open(out, encoding="utf-8") as fh:
            sm, meta = read_smile_csv(fh)
        assert meta["model"] == "lognormal"         # custom meta stays raw
        assert parse_float(meta["sigma"]) == 0.2
        assert sm.x.size == 33
        assert np.max(np.abs(sm.vol - 0.2)) < 1e-7

    def test_wing_flags_recorded(self, tmp_path, capsys):
        out = tmp_path / "smile.csv"
        code, _, _ = run_cli(["smile-gen", "--model", "lognormal",
                              "--sigma", "0.3", "--x-grid=-10:0:21",
                              "--left-wing", "corollary_expansion",
                              "--left-wing-q", "2.0",
                              "--output", str(out)], capsys)
        assert code == 0
        from smilewings.fileio import read_smile_csv
        with open(out, encoding="utf-8") as fh:
            sm, _ = read_smile_csv(fh)
        assert sm.left_wing == "corollary_expansion"
        assert sm.left_wing_q == 2.0

    def test_bad_alpha_is_exit_1(self, tmp_path, capsys):
        code, _, err = run_cli(["smile-gen", "--model", "fmls",
                                "--alpha", "2.5",
                                "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 1 and "error:" in err

    def test_missing_sigma_is_exit_1(self, tmp_path, capsys):
        code, _, err = run_cli(["smile-gen", "--model", "lognormal",
                                "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 1 and "--sigma" in err

    def test_bad_grid_is_exit_1(self, tmp_path, capsys):
        code, _, err = run_cli(["smile-gen", "--model", "lognormal",
                                "--sigma", "0.2", "--x-grid", "1:2",
                                "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 1 and "START:STOP:COUNT" in err

    def test_mixture_requires_shape_and_scale(self, tmp_path, capsys):
        code, _, err = run_cli(["smile-gen", "--model", "mixture",
                                "--sigma", "0.3",
                                "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 1 and "--y-shape" in err

    def test_mixture_smiles_reproduce_the_benchmark_reference(
            self, tmp_path, capsys):
        # The benchmark's recorded mixture smiles, knot for knot and bit for
        # bit: their right-wing vols sit ~1e-12 from intrinsic, so they read
        # the last ulps of every quadrature node.  The file is only read.
        with open(SMILE_GEN_REFERENCE, encoding="utf-8") as fh:
            smiles = json.load(fh)["smiles"]
        keys = [k for k in smiles if k.startswith("mixture-cli|")]
        assert len(keys) == 18
        from smilewings.fileio import read_smile_csv
        out = tmp_path / "smile.csv"
        for key in keys:
            params = dict(p.split("=") for p in key.split("|")[1].split(","))
            code, _, _ = run_cli(["smile-gen", "--model", "mixture",
                                  "--sigma", params["sigma"],
                                  "--y-shape", params["y_shape"],
                                  "--y-scale", params["y_scale"],
                                  "--x-grid=-16:3:64", "--output", str(out)],
                                 capsys)
            assert code == 0, key
            with open(out, encoding="utf-8") as fh:
                sm, _ = read_smile_csv(fh)
            assert sm.x.tolist() == smiles[key]["x"], key
            assert sm.vol.tolist() == smiles[key]["vol"], key


# ---------------------------------------------------------------------------
# verify and parser plumbing


class TestVerifyAndParser:
    def test_verify_special_functions(self, tmp_path, capsys):
        # iv-roundtrip reports a numpy bool, which must serialize as well
        for token in ("special", "iv-roundtrip"):
            out = tmp_path / "verify.json"
            code, _, _ = run_cli(["verify", "--only", token,
                                  "--output", str(out)], capsys)
            doc = json.loads(out.read_text())
            assert code == 0
            assert doc["all_passed"] is True
            assert len(doc["checks"]) == 1
            assert token in doc["checks"][0]["name"]
            assert doc["checks"][0]["passed"] is True

    def test_unknown_flag_is_exit_1(self, capsys):
        code, _, _ = run_cli(["varswap", "--frobnicate"], capsys)
        assert code == 1

    def test_retired_z_range_flag_is_exit_1(self, capsys):
        code, _, _ = run_cli(["varswap", "--z-range", "8"], capsys)
        assert code == 1

    def test_missing_subcommand_is_exit_1(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1 and "usage" in err

    def test_bad_config_file_is_exit_1(self, tmp_path, capsys):
        cfgfile = write_text(tmp_path / "run.cfg", "tol\n")
        code, _, err = run_cli(["varswap", "--config", cfgfile], capsys)
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ["varswap", "--input", "{smile}"],
        ["wing-fit", "--input", "{smile}", "--x-min=-3", "--x-max=-1.5"],
        ["iv", "--input", "{chain}"],
        ["varswap", "--config", "{cfg}", "--input", "{smile}"],
    ])
    def test_undecodable_input_is_exit_1(self, tmp_path, capsys, argv):
        (tmp_path / "s.csv").write_bytes(
            b"log_moneyness,implied_vol\n-3,0.3\n-2,0.25\xff\n")
        (tmp_path / "c.csv").write_bytes(
            (CHAIN_HEADER + "\n").encode() + b"-1.0,0.25\xff,implied_vol\n")
        (tmp_path / "run.cfg").write_bytes(b"tol = 1e-6\xff\n")
        paths = {"smile": str(tmp_path / "s.csv"), "chain": str(tmp_path / "c.csv"),
                 "cfg": str(tmp_path / "run.cfg")}
        code, _, err = run_cli([a.format(**paths) for a in argv], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not valid utf-8" in err

    @pytest.mark.parametrize("argv", [
        ["varswap"],
        ["wing-fit", "--x-min=-3", "--x-max=-1.5"],
    ])
    def test_out_of_range_knot_is_exit_2(self, tmp_path, capsys, argv):
        path = write_text(tmp_path / "s.csv",
                          "log_moneyness,implied_vol\n-3,0.5\n-2,1e308\n0,0.2\n")
        code, _, err = run_cli(argv + ["--input", path], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, expected", [
        (["smile-gen", "--model", "fmls", "--alpha", "1.5", "--scale", "inf"], 1),
        (["smile-gen", "--model", "mixture", "--sigma", "0.2", "--y-shape", "2",
          "--y-scale", "inf", "--x-grid=-3:1:3"], 1),
        (["verify", "--only", "mc", "--seed", "99999999999999999999"], 2),
        (["smile-gen", "--model", "fmls", "--alpha", "1.5", "--scale", "1e300"], 2),
        (["smile-gen", "--model", "fmls", "--alpha", "1.5", "--scale", "1e-300"], 2),
        (["smile-gen", "--model", "mixture", "--sigma", "0.2", "--y-shape", "2",
          "--y-scale", "1e300", "--x-grid=-3:1:3"], 2),
        (["smile-gen", "--model", "fmls", "--alpha", "1.5", "--x-grid=1:800:3"], 1),
        (["smile-gen", "--model", "mixture", "--sigma", "0.2", "--y-shape", "2",
          "--y-scale", "0.5", "--x-grid=1:800:3"], 1),
        (["smile-gen", "--model", "fmls", "--alpha", "1.5", "--scale", "20",
          "--x-grid=1:3:2"], 2),
        (["smile-gen", "--model", "fmls", "--alpha", "1.5", "--scale", "1e3",
          "--x-grid=-130:-125:2"], 2),
    ])
    def test_out_of_range_parameter_is_one_error_line(self, tmp_path, capsys,
                                                      argv, expected):
        code, _, err = run_cli(argv + ["--output", str(tmp_path / "out")], capsys)
        assert code == expected
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the exit-code contract on extreme inputs

# ln(DBL_MAX) ~ 709.78 sits between 709.78 and 709.79.
_EXTREMES = [1e300, -1e300, 709.78, 709.79, -709.79, 1000.0, -1000.0, 1e15,
             -1e15, 5e-324, -5e-324, 1e-300, 0.0, 1.0, -1.0, math.nan,
             math.inf, -math.inf]
_EXTREME = st.sampled_from(_EXTREMES) | st.floats()
_STDERR_LINE = re.compile(r"(line \d+|warning|error): ")


def _run_stdio(argv, stdin=""):
    """``cli.main(argv)`` with stdin fed from a string and stdout/stderr
    captured.  Any exception other than SystemExit propagates as a
    traceback would, and so does any warning the CLI lets escape (it
    would print as a stray stderr line)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejections surface here
            code = exc.code
    return code, err.getvalue()


def _assert_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert all(_STDERR_LINE.match(line) for line in lines), err
    errors = [line for line in lines if line.startswith("error:")]
    assert len(errors) <= 1 and (not errors or lines == errors), err
    if code != 0:
        assert lines, "a nonzero exit must say why on stderr"


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_EXTREME, _EXTREME,
                               st.sampled_from(["put_price", "implied_vol"])),
                     min_size=1, max_size=4))
@example(rows=[(710.0, 5.0, "put_price")])
@example(rows=[(709.79, 1e300, "put_price"), (-1e300, 5e-324, "put_price")])
@example(rows=[(5e-324, 2.2250738585072014e-308, "put_price")])
def test_iv_contract_on_extreme_rows(rows):
    chain = CHAIN_HEADER + "\n" + "".join(
        f"{x!r},{v!r},{kind}\n" for x, v, kind in rows)
    code, err = _run_stdio(["iv", "--input", "-", "--output", "-"], chain)
    _assert_contract(code, err)
    assert code in (0, 2)
    assert all(line.startswith("line ") for line in err.splitlines()), err


@settings(max_examples=60, deadline=None)
@given(lo=_EXTREME, hi=_EXTREME, n=st.integers(1, 4), sigma=_EXTREME)
@example(lo=0.0, hi=800.0, n=3, sigma=0.2)
@example(lo=-1e15, hi=1e-300, n=3, sigma=1e-300)
@example(lo=-709.79, hi=1e300, n=1, sigma=1.1754943508222875e-38)
@example(lo=1e300, hi=math.inf, n=2, sigma=1e300)
@example(lo=-1.7976931348623157e308, hi=709.78, n=4, sigma=1e300)
def test_lognormal_smile_gen_contract_on_extreme_grids(lo, hi, n, sigma):
    code, err = _run_stdio(["smile-gen", "--model", "lognormal",
                            f"--sigma={sigma!r}", f"--x-grid={lo!r}:{hi!r}:{n}",
                            "--output", "-"])
    _assert_contract(code, err)
