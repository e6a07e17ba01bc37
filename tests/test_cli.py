import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expratio
from expratio import cli
from expratio import (
    GFParams,
    HParams,
    PParams,
    QParams,
    eval_F,
    eval_G,
    eval_H,
    eval_P,
    eval_Q,
)
from expratio.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SCALAR = {
    "G": (GFParams, eval_G),
    "F": (GFParams, eval_F),
    "H": (HParams, eval_H),
    "P": (PParams, eval_P),
    "Q": (QParams, eval_Q),
}


def _expected_ts(range_args):
    start, stop, count = (float(x) for x in range_args[1:4])
    if "--log" in range_args:
        side = np.geomspace(start, stop, int(count))
        return np.concatenate([-side[::-1], side])
    return np.linspace(start, stop, int(count))


class TestEval:
    @pytest.mark.parametrize(
        "func, params, range_args",
        [
            pytest.param("G", ["0.5", "2.5"], ["--range", "-700", "700", "57"], id="G"),
            pytest.param("F", ["-1.5", "0.75"], ["--range", "-300", "300", "57"], id="F"),
            pytest.param("H", ["1.5", "-0.5", "2.5", "0.25"], ["--range", "-3", "3", "25"], id="H"),
            pytest.param("P", ["2", "3", "5", "7"], ["--range", "-50", "50", "41"], id="P"),
            pytest.param("Q", ["0", "0.5"], ["--range", "-40", "40", "41"], id="Q"),
            pytest.param("G", ["0.5", "2.5"], ["--range", "1e-9", "720", "40", "--log"], id="G-log"),
            pytest.param("F", ["-1.5", "0.75"], ["--range", "1e-9", "300", "40", "--log"], id="F-log"),
        ],
    )
    def test_csv_rows_match_scalar(self, capsys, func, params, range_args):
        code, out, _ = run_cli(
            capsys, "eval", func, *params, *range_args, "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        make, scalar = _SCALAR[func]
        p = make(*map(float, params))
        ts = _expected_ts(range_args)
        assert len(lines) == len(ts) + 1
        for line, want_t in zip(lines[1:], ts):
            t_s, v_s = line.split(",")
            assert float(t_s) == want_t
            # 17 significant digits round-trip bit-for-bit
            assert float(v_s) == scalar(p, float(t_s)), line

    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "H", "3", "1", "2", "0", "--t", "1")
        assert code == 0
        t, v = out.split()
        assert float(t) == 1.0
        assert float(v) == pytest.approx(math.e, rel=1e-6)

    def test_continuity_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "H", "1", "0", "2", "0", "--t", "0")
        assert code == 0
        assert float(out.split()[1]) == 0.5

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "H", "1", "0", "1", "0", "--t", "1")
        assert code == 2
        assert "lambda" in err or "excluded" in err

    def test_log_range_mirrored(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "Q", "0", "0.5",
            "--range", "1e-3", "10", "6", "--log", "--format", "csv",
        )
        assert code == 0
        ts = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert len(ts) == 12
        assert ts == sorted(ts)
        assert ts[0] == -ts[-1]

    def test_bad_log_range(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "Q", "0", "0.5", "--range", "-1", "10", "6", "--log"
        )
        assert code == 2

    @pytest.mark.parametrize("count", ["inf", "nan", "1e400", "2.5", "0"])
    def test_bad_range_count(self, capsys, count):
        # exit 1 means a contradiction in verify, so int(inf)'s OverflowError
        # must not escape as a traceback
        argv = ("eval", "H", "1", "0", "2", "0", "--range", "0", "1", count)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: range COUNT must be a positive integer\n"

    def test_arity_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "H", "1", "0", "2", "--t", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "G", "1", "2.718281828459045", "--t", "0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["function"] == "G"
        assert doc["rows"][0]["value"] == pytest.approx(1.0, rel=1e-12)

    def test_json_both_differences_beyond_range(self, capsys):
        # 2t and 3t overflow at t = 1e308; H = (e^{2t} - 1)/(e^{3t} - 1) is 0
        code, out, _ = run_cli(
            capsys, "eval", "H", "2", "0", "3", "0", "--t", "1e308", "--format", "json"
        )
        assert code == 0
        assert "NaN" not in out
        assert json.loads(out)["rows"] == [{"t": 1e308, "value": 0.0}]


# (function, params, --range); the H grid saturates to inf near t = 400
_BYTES_CASES = [
    ("H", [1.5, -0.5, 2.5, 0.25], [-3.0, 3.0, 25]),
    ("H", [2.5, 0.0, 0.5, 0.0], [-400.0, 400.0, 81]),
    ("P", [2.0, 3.0, 5.0, 7.0], [-50.0, 50.0, 41]),
    ("Q", [0.0, 0.5], [-40.0, 40.0, 41]),
    ("G", [0.5, 2.5], [-700.0, 700.0, 57]),
    ("F", [-1.5, 0.75], [-300.0, 300.0, 57]),
]

_GRID_EVALUATORS = {
    "H": (HParams, expratio.eval_H_grid),
    "P": (PParams, expratio.eval_P_grid),
    "Q": (QParams, expratio.eval_Q_grid),
    "G": (GFParams, expratio.eval_G_grid),
    "F": (GFParams, expratio.eval_F_grid),
}


class TestEvalBytes:
    """An eval table is written at once; its bytes are one line per row of
    the grid evaluator's values, in the format's number spelling."""

    @pytest.mark.parametrize("func, params, grid", _BYTES_CASES,
                             ids=["H", "H-saturating", "P", "Q", "G", "F"])
    def test_table_bytes(self, capsys, func, params, grid):
        make, evaluate = _GRID_EVALUATORS[func]
        ts = np.linspace(grid[0], grid[1], grid[2])
        values = evaluate(make(*params), ts)
        if grid[1] == 400.0:
            assert np.isinf(values[-1])
        argv = ["eval", func, *map(repr, params), "--range", *map(repr, grid)]
        rows = list(zip(ts.tolist(), values.tolist()))
        want = {
            "csv": "t,value\n" + "".join("%.17g,%.17g\n" % r for r in rows),
            "text": "".join("%.6g %.6g\n" % r for r in rows),
            "json": json.dumps({"function": func, "params": params,
                                "rows": [{"t": t, "value": v} for t, v in rows]}) + "\n",
        }
        for fmt, text in want.items():
            assert run_cli(capsys, *argv, "--format", fmt) == (0, text, ""), fmt


# one call of each kind main handles, usage and parameter errors included
_REUSE_ARGV = [
    ["eval", "H", "1.5", "-0.5", "2.5", "0.25", "--t", "0.75", "--format", "json"],
    ["eval", "G", "0.5", "2.5", "--range", "1e-3", "10", "7", "--log", "--format", "csv"],
    ["classify", "P", "2", "3", "5", "7"],
    ["eval", "H", "1", "0", "2", "--t", "1"],
    ["eval", "Q", "0", "0.5", "--t", "1", "--range", "0", "1", "2"],
    ["verify", "--draws", "40", "--format", "json"],
    ["table", "--format", "csv"],
    ["eval", "H", "1", "0", "1", "0", "--t", "1"],
]


def test_parser_reused_across_calls(capsys):
    # main builds its parser once per process; every call must read as if
    # the parser were new, whatever ran before it
    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors and the arity check
            code = exc.code
        return (code, *capsys.readouterr())

    cli._parser.cache_clear()
    forward = [call(argv) for argv in _REUSE_ARGV]
    backward = [call(argv) for argv in reversed(_REUSE_ARGV)][::-1]
    assert forward == backward
    assert [r[0] for r in forward] == [0, 0, 0, 2, 2, 0, 0, 2]
    assert cli._parser() is cli._parser() and cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli._parser()


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_quietly(unbuffered):
    # the reader takes two lines, as head -n 2 does, and closes the pipe;
    # 1.7 MB of csv cannot fit in a pipe's buffer, so the write fails
    # every time.  The second line comes from the table's write, so the
    # reader leaves while that write is under way: unbuffered stdout writes
    # to a raw stream, which then returns the part it took, and main writes
    # the rest, which fails
    src = str(Path(expratio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = ["eval", "F", "0.5", "1.5", "--range", "-20", "20", "40000", "--format", "csv"]
    proc = subprocess.Popen([sys.executable, "-m", "expratio", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert lines == [b"t,value\n", b"-20,440529.31680413242\n"]
    assert err == ""  # no traceback


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == f"expratio {expratio.__version__} (NumPy {np.__version__})\n"


class TestClassify:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "H", "1", "0", "2", "0")
        assert code == 0
        assert "(-inf,inf): decreasing" in out
        assert "log-concave" in out
        assert "3-log-convex on (0,inf)" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "H", "1", "0", "2", "0", "--format", "json"
        )
        doc = json.loads(out)
        assert set(doc) == {
            "function", "params", "invariants", "monotonicity",
            "convexity", "third_order", "zero_band_hits",
        }
        assert doc["invariants"] == {"A": -1.0, "B": -4.0, "C": -2.0, "D": 2.0, "E": 0.0}
        assert doc["monotonicity"]["(-inf,inf)"]["direction"] == "decreasing"
        assert doc["convexity"]["kind"] == "log-concave"
        assert doc["zero_band_hits"] == ["E"]

    def test_P_matches_H_of_logs(self, capsys):
        code, out_p, _ = run_cli(
            capsys, "classify", "P", "2", "3", "5", "7", "--format", "json"
        )
        doc_p = json.loads(out_p)
        # repr round-trips, so H reads the very logarithms P computes
        logs = [repr(math.log(x)) for x in (2, 3, 5, 7)]
        code, out_h, _ = run_cli(capsys, "classify", "H", *logs, "--format", "json")
        doc_h = json.loads(out_h)
        for doc in (doc_p, doc_h):
            del doc["function"], doc["params"]
        assert doc_p == doc_h

    def test_P_bases_near_one(self, capsys):
        # the logarithms of the bases are about 1e-7 apart: a band with a
        # floor at scale 1 took every invariant for 0 and read "increasing"
        args = ("classify", "P", "1.0000001", "1.0000003", "1.0000002", "1.0000007")
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["zero_band_hits"] == []
        logs = PParams(*(float(x) for x in args[2:])).log_params()
        for interval in expratio.Interval:
            assert doc["monotonicity"][interval.value]["direction"] == "decreasing"
            assert expratio.grid_monotonicity_check(logs, interval).direction == "falls"

    def test_P_equal_logarithms_exit_2(self, capsys):
        # the bases differ, but their logarithms are equal in double precision
        code, _, err = run_cli(capsys, "classify", "P", "1e10", "10000000000.000002", "5", "7")
        assert code == 2
        assert err.startswith("error: PParams: the logarithms of the bases coincide")

    @pytest.mark.parametrize(
        "params, nulls",
        [
            # A, C and D overflow to inf; the verdicts read the scaled invariants
            (["1e200", "0", "1", "0"], {"A", "C", "D"}),
            # the ratio overflows too
            (["1e300", "0", "1e-300", "0"], {"A", "C", "D", "ratio"}),
        ],
    )
    def test_json_nonfinite_as_null(self, capsys, params, nulls):
        def reject(name):
            raise ValueError(f"bare {name} in JSON output")

        code, out, _ = run_cli(capsys, "classify", "H", *params, "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        got = {k for k, v in doc["invariants"].items() if v is None}
        if doc["convexity"]["ratio"] is None:
            got.add("ratio")
        assert got == nulls

    def test_ratio_of_overflowing_differences(self, capsys):
        # alpha - beta = 2e308 and lam - mu = 3e308 overflow; their ratio,
        # 2/3, does not, and H = sinh(1e308 t)/sinh(1.5e308 t) is log-concave
        args = ("classify", "H", "1e308", "-1e308", "1.5e308", "-1.5e308")
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        convexity = json.loads(out)["convexity"]
        assert code == 0 and convexity["kind"] == "log-concave"
        assert convexity["ratio"] == 1e308 / 1.5e308 == pytest.approx(2 / 3, rel=1e-15)
        code, out, _ = run_cli(capsys, *args)
        assert "log-convexity: log-concave (ratio=0.666667)" in out
        assert "third-order: 3-log-convex on (0,inf), 3-log-concave on (-inf,0)" in out

    def test_Q_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "Q", "0", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["log_convex"] is True and doc["log_concave"] is False
        assert doc["zero_band_hits"] == ["q2"]

    def test_Q_document(self, capsys):
        # Q is classified as H(-alpha, -beta, 0, -1); its document keeps
        # the q1/q2/q3 names and no lambda>mu entry
        code, out, _ = run_cli(capsys, "classify", "Q", "0.2", "0.8", "--format", "json")
        assert code == 0
        assert out == (
            '{"function": "Q", "params": [0.2, 0.8], "monotonicity": '
            '{"(0,inf)": {"direction": "decreasing", "fired_conditions": '
            '[["q1", "<=0"], ["q2", "<=0"]]}, '
            '"(-inf,0)": {"direction": "increasing", "fired_conditions": '
            '[["q1", ">=0"], ["q3", ">=0"]]}, '
            '"(-inf,inf)": {"direction": "non-monotonic", "fired_conditions": []}}, '
            '"log_convex": false, "log_concave": true, "third_order": '
            '{"kind": "3-log-convex on (0,inf), 3-log-concave on (-inf,0)"}, '
            '"zero_band_hits": ["q1"]}\n'
        )

    def test_Q_ratio_one_in_band(self, capsys):
        # Q_{1.3,2.3}(t) = e^{-1.3 t}; beta - alpha rounds to 0.9999999999999998
        code, out, _ = run_cli(capsys, "classify", "Q", "1.3", "2.3", "--format", "json")
        doc = json.loads(out)
        assert doc["log_convex"] is False and doc["log_concave"] is False
        assert doc["third_order"]["kind"] == "log-affine"
        assert doc["zero_band_hits"] == ["ratio"]

    def test_H_ratio_one_in_band(self, capsys):
        # H(1.3, 0.3, 2.3, 1.3) = e^{-t}; the ratio rounds to 1.0000000000000002
        code, out, _ = run_cli(
            capsys, "classify", "H", "1.3", "0.3", "2.3", "1.3", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["convexity"]["kind"] == "log-affine"
        assert doc["convexity"]["exponent"] == -1.0
        assert doc["third_order"]["kind"] == "log-affine"
        assert doc["zero_band_hits"] == ["ratio"]

    def test_negative_ratio_classified(self, capsys):
        # ratio -0.5 reads as |ratio| = 0.5; Q with alpha > beta has ratio < 0
        code, out, _ = run_cli(capsys, "classify", "H", "1", "0", "0", "2", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["convexity"]["kind"] == "log-concave"
        assert doc["third_order"]["kind"] == (
            "3-log-convex on (0,inf), 3-log-concave on (-inf,0)"
        )
        # Q_{2,1}(t) = -e^{-t}: ratio -1, log-affine
        code, out, _ = run_cli(capsys, "classify", "Q", "2", "1", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["third_order"] == {"kind": "log-affine"}
        assert doc["log_convex"] is False and doc["log_concave"] is False
        assert doc["zero_band_hits"] == ["ratio"]

    def test_exact_ratio_one_listed(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "H", "3", "1", "2", "0", "--format", "json")
        doc = json.loads(out)
        assert doc["convexity"]["kind"] == "log-affine"
        assert doc["zero_band_hits"] == ["ratio"]

    def test_invalid_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "Q", "0", "1")
        assert code == 2


class TestNegativeExponentNumbers:
    # argparse before Python 3.13 takes "-1e-3" for an option flag; each
    # spelling must give the output of its plain decimal form
    @pytest.mark.parametrize(
        "exp_form, plain",
        [("-1e-3", "-0.001"), ("-2E+1", "-20"), ("-.5e3", "-500"), ("-1.5e0", "-1.5")],
    )
    def test_positional_param(self, capsys, exp_form, plain):
        _, want, _ = run_cli(capsys, "classify", "H", plain, "0", "1", "0", "--format", "json")
        code, out, err = run_cli(
            capsys, "classify", "H", exp_form, "0", "1", "0", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert out == want

    @pytest.mark.parametrize(
        "exp_form, plain", [("-1e-3", "-0.001"), ("-2E+1", "-20"), ("-.5e3", "-500")]
    )
    def test_option_value(self, capsys, exp_form, plain):
        _, want, _ = run_cli(capsys, "eval", "H", "1", "0", "2", "0", "--t", plain)
        code, out, err = run_cli(capsys, "eval", "H", "1", "0", "2", "0", "--t", exp_form)
        assert (code, err) == (0, "")
        assert out == want

    def test_range_values(self, capsys):
        argv = ("eval", "Q", "0", "0.5", "--range")
        _, want, _ = run_cli(capsys, *argv, "-20", "-0.5", "4", "--format", "csv")
        code, out, _ = run_cli(capsys, *argv, "-2E+1", "-.5e0", "4", "--format", "csv")
        assert code == 0
        assert out == want

    def test_unknown_option_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "H", "-e3", "0", "1", "0"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--draws", "10", "--seed", "7", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["draws"] == 10
        assert doc["draws"] == doc["agreements"] + doc["boundary_skips"] + len(
            doc["contradictions"]
        )

    def test_zero_draws_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--draws", "0")
        assert code == 2

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--draws", "5", "--seed", "1")
        assert code == 0
        assert "draws=5" in out


class TestTable:
    def test_text_has_12_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        lines = [l for l in out.strip().split("\n") if l.strip()]
        assert code == 0
        assert len(lines) == 13  # header + 12 data rows

    def test_csv_header_and_fifth_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "interval,direction,A,B,C,D,E,ordering"
        assert lines[5] == '"(-inf,0)",increasing,>=0,,,,>=0,lambda>mu'

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        doc = json.loads(out)
        assert len(doc) == 12
        assert doc[0]["constraints"] == {"A": ">=0", "C": ">=0"}


def test_python_m_expratio_prints_golden_table():
    # run the package as a module in a fresh interpreter, importing it from
    # the same tree as this test run
    src = str(Path(expratio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "expratio", "table", "--format", "csv"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    golden = Path(__file__).parent / "data" / "table_golden.csv"
    assert out == golden.read_text()
