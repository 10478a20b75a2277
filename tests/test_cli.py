import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timecloak
from timecloak.cli import main
from timecloak.config import _KEYS
from timecloak.keys import load_keys
from timecloak.stability import TimeErrorSeries, overlapping_adev


def _write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


SMALL_RUN = """
# small deterministic run
key.source = mock
key.seed = 3
duration_s = 500
dwell_s = 5
seed = 2
calib.bias_ns = 64.5
"""


class TestKeygen:
    def test_writes_hex_file(self, tmp_path, capsys):
        out = tmp_path / "key.hex"
        assert main(["keygen", "--seed", "9", "--digits", "64", "--out", str(out)]) == 0
        stream = load_keys(out)
        assert len(stream) == 64
        assert "wrote 64" in capsys.readouterr().out


class TestRun:
    def test_small_run_produces_outputs(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for name in ("tic1.csv", "tic2.csv", "adev1.csv", "adev2.csv", "summary.txt"):
            assert (out / name).exists()
        assert "adev ratio" in capsys.readouterr().out

    def test_set_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        code = main(
            ["run", "--config", cfg, "--set", "duration_s=250", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "tic2.csv").read_text().splitlines()
        assert len(rows) == 1 + 50

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_RUN + "bogus.key = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bogus.key" in capsys.readouterr().err

    def test_bad_value_is_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, "duration_s = soon\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_key_exhaustion_exit_code(self, tmp_path):
        key = tmp_path / "tiny.hex"
        assert main(["keygen", "--seed", "1", "--digits", "8", "--out", str(key)]) == 0
        cfg = _write_config(
            tmp_path,
            f"key.source = file\nkey.path = {key}\nduration_s = 500\ndwell_s = 5\n",
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        cfg = _write_config(tmp_path, SMALL_RUN)
        assert main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 4

    def test_unstable_servo_gain_is_config_error(self, tmp_path, capsys):
        # gain >= 2 makes the servo diverge until the timestamps overflow
        overrides = [
            "duration_s=50000",
            "hop2.gain=2.5",
            "hop2.delay_fwd_ns=60",
            "hop2.delay_bwd_ns=40",
        ]
        argv = ["run", "--out", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "gain" in err[0]

    def test_non_finite_value_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--set", "duration_s=inf", "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "duration_s" in err[0]

    def test_negative_turnaround_is_config_error(self, tmp_path, capsys):
        # the slave cannot reply before the master's message reaches it
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "link.turnaround_ns=-5000"]
        _assert_clean_failure(argv, capsys)
        assert not (tmp_path / "out").exists()

    @given(
        # argparse takes a value led by "-" for an option; see the dash-led test below
        key=st.one_of(
            st.sampled_from(sorted(_KEYS)),
            st.text(max_size=12).filter(lambda k: not k.startswith("-")),
        ),
        value=st.one_of(
            st.text(max_size=24),
            st.integers().map(str),
            st.floats().map(repr),
            st.sampled_from(["", "none", "nan", "-inf", "1e308", "-1", "0", "2", "rw_mem", "file"]),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_set_value_runs_or_fails_cleanly(self, key, value):
        # duration_s and dwell_s come after the fuzzed pair, so they win
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["run", "--set", f"{key}={value}", "--set", "duration_s=50"]
            argv += ["--set", "dwell_s=5", "--out", str(Path(tmp) / "out")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2), err.getvalue()
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()

    def test_dash_led_set_value_is_an_argparse_error(self, tmp_path, capsys):
        # argparse reads "-x=1" as an unknown option, not as the value of --set
        with pytest.raises(SystemExit) as exc:
            main(["run", "--set", "-x=1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith("expected one argument")

    def test_overflowing_delays_fail_cleanly(self, tmp_path, capsys):
        # finite, but t3 + delay_bwd_ns overflows to inf inside the session
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "duration_s=50"]
        for item in ("hop1.delay_fwd_ns=1.7e308", "hop1.delay_bwd_ns=1.7e308"):
            argv += ["--set", item]
        _assert_clean_failure(argv, capsys)

    def test_calibration_estimate_printed(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_RUN + "calib.window_steps = 20\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # the shared calib.bias_ns default applies to each of the two hops
        assert "calibration bias estimate: 129.0000 ns" in capsys.readouterr().out


class TestSweep:
    def test_sweep_layout(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "duration_s = 1000\ndwell_s = 5\nkey.seed = 5\n")
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                cfg,
                "--kinds",
                "rw",
                "--bounded",
                "both",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "rw_unbounded" / "tic2.csv").exists()
        assert (out / "rw_bounded" / "tic2.csv").exists()
        assert "wrote 2 runs" in capsys.readouterr().out

    def test_empty_kinds_rejected(self, tmp_path):
        assert main(["sweep", "--kinds", " ", "--out", str(tmp_path / "x")]) == 2

    def test_bound_comes_from_the_config_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--bound-deg", "90", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--bound-deg" in capsys.readouterr().err


class TestAdev:
    def test_analyzes_emitted_series(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        code = main(["adev", "--input", str(out / "tic2.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "tau_s,adev,sigma_adev"
        assert len(lines) > 3

    def test_explicit_tau0_and_output_file(self, tmp_path):
        src = tmp_path / "series.csv"
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 64).tolist()
        rows = ["idx,error_ns"] + [f"{i},{v!r}" for i, v in enumerate(values)]
        src.write_text("\n".join(rows) + "\n")
        dest = tmp_path / "curve.csv"
        assert main(["adev", "--input", str(src), "--tau0", "5", "--out", str(dest)]) == 0
        assert dest.read_text().startswith("tau_s,adev,sigma_adev")
        curve = np.loadtxt(dest, delimiter=",", skiprows=1, ndmin=2)
        assert len(curve) == 5 and np.all(np.isfinite(curve))

    def test_overflowing_squares_leave_stderr_empty(self, tmp_path):
        # every squared second difference overflows: the curve is inf and the
        # run succeeds, with nothing on stderr (run as a process, since pytest
        # would catch a warning before it reached stderr)
        src = tmp_path / "series.csv"
        rows = "".join(f"{i},{1e165 if i % 2 else 0}\n" for i in range(40))
        src.write_text("time_s,error_ns\n" + rows)
        env = dict(os.environ, PYTHONPATH=str(Path(timecloak.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "timecloak.cli", "adev", "--input", str(src)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1].split(",")[1] == "inf"

    def test_missing_tau0_without_time_column(self, tmp_path):
        src = tmp_path / "series.csv"
        src.write_text("idx,error_ns\n0,1.0\n1,2.0\n2,0.5\n")
        assert main(["adev", "--input", str(src)]) == 2

    def test_missing_column(self, tmp_path):
        src = tmp_path / "series.csv"
        src.write_text("a,b\n1,2\n3,4\n5,6\n")
        assert main(["adev", "--input", str(src), "--tau0", "1"]) == 2


def _genfromtxt_curve(path, tau0=None):
    """The curve of the genfromtxt-based ingest `adev` used before np.loadtxt."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    values = np.atleast_1d(data["error_ns"])
    if tau0 is None:
        times = np.atleast_1d(data["time_s"])
        tau0 = float(times[1] - times[0])
    return overlapping_adev(TimeErrorSeries(values, tau0))


def _curve_text(curve):
    rows = zip(curve.taus_s.tolist(), curve.adev.tolist(), curve.sigma_adev.tolist())
    return "tau_s,adev,sigma_adev\n" + "".join(f"{t!r},{d!r},{s!r}\n" for t, d, s in rows)


def _assert_clean_failure(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


#: (time_s, error_ns) cells as Python float reprs
_VALUES = np.random.default_rng(5).normal(0, 3, 40).tolist()
_ROWS = [(repr(0.5 * i), repr(v)) for i, v in enumerate(_VALUES)]
#: header-handling cases: name -> file text
_PARITY_CASES = {
    "whitespace_around_names": " time_s ,  error_ns \n"
    + "".join(f"{t}, {v}\n" for t, v in _ROWS),
    "comment_lines": "time_s,error_ns\n# calibrated counter\n"
    + "".join(f"{t},{v}\n" + ("# note\n" if i == 7 else "") for i, (t, v) in enumerate(_ROWS)),
    "commented_header": "# time_s,error_ns\n" + "".join(f"{t},{v}\n" for t, v in _ROWS),
    "trailing_blank_line": "time_s,error_ns\n" + "".join(f"{t},{v}\n" for t, v in _ROWS) + "\n",
    "crlf": "time_s,error_ns\r\n" + "".join(f"{t},{v}\r\n" for t, v in _ROWS),
    "value_column_first": "error_ns,time_s\n" + "".join(f"{v},{t}\n" for t, v in _ROWS),
}


class TestAdevIngest:
    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    @pytest.mark.parametrize("tau0", [None, "2.5"])
    def test_matches_genfromtxt_ingest(self, case, tau0, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_bytes(_PARITY_CASES[case].encode("ascii"))
        expected = _genfromtxt_curve(src, tau0=None if tau0 is None else float(tau0))
        argv = ["adev", "--input", str(src)] + (["--tau0", tau0] if tau0 else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == _curve_text(expected)
        assert np.all(np.isfinite(expected.adev)) and len(expected) == 5

    @pytest.mark.parametrize(
        "text, extra",
        [
            ("time_s,error_ns\n", []),  # header only, tau0 inferred
            ("time_s,error_ns\n\n", ["--tau0", "1"]),  # header only, --tau0
            ("time_s,error_ns\n0,1.5\n", []),  # one row, tau0 inferred
            ("", []),  # empty file
            ("\n\n", ["--tau0", "1"]),  # blank lines only
            ("time_s,error_ns\n0,1\n1\n2,3\n", []),  # short row
        ],
        ids=[
            "header_only", "header_only_tau0",
            "single_row", "empty_file", "blank_file", "short_row",
        ],
    )
    def test_bad_layout_fails_cleanly(self, text, extra, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text(text)
        _assert_clean_failure(["adev", "--input", str(src), *extra], capsys)

    @pytest.mark.parametrize(
        "cell", ["", "abc", "nan", "inf"], ids=["empty", "non_numeric", "nan", "inf"]
    )
    def test_gap_or_non_finite_cell_fails_cleanly(self, cell, tmp_path, capsys):
        rows = [f"{t},{v}" for t, v in _ROWS]
        rows[9] = f"{_ROWS[9][0]},{cell}"
        src = tmp_path / "series.csv"
        src.write_text("time_s,error_ns\n" + "\n".join(rows) + "\n")
        _assert_clean_failure(["adev", "--input", str(src)], capsys)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "\n\ntime_s,error_ns\n# site B\n0,1\n\n# gap\n1,2\n2,x\n3,4\n",
                "line 9: could not convert string 'x' to float64, column 2.",
            ),
            ("time_s,error_ns\r\n0,1\r\n# note\r\n1\r\n2,3\r\n", "line 4: invalid column index 1"),
        ],
        ids=["bad_cell", "short_row"],
    )
    def test_error_names_the_file_line(self, text, message, tmp_path, capsys):
        # np.loadtxt's own message counts data rows, skipping blank and comment lines
        src = tmp_path / "series.csv"
        src.write_bytes(text.encode("ascii"))
        assert main(["adev", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {src}: {message}") and "row" not in captured.err

    @pytest.mark.parametrize("tau0", ["inf", "-inf", "nan"])
    def test_non_finite_tau0_fails_cleanly(self, tau0, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("time_s,error_ns\n" + "".join(f"{t},{v}\n" for t, v in _ROWS))
        _assert_clean_failure(["adev", "--input", str(src), f"--tau0={tau0}"], capsys)

    def test_non_finite_time_step_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("time_s,error_ns\n0,1.0\ninf,2.0\n2,0.5\n")
        _assert_clean_failure(["adev", "--input", str(src)], capsys)

    def test_overflowing_allan_sum_fails_cleanly(self, tmp_path, capsys):
        # each squared second difference is finite; their sum is not
        src = tmp_path / "series.csv"
        rows = "".join(f"{i},{6e162 if i % 2 else 0}\n" for i in range(40))
        src.write_text("time_s,error_ns\n" + rows)
        _assert_clean_failure(["adev", "--input", str(src)], capsys)


class TestLinkBudget:
    def test_default_report(self, capsys):
        assert main(["linkbudget"]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out
        assert "yes" in out

    def test_csv_output(self, tmp_path):
        dest = tmp_path / "budget.csv"
        assert main(["linkbudget", "--csv", str(dest)]) == 0
        assert dest.read_text().splitlines()[0].startswith("background_per_pulse")

    def test_infeasible_parameters(self, capsys):
        assert main(["linkbudget", "--background-cps", "90000"]) == 0
        assert "no" in capsys.readouterr().out.splitlines()[-1]

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--loss-db", "nan"),
            ("--dark-cps", "inf"),
            ("--background-cps", "nan"),
            ("--mu", "inf"),
            ("--dead-time-us", "inf"),
            ("--efficiency", "-inf"),
        ],
    )
    def test_non_finite_value_fails_cleanly(self, capsys, option, value):
        assert main(["linkbudget", f"{option}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "must be finite" in err[0]
