import contextlib
import gzip
import io
import os
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timecloak
from timecloak.cli import main
from timecloak.config import _KEYS
from timecloak.keys import load_keys
from timecloak.linkbudget import ChannelParams, feasibility_report, report_csv
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

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "key.hex"
        argv = ["keygen", "--seed", "-1", "--digits", "8", "--out", str(out)]
        assert _assert_clean_failure(argv, capsys) == "error: seed must be >= 0, got -1"
        assert not out.exists()

    def test_more_digits_than_a_run_takes_fails_cleanly(self, tmp_path, capsys):
        # rejected before the generator allocates 10**13 bytes
        out = tmp_path / "key.hex"
        argv = ["keygen", "--seed", "1", "--digits", "10000000000000", "--out", str(out)]
        message = "error: --digits must be <= 201326592, got 10000000000000"
        assert _assert_clean_failure(argv, capsys) == message
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "overrides, name",
        [
            (["dwell_s=1e-170", "duration_s=1e-167"], "dwell_s"),
            (["seed=-1"], "seed"),
            (["key.seed=-1"], "key.seed"),
            (["carrier_hz=1e-320", "duration_s=500"], "carrier_hz"),
        ],
        ids=["tiny_dwell", "negative_seed", "negative_key_seed", "tiny_carrier"],
    )
    def test_bad_value_error_names_its_key(self, overrides, name, tmp_path, capsys):
        argv = ["run", "--out", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--set", item]
        err = _assert_clean_failure(argv, capsys)
        assert err.startswith(f"error: {name} must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bound", [[], ["model.bound_deg=360"]], ids=["unbounded", "bounded"])
    @pytest.mark.parametrize(
        "kind, divisor", [("white", "1e-306"), ("rw", "1e-305"), ("rw_lag", "1e-305"), ("rw_mem", "1e-305")]
    )
    def test_overflowing_phases_name_the_divisor(self, kind, divisor, bound, tmp_path, capsys):
        # white overflows in 255 / divisor, a walk in its running sum (400 steps)
        argv = ["run", "--out", str(tmp_path / "out")]
        for item in [f"model.kind={kind}", f"model.C={divisor}", "duration_s=2000", *bound]:
            argv += ["--set", item]
        err = _assert_clean_failure(argv, capsys)
        assert err == f"error: divisor {float(divisor)!r} is too small: the phases overflow"
        assert not (tmp_path / "out").exists()

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
        key=st.one_of(
            st.sampled_from(sorted(_KEYS)),
            st.text(max_size=12),
            st.text(max_size=11).map("-".__add__),  # what argparse would take for an option
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

    def test_dash_led_set_value_reaches_the_config_parser(self, tmp_path, capsys):
        # argparse alone would read "-seed=3" as an option, not as the value of --set
        assert main(["run", "--set", "-seed=3", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "error: unknown configuration key '-seed'\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_delays_fail_cleanly(self, tmp_path, capsys):
        # finite, but t3 + delay_bwd_ns overflows to inf inside the session
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "duration_s=50"]
        for item in ("hop1.delay_fwd_ns=1.7e308", "hop1.delay_bwd_ns=1.7e308"):
            argv += ["--set", item]
        _assert_clean_failure(argv, capsys)

    @pytest.mark.parametrize(
        "overrides",
        [
            ["model.kind=rw", "model.C=1e-300", "duration_s=50000"],
            ["model.kind=white", "model.C=1e-304"],
        ],
        ids=["rw", "white"],
    )
    def test_delays_too_large_for_the_grid_fail_cleanly(self, overrides, tmp_path, capsys):
        # the phases are finite, but a delay over the 2**-20 ns grid step overflows
        argv = ["run", "--out", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--set", item]
        err = _assert_clean_failure(argv, capsys)
        assert err.startswith("error: delay ")
        assert err.endswith(" ns is too large for the 2**-20 ns delay grid")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            ["model.kind=rw", "model.C=1e-290", "duration_s=50000"],
            ["carrier_hz=1e-290", "duration_s=500"],
        ],
        ids=["small_divisor", "small_carrier"],
    )
    def test_summary_overflow_names_its_field(self, overrides, tmp_path, capsys):
        # the delays fit the grid, but the square of the encrypted series does not
        argv = ["run", "--out", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--set", item]
        err = _assert_clean_failure(argv, capsys)
        assert err == "error: tic2_std_ns: overflow encountered in square"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("kind", ["rw_lag", "rw_mem"])
    def test_walk_without_lag_or_depth_runs_as_in_the_sweep(self, tmp_path, kind):
        # model.M and model.S unset: run and sweep give the walk the same lag and depth
        cfg = _write_config(tmp_path, SMALL_RUN + "duration_s = 1000\nlink.jitter_ns = 0.5\n")
        run, sweep = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", "--config", cfg, "--set", f"model.kind={kind}", "--out", str(run)]) == 0
        argv = ["sweep", "--config", cfg, "--kinds", kind, "--bounded", "no", "--out", str(sweep)]
        assert main(argv) == 0
        for name in ("tic1.csv", "tic2.csv", "adev1.csv", "adev2.csv", "summary.txt"):
            assert (run / name).read_bytes() == (sweep / f"{kind}_unbounded" / name).read_bytes()

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


def _adev_of_fifo(fifo, text) -> subprocess.CompletedProcess:
    """`timecloak adev` run in a subprocess on a FIFO that a thread fills with text."""
    # a second open of a FIFO would wait for a writer that never comes
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    env = dict(os.environ, PYTHONPATH=str(Path(timecloak.__file__).parents[1]))
    try:
        return subprocess.run(
            [sys.executable, "-m", "timecloak.cli", "adev", "--input", str(fifo)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        writer.join(timeout=10)
        if writer.is_alive():  # the reader never opened the FIFO: release the writer
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))


#: (text, message) pairs: input whose np.loadtxt error must name the file line
_LINE_ERRORS = [
    (
        "\n\ntime_s,error_ns\n# site B\n0,1\n\n# gap\n1,2\n2,x\n3,4\n",
        "line 9: could not convert string 'x' to float64, column 2.",
    ),
    ("time_s,error_ns\r\n0,1\r\n# note\r\n1\r\n2,3\r\n", "line 4: invalid column index 1"),
]


def _assert_clean_failure(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


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

    @pytest.mark.parametrize("text, message", _LINE_ERRORS, ids=["bad_cell", "short_row"])
    def test_error_names_the_file_line(self, text, message, tmp_path, capsys):
        # np.loadtxt's own message counts data rows, skipping blank and comment lines
        src = tmp_path / "series.csv"
        src.write_bytes(text.encode("ascii"))
        assert main(["adev", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {src}: {message}") and "row" not in captured.err

    def test_named_file_is_parsed_by_its_absolute_path(self, tmp_path, monkeypatch, capsys):
        # numpy reads a path in large chunks; an open handle one line at a time
        calls = []

        def spy(source, *args, **kwargs):
            calls.append((source, kwargs.get("skiprows")))
            return loadtxt(source, *args, **kwargs)

        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.chdir(tmp_path)
        Path("series.csv").write_text(_PARITY_CASES["comment_lines"])
        assert main(["adev", "--input", "series.csv"]) == 0
        ((source, skiprows),) = calls
        assert isinstance(os.fspath(source), str) and os.path.isabs(source)
        assert os.path.samefile(source, "series.csv") and skiprows == 1
        assert capsys.readouterr().out == _curve_text(_genfromtxt_curve(tmp_path / "series.csv"))

    def test_fifo_is_read_through_the_open_handle(self, tmp_path):
        text = _PARITY_CASES["comment_lines"]
        proc = _adev_of_fifo(tmp_path / "series.fifo", text)
        src = tmp_path / "series.csv"
        src.write_text(text)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == _curve_text(_genfromtxt_curve(src))

    @pytest.mark.parametrize("text, message", _LINE_ERRORS, ids=["bad_cell", "short_row"])
    def test_fifo_error_names_the_file_line_as_a_file_would(self, text, message, tmp_path, capsys):
        # a pipe cannot be rewound to find the rejected line
        fifo = tmp_path / "series.fifo"
        proc = _adev_of_fifo(fifo, text)
        src = tmp_path / "series.csv"
        src.write_text(text)
        file_err = _assert_clean_failure(["adev", "--input", str(src)], capsys)
        assert (proc.returncode, proc.stdout) == (2, "")
        err = proc.stderr
        assert err == file_err.replace(str(src), str(fifo)) + "\n"
        assert err.startswith(f"error: {fifo}: {message}") and "row" not in err

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix_is_not_decompressed(self, suffix, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text(_PARITY_CASES["comment_lines"])
        named = tmp_path / f"series.csv{suffix}"
        named.write_text(_PARITY_CASES["comment_lines"])
        assert main(["adev", "--input", str(named)]) == 0
        assert capsys.readouterr().out == _curve_text(_genfromtxt_curve(src))

    def test_relative_name_that_looks_like_a_url_is_read_locally(self, tmp_path, monkeypatch, capsys):
        # "http://host/s.csv" names the file http:/host/s.csv under the working directory
        def no_network(*args, **kwargs):
            raise AssertionError("the input was fetched as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        src = tmp_path / "http:" / "host" / "s.csv"
        src.write_text(_PARITY_CASES["comment_lines"])
        assert main(["adev", "--input", "http://host/s.csv"]) == 0
        assert capsys.readouterr().out == _curve_text(_genfromtxt_curve(src))

    def test_dot_dot_after_a_symlink_reads_the_file_open_reads(self, tmp_path, monkeypatch, capsys):
        # link/../s.csv is real/s.csv to the OS; a lexical normpath would make it ./s.csv
        monkeypatch.chdir(tmp_path)
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        (tmp_path / "s.csv").write_text(_PARITY_CASES["value_column_first"])
        target = tmp_path / "real" / "s.csv"
        target.write_text(_PARITY_CASES["comment_lines"])
        assert main(["adev", "--input", "link/../s.csv"]) == 0
        assert capsys.readouterr().out == _curve_text(_genfromtxt_curve(target))

    @pytest.mark.parametrize("name", ["series.csv", "series.csv.gz"], ids=["by_path", "by_handle"])
    @pytest.mark.parametrize("where", ["header", "body"])
    def test_text_that_is_not_utf8_fails_cleanly(self, where, name, tmp_path, capsys):
        # the body's bad byte lies past the header's read-ahead (8 KiB)
        rows = "".join(f"{i},{i % 7}.25\n" for i in range(4000)).encode("ascii")
        header = b"time_s,error_ns\n"
        text = b"time_s,err\xffor_ns\n" + rows if where == "header" else header + rows + b"9,\xff\n"
        src = tmp_path / name
        src.write_bytes(text)
        err = _assert_clean_failure(["adev", "--input", str(src)], capsys)
        assert err == f"error: {src}: not UTF-8 text"

    def test_bad_cell_before_text_that_is_not_utf8_fails_cleanly(self, tmp_path, capsys):
        # finding the bad cell's line reads on, past the bad byte
        rows = "".join(f"{i},{i % 7}.25\n" for i in range(1, 200_001)).encode("ascii")
        src = tmp_path / "series.csv"
        src.write_bytes(b"time_s,error_ns\n0,x\n" + rows + b"9,\xff\n")
        err = _assert_clean_failure(["adev", "--input", str(src), "--tau0", "1"], capsys)
        assert err == f"error: {src}: not UTF-8 text"

    def test_gzip_compressed_input_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "series.csv.gz"
        src.write_bytes(gzip.compress(_PARITY_CASES["comment_lines"].encode("ascii")))
        err = _assert_clean_failure(["adev", "--input", str(src)], capsys)
        assert err == f"error: {src}: not UTF-8 text"

    @pytest.mark.parametrize("tau0", ["inf", "-inf", "nan"])
    def test_non_finite_tau0_fails_cleanly(self, tau0, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("time_s,error_ns\n" + "".join(f"{t},{v}\n" for t, v in _ROWS))
        _assert_clean_failure(["adev", "--input", str(src), f"--tau0={tau0}"], capsys)

    @pytest.mark.parametrize("tau0", ["0", "-1", "nan"])
    def test_tau0_not_above_zero_named(self, tau0, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("time_s,error_ns\n" + "".join(f"{t},{v}\n" for t, v in _ROWS))
        err = _assert_clean_failure(["adev", "--input", str(src), f"--tau0={tau0}"], capsys)
        assert err == f"error: --tau0 must be finite and > 0, got {float(tau0)!r}"

    def test_decreasing_time_step_named(self, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("time_s,error_ns\n1,1.0\n0,2.0\n2,0.5\n")
        err = _assert_clean_failure(["adev", "--input", str(src)], capsys)
        assert err == "error: the time_s step must be finite and > 0, got -1.0"

    @pytest.mark.parametrize("tau0", ["1e-320", "1e-170"])
    def test_tau0_whose_square_underflows_named(self, tau0, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("time_s,error_ns\n" + "".join(f"{t},{v}\n" for t, v in _ROWS))
        err = _assert_clean_failure(["adev", "--input", str(src), "--tau0", tau0], capsys)
        assert err.startswith("error: --tau0 must be >= 2**-511 s") and err.endswith(tau0)

    def test_time_step_whose_square_underflows_named(self, tmp_path, capsys):
        src = tmp_path / "series.csv"
        rows = "".join(f"{i}e-320,{v}\n" for i, v in enumerate(_VALUES))
        src.write_text("time_s,error_ns\n" + rows)
        err = _assert_clean_failure(["adev", "--input", str(src)], capsys)
        assert err.startswith("error: the time_s step must be >= 2**-511 s")

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

    def test_defaults_are_channel_params(self, tmp_path):
        dest = tmp_path / "budget.csv"
        assert main(["linkbudget", "--csv", str(dest)]) == 0
        assert dest.read_text() == report_csv(feasibility_report(ChannelParams()))

    def test_dead_time_converts_exactly(self, tmp_path):
        dest = tmp_path / "budget.csv"
        argv = ["linkbudget", "--loss-db", "13.5", "--mu", "0.5", "--dead-time-us", "25"]
        assert main([*argv, "--csv", str(dest)]) == 0
        params = ChannelParams(loss_db=13.5, mean_photon_mu=0.5, dead_time_s=25e-6)
        assert dest.read_text() == report_csv(feasibility_report(params))

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rep-rate-hz", "1e-320"], "background_per_pulse must be finite, got inf"),
            (["--dead-time-us", "1e-305"], "saturation_cps must be finite, got inf"),
            (
                ["--mu", "1e308", "--loss-db", "0", "--efficiency", "1"],
                "total_rate_cps must be finite, got nan",
            ),
        ],
    )
    def test_overflowing_report_fails_cleanly(self, argv, message, tmp_path, capsys):
        dest = tmp_path / "budget.csv"
        line = _assert_clean_failure(["linkbudget", *argv, "--csv", str(dest)], capsys)
        assert line == f"error: LinkBudgetReport.{message}"
        assert not dest.exists()
