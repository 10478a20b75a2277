import numpy as np

from timecloak.cli import main
from timecloak.keys import load_keys


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
        rows = ["idx,error_ns"] + [f"{i},{v!r}" for i, v in enumerate(rng.normal(0, 1, 64))]
        src.write_text("\n".join(rows) + "\n")
        dest = tmp_path / "curve.csv"
        assert main(["adev", "--input", str(src), "--tau0", "5", "--out", str(dest)]) == 0
        assert dest.read_text().startswith("tau_s,adev,sigma_adev")

    def test_missing_tau0_without_time_column(self, tmp_path):
        src = tmp_path / "series.csv"
        src.write_text("idx,error_ns\n0,1.0\n1,2.0\n2,0.5\n")
        assert main(["adev", "--input", str(src)]) == 2

    def test_missing_column(self, tmp_path):
        src = tmp_path / "series.csv"
        src.write_text("a,b\n1,2\n3,4\n5,6\n")
        assert main(["adev", "--input", str(src), "--tau0", "1"]) == 2


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
