"""Golden outputs: SHA-256 of every file `emit_outputs` writes for a fixed
config matrix, compared with the digests stored in tests/golden/.

The matrix covers the four noise kinds, each unbounded and bounded; the
lag and memory walks started at 1e17 degrees, where small steps are
absorbed (the lag walk is then built by rw_lag_step); one config with
noisy, quantized hops, one with the benchmark's noisy integer-ns hops,
one whose epochs pass 2**53 ns and one with a calibration window. The
`timecloak adev` cases hash the curve it writes to a file and to standard
output for a fixed series, with tau0 inferred from its time_s column and
given by --tau0; their digests are in tests/golden/adev_digests.json. The writer
cases hash the files no run writes: the `timecloak linkbudget` report on
standard output and in its --csv file and a `timecloak keygen` key file,
plus the float64 bytes of phase schedules and of hop-session residuals,
which pin the schedule and session kernels bit for bit; their digests are
in tests/golden/writer_digests.json. The sweep case hashes every file
and the standard output of one small `timecloak sweep` over all four
kinds, bounded and unbounded, with noisy hops, counter jitter and a
calibration window; its digests are in tests/golden/sweep_digests.json.
A refactor that changes any emitted byte fails here. To re-record after a
change that is meant to alter outputs (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from timecloak import stability
from timecloak.cli import main
from timecloak.config import ExperimentConfig, HopConfig
from timecloak.experiment import emit_outputs, run_experiment
from timecloak.keys import mock_qkd_source
from timecloak.noise import NoiseKind, NoiseModelSpec, PhaseSchedule, generate_schedule
from timecloak.wrptp import run_sync_session

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
ADEV_GOLDEN_PATH = Path(__file__).parent / "golden" / "adev_digests.json"
WRITER_GOLDEN_PATH = Path(__file__).parent / "golden" / "writer_digests.json"
SWEEP_GOLDEN_PATH = Path(__file__).parent / "golden" / "sweep_digests.json"
N_DWELLS = 2000
DWELL_S = 5.0


def _config(model: NoiseModelSpec, **kwargs) -> ExperimentConfig:
    defaults = dict(duration_s=N_DWELLS * DWELL_S, dwell_s=DWELL_S, seed=11, key_seed=12)
    defaults.update(kwargs)
    return ExperimentConfig(model=model, **defaults)


def _cases() -> dict[str, ExperimentConfig]:
    cases = {}
    for kind in NoiseKind:
        for bound in (None, 360.0):
            label = "bounded" if bound else "unbounded"
            model = NoiseModelSpec(kind=kind, lag=100, memory=10, bound_deg=bound)
            cases[f"{kind.value}_{label}"] = _config(model)
    # near 1e17 one ulp is 16 degrees, so the small steps vanish
    for kind in (NoiseKind.RW_LAG, NoiseKind.RW_MEMORY):
        model = NoiseModelSpec(kind=kind, lag=100, memory=10, bias_deg=1e17, bound_deg=360.0)
        cases[f"{kind.value}_absorbed_bounded"] = _config(model)
    cases["rw_noisy_quantized_hops"] = _config(
        NoiseModelSpec(kind=NoiseKind.RANDOM_WALK),
        hop1=HopConfig(
            delay_forward_ns=5000,
            delay_backward_ns=5020,
            jitter_ns=0.7,
            quantization_ns=8,
            gain=0.7,
            turnaround_ns=1234.5,
            bias_ns=12.0,
        ),
        hop2=HopConfig(delay_forward_ns=60, delay_backward_ns=40, jitter_ns=2.5, gain=1.9),
    )
    # the benchmark's headline hops: noisy, asymmetric hop 1, integer-ns timestamps
    headline_hop = dict(jitter_ns=0.1, gain=0.7, bias_ns=12.0)
    cases["rw_noisy_integer_ns_hops"] = _config(
        NoiseModelSpec(kind=NoiseKind.RANDOM_WALK),
        calib_window_steps=200,
        hop1=HopConfig(delay_forward_ns=5000.0, delay_backward_ns=5020.0, **headline_hop),
        hop2=HopConfig(**headline_hop),
    )
    # 100 dwells of 1e5 s: the last epochs pass 2**53 ns
    cases["rw_long_epochs"] = _config(
        NoiseModelSpec(kind=NoiseKind.RANDOM_WALK),
        dwell_s=1e5,
        duration_s=1e7,
        hop1=HopConfig(delay_forward_ns=5000.0, delay_backward_ns=5020.0, **headline_hop),
        hop2=HopConfig(delay_forward_ns=60.0, delay_backward_ns=40.0, jitter_ns=2.5),
    )
    cases["white_calibration_window"] = _config(
        NoiseModelSpec(kind=NoiseKind.WHITE),
        calib_window_steps=200,
        hop1=HopConfig(jitter_ns=0.1, bias_ns=100.0),
        hop2=HopConfig(jitter_ns=0.1, bias_ns=29.188),
    )
    return cases


def emitted_digests(config: ExperimentConfig) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_outputs(run_experiment(config), tmp)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_matrix_matches_recorded_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_files_match_golden_digests(name, golden):
    assert emitted_digests(CASES[name]) == golden[name]


ADEV_ROWS = 8192
#: case name -> (write the curve with --out, --tau0 or None to infer it from time_s)
ADEV_CASES = {
    "out_inferred_tau0": (True, None),
    "stdout_inferred_tau0": (False, None),
    "stdout_tau0": (False, "2.5"),
}


def _adev_series_csv() -> str:
    """A white-phase series whose amplitude spans six decades, plus a slow
    walk, so the squared differences cover many binary exponents."""
    rng = np.random.default_rng(21)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, ADEV_ROWS)
    errors = rng.normal(0.0, 1.0, ADEV_ROWS) * scale + np.cumsum(rng.normal(0.0, 0.002, ADEV_ROWS))
    times = np.arange(ADEV_ROWS) * 0.25
    rows = [f"{t!r},{e!r}" for t, e in zip(times.tolist(), errors.tolist())]
    return "time_s,error_ns\n" + "\n".join(rows) + "\n"


def adev_digest(to_file: bool, tau0: str | None) -> str:
    """SHA-256 of the curve `timecloak adev` writes to --out or to stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        series.write_text(_adev_series_csv(), encoding="ascii")
        dest = Path(tmp) / "curve.csv"
        argv = ["adev", "--input", str(series)]
        argv += ["--out", str(dest)] if to_file else []
        argv += ["--tau0", tau0] if tau0 is not None else []
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        data = dest.read_bytes() if to_file else stdout.getvalue().encode("ascii")
        return hashlib.sha256(data).hexdigest()


def test_adev_cases_match_recorded_cases():
    assert sorted(json.loads(ADEV_GOLDEN_PATH.read_text())) == sorted(ADEV_CASES)


@pytest.mark.parametrize("name", sorted(ADEV_CASES))
def test_adev_output_matches_golden_digest(name):
    assert adev_digest(*ADEV_CASES[name]) == json.loads(ADEV_GOLDEN_PATH.read_text())[name]


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_adev_output_matches_golden_digest_at_any_block_size(monkeypatch, block):
    # blocks that split the series, at one term, a prime stride and a round size
    monkeypatch.setattr(stability, "_SUM_CHUNK", block)
    recorded = json.loads(ADEV_GOLDEN_PATH.read_text())
    assert {name: adev_digest(*case) for name, case in ADEV_CASES.items()} == recorded


def _session_bytes(hop, n_rounds, round_interval_s, rng=None) -> bytes:
    return run_sync_session(hop, n_rounds, round_interval_s, rng).samples_ns.tobytes()


def _schedule_bytes(kind: NoiseKind, bound: float | None) -> bytes:
    model = NoiseModelSpec(kind=kind, lag=100, memory=10, bound_deg=bound)
    stream = mock_qkd_source(13, model.digits_per_step * N_DWELLS)
    return generate_schedule(stream, model, N_DWELLS, dwell_s=DWELL_S).phases.tobytes()


def _cli_bytes(argv: list[str]) -> tuple[bytes, bytes]:
    """Standard output and --csv/--out file of one `timecloak` call."""
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([arg.format(dest=dest) for arg in argv]) == 0
        return stdout.getvalue().encode("ascii"), dest.read_bytes()


_LINKBUDGET_ARGV = ["linkbudget", "--loss-db", "13.5", "--mu", "0.5", "--csv", "{dest}"]


def _writer_cases() -> dict:
    """case name -> zero-argument callable returning the bytes to hash."""
    cases = {
        "session_noisy_quantized_asymmetric": lambda: _session_bytes(
            HopConfig(5000.0, 5020.0, 0.7, 8, 0.7, 1234.5, 12.0),
            500,
            0.5,
            rng=np.random.default_rng(31),
        ),
        # integer inputs still give float residuals
        "session_integer_inputs": lambda: _session_bytes(
            HopConfig(50, 60, gain=1, turnaround_ns=1000, bias_ns=7),
            50,
            2,
        ),
        # t1 passes 2**53, past which a float no longer holds every integer ns
        "session_t1_past_2_53": lambda: _session_bytes(
            HopConfig(7.0, quantization_ns=3, jitter_ns=0.3),
            40,
            1e8,
            rng=np.random.default_rng(5),
        ),
        "schedule_int_phases": lambda: PhaseSchedule((1, 2, -0.0), dwell_s=5).phases.tobytes(),
        "linkbudget_stdout": lambda: _cli_bytes(_LINKBUDGET_ARGV)[0],
        "linkbudget_csv": lambda: _cli_bytes(_LINKBUDGET_ARGV)[1],
        "keygen_file": lambda: _cli_bytes(
            ["keygen", "--seed", "17", "--digits", "1001", "--out", "{dest}"]
        )[1],
    }
    for kind in NoiseKind:
        for bound in (None, 360.0):
            label = "bounded" if bound else "unbounded"
            cases[f"schedule_{kind.value}_{label}"] = (
                lambda kind=kind, bound=bound: _schedule_bytes(kind, bound)
            )
    return cases


WRITER_CASES = _writer_cases()


def writer_digest(name: str) -> str:
    return hashlib.sha256(WRITER_CASES[name]()).hexdigest()


def test_writer_cases_match_recorded_cases():
    assert sorted(json.loads(WRITER_GOLDEN_PATH.read_text())) == sorted(WRITER_CASES)


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writer_output_matches_golden_digest(name):
    assert writer_digest(name) == json.loads(WRITER_GOLDEN_PATH.read_text())[name]


SWEEP_SETTINGS = {
    "duration_s": "1000",  # 200 dwells of 5 s
    "seed": "21",
    "key.seed": "22",
    "model.M": "30",
    "model.bound_deg": "90",
    "calib.window_steps": "40",
    "calib.bias_ns": "12",
    "tic.jitter_ns": "0.2",
    "link.jitter_ns": "0.4",
    "hop1.delay_fwd_ns": "5000",
    "hop1.delay_bwd_ns": "5020",
    "hop2.quantization_ns": "8",
}


def sweep_digests() -> dict[str, str]:
    """SHA-256 of the standard output and of every file of one `timecloak sweep`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep"
        argv = ["sweep", "--kinds", "white,rw,rw_lag,rw_mem", "--bounded", "both"]
        for key, value in SWEEP_SETTINGS.items():
            argv += ["--set", f"{key}={value}"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([*argv, "--out", str(out)]) == 0
        text = stdout.getvalue().replace(str(out), "OUT")  # its last line names the directory
        digests = {"stdout": hashlib.sha256(text.encode("ascii")).hexdigest()}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            name = path.relative_to(out).as_posix()
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests


def test_sweep_output_matches_golden_digests():
    assert sweep_digests() == json.loads(SWEEP_GOLDEN_PATH.read_text())


def _record() -> None:
    digests = {name: emitted_digests(config) for name, config in sorted(CASES.items())}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} cases in {GOLDEN_PATH}")
    adev = {name: adev_digest(*case) for name, case in sorted(ADEV_CASES.items())}
    ADEV_GOLDEN_PATH.write_text(json.dumps(adev, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(adev)} adev cases in {ADEV_GOLDEN_PATH}")
    writers = {name: writer_digest(name) for name in sorted(WRITER_CASES)}
    WRITER_GOLDEN_PATH.write_text(json.dumps(writers, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(writers)} writer cases in {WRITER_GOLDEN_PATH}")
    sweep = sweep_digests()
    SWEEP_GOLDEN_PATH.write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(sweep)} sweep outputs in {SWEEP_GOLDEN_PATH}")


if __name__ == "__main__":
    _record()
    sys.exit(0)
