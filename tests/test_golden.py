"""Golden outputs: SHA-256 of every file `emit_outputs` writes for a fixed
config matrix, compared with the digests stored in tests/golden/.

The matrix covers the four noise kinds, each unbounded and bounded, each
walk with its recursion on the bounded state, one config with noisy,
quantized hops and one with a calibration window. The `timecloak adev`
cases hash the curve it writes to a file and to standard output for a
fixed series, with tau0 inferred from its time_s column and given by
--tau0; their digests are in tests/golden/adev_digests.json. The writer
cases hash the files no run writes: hop-session CSVs, phase-schedule CSVs,
the `timecloak linkbudget` report on standard output and in its --csv
file, and a `timecloak keygen` key file; their digests are in
tests/golden/writer_digests.json. A refactor that changes any emitted
byte fails here. To re-record after a
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

from timecloak.cli import main
from timecloak.config import ExperimentConfig, HopConfig
from timecloak.experiment import emit_outputs, run_experiment
from timecloak.keys import mock_qkd_source
from timecloak.noise import NoiseKind, NoiseModelSpec, PhaseSchedule, generate_schedule
from timecloak.wrptp import SimClock, write_session_csv

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
ADEV_GOLDEN_PATH = Path(__file__).parent / "golden" / "adev_digests.json"
WRITER_GOLDEN_PATH = Path(__file__).parent / "golden" / "writer_digests.json"
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
    for kind in (NoiseKind.RANDOM_WALK, NoiseKind.RW_LAG, NoiseKind.RW_MEMORY):
        model = NoiseModelSpec(kind=kind, lag=100, memory=10, bound_deg=90.0, bound_recursion=True)
        cases[f"{kind.value}_bound_recursion"] = _config(model)
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


def _written_bytes(write) -> bytes:
    """Bytes that write(path) puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(path)
        return path.read_bytes()


def _session_bytes(master, slave, hop, n_rounds, round_interval_s, **kwargs) -> bytes:
    return _written_bytes(
        lambda path: write_session_csv(
            path, master, slave, hop, n_rounds, round_interval_s, **kwargs
        )
    )


def _schedule_bytes(kind: NoiseKind, bound: float | None) -> bytes:
    model = NoiseModelSpec(kind=kind, lag=100, memory=10, bound_deg=bound)
    stream = mock_qkd_source(13, model.digits_per_step * N_DWELLS)
    return _written_bytes(generate_schedule(stream, model, N_DWELLS, dwell_s=DWELL_S).write_csv)


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
        "session_noisy_quantized_unlocked": lambda: _session_bytes(
            SimClock(true_offset_ns=3.5, drift_ppb=20.0, jitter_ns_rms=0.3),
            SimClock(true_offset_ns=-250.0, drift_ppb=-40.0, jitter_ns_rms=0.2),
            HopConfig(
                delay_forward_ns=5000.0,
                delay_backward_ns=5020.0,
                jitter_ns=0.7,
                quantization_ns=8,
                gain=0.7,
                turnaround_ns=1234.5,
                bias_ns=12.0,
            ),
            500,
            0.5,
            synce_locked=False,
            rng=np.random.default_rng(31),
        ),
        # integer inputs still write float columns
        "session_int_inputs": lambda: _session_bytes(
            SimClock(true_offset_ns=3),
            SimClock(true_offset_ns=100, drift_ppb=7),
            HopConfig(
                delay_forward_ns=50, delay_backward_ns=60, gain=1, turnaround_ns=1000, bias_ns=7
            ),
            50,
            2,
            synce_locked=False,
        ),
        "schedule_int_phases": lambda: _written_bytes(
            PhaseSchedule((1, 2, -0.0), dwell_s=5).write_csv
        ),
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


if __name__ == "__main__":
    _record()
    sys.exit(0)
