"""Self-tests of the benchmark harness, run at the tiny input size.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from timecloak import cli, noise  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_script(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    t0 = time.perf_counter()
    proc = _run_script(ROOT, workload, trace)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 15, f"tiny run took {elapsed:.1f} s"
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    report = json.loads(report_line.removeprefix("report: "))
    assert report["env"]["input_size"] and report["env"]["seed"] == 2
    if trace:
        # every wrapped entry point of the workload was entered
        assert report["missing"] == {}


def test_wrong_digest_is_counted_as_failure():
    report, result, _ = run.run_benchmark(
        "keyed_codec_32k", 2, 0.2, trace=False, tiny=True, reference={"encrypted": "0" * 64}
    )
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"] and report["failed_frac"] == 1.0


def _after_warm_up(original, damage, calls_per_iteration):
    """Wrap original so that every call after the set-up warm-ups is damaged."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        value = original(*args, **kwargs)
        warm = len(calls) <= run.SETUP_REPEATS * calls_per_iteration
        return value if warm else damage(value)

    return wrapper


def _corrupt_tic1(written):
    tic1 = next(p for p in written if p.name == "tic1.csv")
    tic1.write_bytes(tic1.read_bytes() + b"0,0.0,0.0\n")
    return written


def _shift_series(series):
    return type(series)(series.samples_ns + 1.0, series.tau0_s)


def _raise(_):
    raise OSError("disk full")


@pytest.mark.parametrize(
    "workload, module, attr, damage, calls",
    [
        ("run_32k", cli, "emit_outputs", _corrupt_tic1, 1),  # output differs from the first one
        ("keyed_codec_32k", noise, "apply_schedule", _shift_series, 16),  # codec invariant breaks
        ("run_32k", cli, "emit_outputs", _raise, 1),  # exception -> non-zero exit code
    ],
)
def test_damaged_output_is_counted_as_failure(monkeypatch, workload, module, attr, damage, calls):
    monkeypatch.setattr(module, attr, _after_warm_up(getattr(module, attr), damage, calls))
    report, result, _ = run.run_benchmark(workload, 2, 0.2, trace=False, tiny=True)
    assert result["failed"] == result["attempted"] >= 1
    assert report["failed_frac"] == 1.0 and report["errors"]


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run._tail([float(i) for i in range(25, 0, -1)])
    assert (value, percentile) == (15.0, 60.0)


def test_traced_run_reports_a_renamed_entry_point_as_missing(monkeypatch):
    points = workloads.Adev512k.ENTRY_POINTS + (
        tracing.EntryPoint("timecloak.stability", "no_such_function", "stability.fit"),
    )
    monkeypatch.setattr(workloads.Adev512k, "ENTRY_POINTS", points)
    report, result, _ = run.run_benchmark("adev_512k", 2, 0.2, trace=True, tiny=True)
    assert "stability.fit_s" in report["missing"]
    assert "stability.fit_s" not in result["metrics"]
    assert result["metrics"]["stability.adev_s"]["value"] > 0


def test_fails_without_a_result_where_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_script(tmp_path, "run_32k", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
