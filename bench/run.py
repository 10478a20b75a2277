"""timecloak benchmark: one closed-loop workload per process.

Usage (from the repository root):

    python3 bench/run.py --workload run_32k --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up (imports, input generation from the seed and one warm-up iteration)
is repeated SETUP_REPEATS times and its median reported as ``setup_s``.
Then iterations run back to back, one client and no threads, until
``--seconds`` have passed. Times are scaled to a reference host speed (see
``_calibration_s``). Every iteration's outputs are checked; see README.md
for the checks, the metrics and how to compare two commits.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``report: {...}``) holds the environment record, tail percentile, digests
and the traced run's missing entry points. Both are also written, with the
spans of a traced run, to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"

#: the seed whose full-size output digests are stored in REFERENCE_FILE
DEFAULT_SEED = 1
SETUP_REPEATS = 3
#: a timing percentile is reported only with at least this many samples beyond it
TAIL_BEYOND = 10
#: size of the fixed pure-Python loop that measures the host's current speed
CALIBRATION_LOOPS = 150_000
#: that loop's time at the reference speed, to which all reported times are scaled
CALIBRATION_REF_S = 0.03


class SetupFailed(RuntimeError):
    """The warm-up iteration raised, so nothing can be measured."""


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _calibration_s() -> float:
    """Time of a fixed pure-Python loop: the host's current speed.

    On a shared host the speed of the same single-threaded work drifts by up
    to ~40% over tens of seconds, and every timing drifts with it. Each set-up
    and iteration is therefore timed between two calibrations and scaled by
    CALIBRATION_REF_S over their mean, so runs made at different moments
    compare. The unscaled medians are kept in the report.
    """
    t0 = time.perf_counter()
    total, pairs = 0.0, [None] * 1024  # allocates like the program, without growing
    for i in range(CALIBRATION_LOOPS):
        total += (i * 0.5) % 7.0
        pairs[i & 1023] = (i, total)
    return time.perf_counter() - t0


class _SpeedScale:
    """Scale factors from the calibrations taken between timed sections."""

    def __init__(self):
        self.samples = [_calibration_s()]
        self.factors: list[float] = []

    def next(self) -> float:
        self.samples.append(_calibration_s())
        self.factors.append(CALIBRATION_REF_S / ((self.samples[-2] + self.samples[-1]) / 2))
        return self.factors[-1]


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; with too few samples, the smallest sample (percentile 0)."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    percentile = 100.0 * rank / len(ordered) if len(ordered) > TAIL_BEYOND else 0.0
    return ordered[rank - 1], percentile


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "timecloak").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, size: dict) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "input_size": size,
    }


def _iteration(workload, tracer=None, index: int = 0):
    """One closed-loop iteration: (wall_s, cpu_s, digests or None, error or None)."""
    workload.prepare()
    gc.collect()
    if tracer is not None:
        tracer.install(index)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        workload.iterate()
        error = None
    except Exception:  # the loop must go on; the failure is counted and reported
        error = traceback.format_exc(limit=3)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    digests = None
    if error is None:
        try:
            digests = workload.check()
        except Exception:
            error = traceback.format_exc(limit=3)
    return wall, cpu, digests, error


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    reference: dict | None = None,
    import_s: float = 0.0,
) -> tuple[dict, dict, list[dict]]:
    """Set up and measure one workload. Returns (report, result, spans).

    reference holds the expected output digests; by default they are the
    stored ones for the default seed at full size, and otherwise the first
    warm-up iteration's.
    """
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    if reference is None and seed == DEFAULT_SEED and not tiny:
        reference = json.loads(REFERENCE_FILE.read_text())[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        setups, workload, expected, found, warm_errors = [], None, reference, None, []
        scale = _SpeedScale()
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = cls(seed, workdir, tiny)
            _, _, digests, error = _iteration(workload)
            setups.append(time.perf_counter() - t0)
            setup_scale = scale.next()
            if k == 0:
                import_s *= setup_scale
            setups[-1] *= setup_scale
            if error is not None:
                raise SetupFailed(f"warm-up iteration {k} of {name} failed:\n{error}")
            found = found or digests
            if expected is None:
                expected = digests
            elif digests != expected:
                warm_errors.append(f"warm-up {k}: digests differ in {_differing(digests, expected)}")

        tracer = tracing.Tracer(cls.ENTRY_POINTS) if trace else None
        walls, cpus, raw_walls, raw_cpus, factors = [], [], [], [], {}
        traced, untraced, errors = [], [], list(warm_errors)
        failed = 0
        start = time.perf_counter()
        while True:
            i = len(walls)
            on = tracer is not None and i % 2 == 1
            wall, cpu, digests, error = _iteration(workload, tracer if on else None, i)
            factors[i] = scale.next()
            if error is None and digests != expected:
                error = f"digests differ in {_differing(digests, expected)}"
            if error is not None:
                failed += 1
                errors.append(f"iteration {i}: {error}")
            raw_walls.append(wall)
            raw_cpus.append(cpu)
            walls.append(wall * factors[i])
            cpus.append(cpu * factors[i])
            (traced if on else untraced).append(i)
            if time.perf_counter() - start >= seconds and (tracer is None or len(walls) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(walls)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "env": environment(seed, workload.size),
        "iterations": attempted,
        "failed_frac": failed / attempted,
        "digests": found,
        "checked_against": "reference digests" if reference is not None else "first warm-up",
        "errors": errors[:5],
        "unscaled": {
            "wall_s": statistics.median(raw_walls),
            "cpu_s": statistics.median(raw_cpus),
            "speed_scale": statistics.median(scale.factors),
            "wall_samples": raw_walls,
            "calibration_samples": scale.samples,
            "setup_samples": [s / f for s, f in zip(setups, scale.factors)],
        },
        "import_s": import_s,
    }
    spans = []
    if tracer is None:
        tail, percentile = _tail(walls)
        report["wall_s_tail_percentile"] = percentile
        report["wall_s_tail_beyond"] = min(TAIL_BEYOND, attempted - 1)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "wall_s_tail": (tail, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (import_s + statistics.median(setups), "s"),
        }
    else:
        values, missing, not_exercised = tracing.layer_metrics(tracer, {i: factors[i] for i in traced})
        plain = statistics.median(walls[i] for i in untraced)
        values["trace.overhead_frac"] = (statistics.median(walls[i] for i in traced) - plain) / plain
        units = tracing.metric_units()
        metrics = {key: (value, units[key]) for key, value in values.items()}
        report["missing"] = missing
        report["not_exercised"] = not_exercised
        spans = tracer.records()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return report, result, spans


def _differing(digests: dict | None, expected: dict) -> list[str]:
    digests = digests or {}
    return sorted(k for k in expected.keys() | digests.keys() if digests.get(k) != expected.get(k))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Run one timecloak benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("run_32k", "keyed_codec_32k", "adev_512k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test size: 1/64 of every input"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "timecloak" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'timecloak'}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole run: the host's vCPUs run at different speeds,
        # so a migration between calibration and iteration would skew the scale
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import timecloak

    if Path(timecloak.__file__).resolve().parent != SRC / "timecloak":
        print(f"error: imported timecloak from {timecloak.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # noqa: F401  (numpy and the program: counted as import time)

    import_s = time.perf_counter() - t0
    try:
        report, result, spans = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, import_s=import_s
        )
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report["record"] = str(record.relative_to(ROOT))
    record.write_text(json.dumps({"report": report, "result": result, "spans": spans}) + "\n")
    print("report: " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
