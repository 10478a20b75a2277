"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in its constructor (set-up),
then runs iterations of ``prepare`` (untimed), ``iterate`` (timed: the calls
into the program) and ``check`` (untimed: invariants, then the SHA-256
digests of the outputs). The program only sees the generated inputs.

The benchmark's own calls go through module attributes (``keys.KmsStore``,
``noise.generate_schedule``, ``cli.main``), so the traced run's wrappers at
those names see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from timecloak import cli, keys, noise, stability
from tracing import EntryPoint


class CheckFailed(Exception):
    """An output invariant does not hold, or the program reported an error."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call_cli(argv: list[str]) -> None:
    """Run ``timecloak <argv>`` in-process; a non-zero exit is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    if code != 0:
        raise CheckFailed(f"timecloak {argv[0]} exited with {code}: {err.getvalue().strip()}")


# ---- counters attached to spans ------------------------------------------

def _digits(args, result):
    return {"digits": len(result)}


def _schedule(args, result):
    return {"steps": args["n_steps"], "kind": args["model"].kind.value}


def _rounds(args, result):
    return {"rounds": args["n_rounds"]}


def _adev_terms(args, result):
    n = len(args["series"])
    tau0 = args["series"].tau0_s
    terms = sum(n - 2 * round(tau / tau0) for tau in result.taus_s)
    return {"terms": terms, "samples": n}


def _bytes_written(args, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


# ---- run_32k ---------------------------------------------------------------

_RUN_CONFIG = """\
# headline experiment: rw key walk, asymmetric first hop, calibration window
key.source = mock
key.seed = {seed}
seed = {seed}
model.kind = rw
dwell_s = 5
duration_s = {duration_s}
link.jitter_ns = 0.1
servo.gain = 0.7
calib.bias_ns = 12
calib.window_steps = 200
hop1.delay_fwd_ns = 5000
hop1.delay_bwd_ns = 5020
"""


class Run32k:
    """``timecloak run`` through ``cli.main`` on a 32,000-dwell config."""

    name = "run_32k"
    FILES = (
        "adev1.csv", "adev2.csv", "fig_adev.gp", "fig_delays.gp",
        "summary.txt", "tic1.csv", "tic2.csv",
    )
    ENTRY_POINTS = (
        EntryPoint("timecloak.cli", "main", "cli.main"),
        EntryPoint("timecloak.cli", "load_config_file", "config.build"),
        EntryPoint("timecloak.cli", "parse_overrides", "config.build"),
        EntryPoint("timecloak.cli", "build_experiment_config", "config.build"),
        EntryPoint("timecloak.cli", "run_experiment", "experiment.run"),
        EntryPoint("timecloak.experiment", "build_schedule", "experiment.schedule"),
        EntryPoint("timecloak.experiment", "mock_qkd_source", "keys.source", _digits),
        EntryPoint("timecloak.experiment", "generate_schedule", "noise.schedule", _schedule),
        EntryPoint("timecloak.experiment", "run_sync_session", "wrptp.session", _rounds),
        EntryPoint("timecloak.experiment", "apply_schedule", "noise.codec"),
        EntryPoint("timecloak.experiment", "overlapping_adev", "stability.adev", _adev_terms),
        EntryPoint("timecloak.experiment", "fit_loglog_slope", "stability.fit"),
        EntryPoint("timecloak.cli", "emit_outputs", "experiment.emit", _bytes_written),
    )

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.dwells = 500 if tiny else 32_000
        self.config = workdir / "run.cfg"
        self.out = workdir / "out"
        self.config.write_text(_RUN_CONFIG.format(seed=seed, duration_s=5 * self.dwells))

    @property
    def size(self) -> dict:
        return {"dwells": self.dwells}

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def iterate(self) -> None:
        _call_cli(["run", "--config", str(self.config), "--out", str(self.out)])

    def check(self) -> dict[str, str]:
        written = sorted(p.name for p in self.out.iterdir())
        if written != list(self.FILES):
            raise CheckFailed(f"expected files {self.FILES}, found {written}")
        summary = dict(
            line.split(" = ", 1) for line in (self.out / "summary.txt").read_text().splitlines()
        )
        ratio = float(summary["adev_ratio_tau0"])
        if not ratio >= 10:
            raise CheckFailed(f"adev_ratio_tau0 = {ratio}, expected >= 10")
        return {name: _sha256((self.out / name).read_bytes()) for name in self.FILES}


# ---- keyed_codec_32k -------------------------------------------------------

_DWELL_S = 5.0
_LAG_M = 100
_MEMORY_S = 10
_BOUNDS = (None, 360.0)


class KeyedCodec32k:
    """Two-site key path: a directory-backed store written by party A and
    reopened by party B, one schedule per party per key, then encrypt with
    A's schedule and decrypt with B's."""

    name = "keyed_codec_32k"
    ENTRY_POINTS = (
        EntryPoint("timecloak.keys", "mock_qkd_source", "keys.source", _digits),
        EntryPoint("timecloak.keys", "KmsStore.add", "keys.store"),
        EntryPoint("timecloak.keys", "KmsStore.open_dir", "keys.store"),
        EntryPoint("timecloak.keys", "KmsStore.get", "keys.store", _digits),
        EntryPoint("timecloak.keys", "load_keys", "keys.parse"),
        EntryPoint("timecloak.noise", "generate_schedule", "noise.schedule", _schedule),
        EntryPoint("timecloak.noise", "apply_schedule", "noise.codec"),
    )

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.steps = 500 if tiny else 32_000
        self.seed = seed
        self.store_dir = workdir / "store"
        self.models = [
            noise.NoiseModelSpec(kind=kind, lag=_LAG_M, memory=_MEMORY_S, bound_deg=bound)
            for kind in noise.NoiseKind
            for bound in _BOUNDS
        ]
        # integer-valued samples: the codec round trip is only bit-exact for these
        rng = np.random.default_rng((seed, 1))
        samples = rng.integers(-1_000_000, 1_000_000, self.steps).astype(np.float64)
        self.base = stability.TimeErrorSeries(samples, _DWELL_S)
        self._last = None

    @property
    def size(self) -> dict:
        return {"steps": self.steps, "keys": len(self.models)}

    def prepare(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self._last = None

    def iterate(self) -> None:
        store_a = keys.KmsStore(self.store_dir)
        key_ids = []
        for j, model in enumerate(self.models):
            stream = keys.mock_qkd_source(
                self.seed * len(self.models) + j, model.digits_per_step * self.steps
            )
            store_a.add(stream)
            key_ids.append(stream.key_id)
        store_b = keys.KmsStore.open_dir(self.store_dir)
        runs = []
        for key_id, model in zip(key_ids, self.models):
            schedule_a = noise.generate_schedule(
                store_a.get(key_id, "A"), model, self.steps, dwell_s=_DWELL_S
            )
            schedule_b = noise.generate_schedule(
                store_b.get(key_id, "B"), model, self.steps, dwell_s=_DWELL_S
            )
            encrypted = noise.apply_schedule(self.base, schedule_a, +1)
            decrypted = noise.apply_schedule(encrypted, schedule_b, -1)
            runs.append((schedule_a, schedule_b, encrypted, decrypted))
        self._last = (store_a, store_b, key_ids, runs)

    def check(self) -> dict[str, str]:
        store_a, store_b, key_ids, runs = self._last
        base = self.base.samples_ns.tobytes()
        for key_id, (schedule_a, schedule_b, _, decrypted) in zip(key_ids, runs):
            if schedule_a.phases_deg != schedule_b.phases_deg:
                raise CheckFailed(f"{key_id}: party schedules differ")
            if decrypted.samples_ns.tobytes() != base:
                raise CheckFailed(f"{key_id}: decrypt(encrypt(x)) != x")
        for store, party in ((store_a, "A"), (store_b, "B")):
            try:
                store.get(key_ids[0], party)
            except keys.KeyConsumedError:
                continue
            raise CheckFailed(f"party {party} retrieved {key_ids[0]} twice")
        encrypted = b"".join(run[2].samples_ns.tobytes() for run in runs)
        return {"encrypted": _sha256(encrypted)}


# ---- adev_512k ---------------------------------------------------------------

class Adev512k:
    """``timecloak adev`` through ``cli.main`` on six days of 1 PPS counter
    readings, then the slope fit, noise class and decorrelation lag."""

    name = "adev_512k"
    ENTRY_POINTS = (
        EntryPoint("timecloak.cli", "main", "cli.main"),
        EntryPoint("timecloak.cli", "overlapping_adev", "stability.adev", _adev_terms),
        EntryPoint("timecloak.stability", "fit_loglog_slope", "stability.fit"),
        EntryPoint("timecloak.stability", "classify_noise", "stability.fit"),
        EntryPoint("timecloak.stability", "decorrelation_steps", "stability.decorr"),
    )

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.rows = 8192 if tiny else 524_288
        self.csv = workdir / "series.csv"
        self.curve = workdir / "curve.csv"
        rng = np.random.default_rng((seed, 2))
        # white phase (50 ps rms) plus a slow walk, read out at 1 ps resolution
        readings = rng.normal(0.0, 0.05, self.rows) + np.cumsum(rng.normal(0.0, 0.002, self.rows))
        text = [f"{value:.3f}" for value in readings]
        with open(self.csv, "w", encoding="ascii", newline="\n") as fh:
            fh.write("time_s,error_ns\n")
            fh.writelines(f"{i},{value}\n" for i, value in enumerate(text))
        self.series = stability.TimeErrorSeries(np.array([float(v) for v in text]), 1.0)
        self._analysis = None

    @property
    def size(self) -> dict:
        return {"rows": self.rows}

    def prepare(self) -> None:
        self.curve.unlink(missing_ok=True)
        self._analysis = None

    def iterate(self) -> None:
        _call_cli(["adev", "--input", str(self.csv), "--tau0", "1", "--out", str(self.curve)])
        table = np.loadtxt(self.curve, delimiter=",", skiprows=1, ndmin=2)
        curve = stability.AdevCurve(table[:, 0], table[:, 1], table[:, 2])
        slope = stability.fit_loglog_slope(curve)
        noise_class = stability.classify_noise(slope)
        lag = stability.decorrelation_steps(self.series)
        self._analysis = f"{slope!r},{noise_class.value},{lag}"

    def check(self) -> dict[str, str]:
        curve = self.curve.read_bytes()
        points = curve.count(b"\n") - 1
        if points != len(stability.default_m_values(self.rows)):
            raise CheckFailed(f"curve.csv has {points} points")
        return {"curve.csv": _sha256(curve), "analysis": _sha256(self._analysis.encode())}


WORKLOADS = {w.name: w for w in (Run32k, KeyedCodec32k, Adev512k)}
