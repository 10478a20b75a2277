"""End-to-end round-trip experiment.

A reference clock at site B is carried to site A over one synchronization
hop, phase-encrypted at A from shared key material, carried back over a
second hop, and monitored at B against the original reference on two
counters: the decrypted path (the phase shift is compensated from the same
key) and the encrypted path (no compensation). Shifting the outbound
carrier by minus the scheduled phase parks its timing edges later, so on
the measured-delay series the encoder adds the per-dwell delay and the
decoder removes it.

An optional leading calibration window keeps encryption off for its first
steps so the constant hardware bias can be estimated from the encrypted
counter alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ExperimentConfig
from .keys import HexKeyStream, load_keys, mock_qkd_source
from .noise import NoiseKind, PhaseSchedule, apply_schedule, generate_schedule, parse_noise_kind
from .stability import AdevCurve, TimeErrorSeries, fit_loglog_slope, overlapping_adev
from .tables import write_csv_pair, write_text
from .wrptp import run_sync_session

DEFAULT_SWEEP_BOUND_DEG = 360.0


@dataclass(frozen=True)
class ExperimentSummary:
    tic1_mean_ns: float
    tic1_std_ns: float
    tic2_mean_ns: float
    tic2_std_ns: float
    adev_ratio_tau0: float
    tic1_slope: float
    tic2_slope: float
    calib_bias_total_ns: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    schedule: PhaseSchedule
    tic1_series: TimeErrorSeries
    tic2_series: TimeErrorSeries
    adev1: AdevCurve
    adev2: AdevCurve
    summary: ExperimentSummary


def _key_stream(config: ExperimentConfig) -> HexKeyStream:
    if config.key_source == "file":
        return load_keys(config.key_path)
    needed = config.model.digits_per_step * config.n_encrypted_steps
    return mock_qkd_source(config.key_seed, max(needed, 1))


def build_schedule(config: ExperimentConfig) -> PhaseSchedule:
    """Key-derived schedule for the encrypted steps, with zero phases
    (encryption off) filling the leading calibration window."""
    stream = _key_stream(config)
    generated = generate_schedule(
        stream,
        config.model,
        config.n_encrypted_steps,
        dwell_s=config.dwell_s,
        carrier_hz=config.carrier_hz,
    )
    phases = np.concatenate((np.zeros(config.calib_window_steps), generated.phases))
    return PhaseSchedule(phases, config.dwell_s, config.carrier_hz)


def _safe_slope(curve: AdevCurve) -> float:
    try:
        return fit_loglog_slope(curve)
    except ValueError:
        return math.nan


@np.errstate(over="raise", invalid="raise", divide="raise")
def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full chain and analyze both monitoring paths. Finite inputs
    whose arithmetic overflows raise FloatingPointError."""
    n = config.n_steps
    schedule = build_schedule(config)

    hop1, hop2 = (
        run_sync_session(hop, n, config.dwell_s, rng=np.random.default_rng((config.seed, salt)))
        for salt, hop in ((1, config.hop1), (2, config.hop2))
    )
    base = TimeErrorSeries(hop1.samples_ns + hop2.samples_ns, config.dwell_s)

    tic2 = apply_schedule(base, schedule, +1)
    decrypted = apply_schedule(tic2, schedule, -1)
    if config.tic_jitter_ns > 0:
        rng = np.random.default_rng((config.seed, 3))
        tic1 = TimeErrorSeries(
            decrypted.samples_ns + rng.normal(0.0, config.tic_jitter_ns, n), config.dwell_s
        )
    else:
        tic1 = decrypted

    adev1 = overlapping_adev(tic1)
    adev2 = overlapping_adev(tic2)
    ratio = (
        float(adev2.adev[0] / adev1.adev[0]) if adev1.adev[0] > 0 else math.inf
    )
    summary = ExperimentSummary(
        tic1_mean_ns=float(tic1.samples_ns.mean()),
        tic1_std_ns=float(tic1.samples_ns.std()),
        tic2_mean_ns=float(tic2.samples_ns.mean()),
        tic2_std_ns=float(tic2.samples_ns.std()),
        adev_ratio_tau0=ratio,
        tic1_slope=_safe_slope(adev1),
        tic2_slope=_safe_slope(adev2),
        calib_bias_total_ns=config.hop1.bias_ns + config.hop2.bias_ns,
    )
    return ExperimentResult(config, schedule, tic1, tic2, adev1, adev2, summary)


def calibration_window(result: ExperimentResult) -> float:
    """Bias estimate: mean of the encrypted-path series over the run's
    leading unencrypted window of calib.window_steps steps."""
    n_steps = result.config.calib_window_steps  # the config keeps it below the run's length
    if n_steps == 0:
        raise ValueError("calib.window_steps is 0: the run has no calibration window")
    return float(result.tic2_series.samples_ns[:n_steps].mean())


def sweep_noise_models(
    base_config: ExperimentConfig,
    kinds: Iterable[str | NoiseKind],
    bounded_options: Iterable[bool] = (False, True),
) -> dict[tuple[str, bool], ExperimentResult]:
    """One experiment per distinct (kind, bounded) pair, in first-seen order,
    sharing the base config's seeds so the runs are directly comparable.
    Bounded runs use the base config's model.bound_deg, or
    DEFAULT_SWEEP_BOUND_DEG when it is unset."""
    bound_deg = base_config.model.bound_deg or DEFAULT_SWEEP_BOUND_DEG  # a set bound is > 0
    # an alias or a repeat names a run already in the sweep
    kinds = dict.fromkeys(parse_noise_kind(k) if isinstance(k, str) else k for k in kinds)
    bounded_options = dict.fromkeys(bounded_options)
    results: dict[tuple[str, bool], ExperimentResult] = {}
    for kind in kinds:
        for bounded in bounded_options:
            model = replace(base_config.model, kind=kind, bound_deg=bound_deg if bounded else None)
            results[(kind.value, bounded)] = run_experiment(replace(base_config, model=model))
    return results


_FIG_DELAYS_GP = """\
set datafile separator ","
set xlabel "time (s)"
set ylabel "measured delay (ns)"
set key outside
plot "tic2.csv" skip 1 using 2:3 with points pt 7 ps 0.3 title "encrypted", \\
     "tic1.csv" skip 1 using 2:3 with points pt 7 ps 0.3 title "decrypted"
"""

_FIG_ADEV_GP = """\
set datafile separator ","
set logscale xy
set xlabel "averaging time (s)"
set ylabel "Allan deviation"
set key outside
plot "adev2.csv" skip 1 using 1:2:3 with yerrorlines title "encrypted", \\
     "adev1.csv" skip 1 using 1:2:3 with yerrorlines title "decrypted"
"""


def _summary_text(summary: ExperimentSummary) -> str:
    return (
        f"tic1_mean_ns = {summary.tic1_mean_ns!r}\n"
        f"tic1_std_ns = {summary.tic1_std_ns!r}\n"
        f"tic2_mean_ns = {summary.tic2_mean_ns!r}\n"
        f"tic2_std_ns = {summary.tic2_std_ns!r}\n"
        f"adev_ratio_tau0 = {summary.adev_ratio_tau0:.3g}\n"
        f"tic1_slope = {summary.tic1_slope!r}\n"
        f"tic2_slope = {summary.tic2_slope!r}\n"
        f"calib_bias_total_ns = {summary.calib_bias_total_ns!r}\n"
    )


def emit_outputs(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write the experiment artifacts into a directory.

    Produces tic1.csv, tic2.csv, adev1.csv, adev2.csv, summary.txt and one
    gnuplot script per figure analog. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "tic1.csv", out / "tic2.csv"]  # emit() appends the other files

    def emit(name: str, text: str) -> None:
        path = out / name
        write_text(path, text)
        written.append(path)

    # both tic series come from run_experiment: equally long, one tau0
    tau0, n = result.tic1_series.tau0_s, len(result.tic1_series)
    # whole products below 2**53 are exact, and repr writes them as integer + ".0"
    if tau0.is_integer() and (n - 1) * (t := int(tau0)) < 2**53:
        prefixes = (f"{i},{i * t}.0," for i in range(n))
    else:
        prefixes = (f"{i},{i * tau0!r}," for i in range(n))
    # iterating a buffer yields Python floats without a full-length list
    lasts = [map(repr, s.samples_ns.data) for s in (result.tic1_series, result.tic2_series)]
    write_csv_pair(written, "step_index,time_s,error_ns", prefixes, lasts)
    # each other file's text is built when its turn comes and freed once written
    emit("adev1.csv", result.adev1.csv_text())
    emit("adev2.csv", result.adev2.csv_text())
    emit("summary.txt", _summary_text(result.summary))
    emit("fig_delays.gp", _FIG_DELAYS_GP)
    emit("fig_adev.gp", _FIG_ADEV_GP)
    return written
