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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ExperimentConfig
from .keys import HexKeyStream, load_keys, mock_qkd_source
from .noise import NoiseKind, PhaseSchedule, apply_schedule, generate_schedule, parse_noise_kind
from .stability import AdevCurve, TimeErrorSeries, fit_loglog_slope, overlapping_adev
from .tables import write_series_csvs, write_text
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
    return mock_qkd_source(config.key_seed, needed)


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


@contextmanager
def _computing(quantity: str):
    """Name the quantity being computed in an ArithmeticError raised inside."""
    try:
        yield
    except ArithmeticError as exc:  # finite inputs whose arithmetic overflows
        raise type(exc)(f"{quantity}: {exc}") from None


@_computing("hop1 + hop2 time error")
def _simulate_hops(config: ExperimentConfig) -> TimeErrorSeries:
    """Hop stage, which reads no noise model: both sessions' summed time error."""
    n = config.n_steps
    hop1, hop2 = (
        run_sync_session(hop, n, config.dwell_s, rng=np.random.default_rng((config.seed, salt)))
        for salt, hop in ((1, config.hop1), (2, config.hop2))
    )
    return TimeErrorSeries(hop1.samples_ns + hop2.samples_ns, config.dwell_s)


def _codec(config: ExperimentConfig, schedule: PhaseSchedule, base: TimeErrorSeries):
    """Codec stage: encrypt, decrypt, then add the counter jitter; returns tic1, tic2."""
    with _computing("tic2_series and tic1_series"):
        try:
            tic2 = apply_schedule(base, schedule, +1)
        except ValueError as exc:  # the schedule fits the series: a delay beyond the grid
            keys = "model.bound_deg, model.C, model.bias_deg and carrier_hz"
            raise ValueError(f"{exc}; {keys} set the delays") from None
        tic1 = apply_schedule(tic2, schedule, -1)
    if config.tic_jitter_ns > 0:
        rng = np.random.default_rng((config.seed, 3))
        with _computing("tic.jitter_ns counter jitter on tic1_series"):
            # Generator.normal(0.0, scale) bit for bit, under numpy's overflow check
            jitter = 0.0 + config.tic_jitter_ns * rng.standard_normal(config.n_steps)
            tic1 = TimeErrorSeries(tic1.samples_ns + jitter, config.dwell_s)
    return tic1, tic2


def _analyze(config: ExperimentConfig, schedule: PhaseSchedule, tic1, tic2) -> ExperimentResult:
    """Analysis stage: both Allan deviations and the summary."""
    with _computing("adev1"):
        adev1 = overlapping_adev(tic1)
    with _computing("adev2"):
        adev2 = overlapping_adev(tic2)
    with _computing("adev_ratio_tau0"):
        ratio = float(adev2.adev[0] / adev1.adev[0]) if adev1.adev[0] > 0 else math.inf
    moments = {}
    for label, series in (("tic1", tic1), ("tic2", tic2)):
        for stat in ("mean", "std"):
            field = f"{label}_{stat}_ns"
            with _computing(field):  # a sum or square of finite samples can overflow
                moments[field] = float(getattr(series.samples_ns, stat)())
    summary = ExperimentSummary(
        **moments,
        adev_ratio_tau0=ratio,
        tic1_slope=_safe_slope(adev1),
        tic2_slope=_safe_slope(adev2),
        calib_bias_total_ns=config.hop1.bias_ns + config.hop2.bias_ns,
    )
    return ExperimentResult(config, schedule, tic1, tic2, adev1, adev2, summary)


@np.errstate(over="raise", invalid="raise", divide="raise")
def _run_stages(configs: list[ExperimentConfig]) -> list[ExperimentResult]:
    """Each config's run, stage by stage. The configs differ at most in their
    noise model, which no hop reads, so the first config's hops serve all."""
    results, base = [], None
    for config in configs:
        schedule = build_schedule(config)
        if base is None:
            base = _simulate_hops(config)
        tic1, tic2 = _codec(config, schedule, base)
        results.append(_analyze(config, schedule, tic1, tic2))
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full chain and analyze both monitoring paths. Finite inputs
    whose arithmetic overflows raise FloatingPointError (OverflowError in
    Python float code); its message names the quantity being computed."""
    return _run_stages([config])[0]


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
    The runs share one hop simulation and differ only in their schedule.
    Bounded runs use the base config's model.bound_deg, or
    DEFAULT_SWEEP_BOUND_DEG when it is unset."""
    bound_deg = base_config.model.bound_deg or DEFAULT_SWEEP_BOUND_DEG  # a set bound is > 0
    bounded_options = tuple(bounded_options)
    configs: dict[tuple[str, bool], ExperimentConfig] = {}  # an alias or a repeat is a key again
    for kind in kinds:
        kind = parse_noise_kind(kind) if isinstance(kind, str) else kind
        for bounded in bounded_options:
            model = replace(base_config.model, kind=kind, bound_deg=bound_deg if bounded else None)
            configs[(kind.value, bounded)] = replace(base_config, model=model)
    return dict(zip(configs, _run_stages(list(configs.values()))))


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
    """One `name = value` line per field: its repr, the ratio's three digits."""
    return "".join(
        f"{name} = {value:.3g}\n" if name == "adev_ratio_tau0" else f"{name} = {value!r}\n"
        for name, value in asdict(summary).items()
    )


def emit_outputs(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write the experiment artifacts into a directory.

    Produces tic1.csv, tic2.csv, adev1.csv, adev2.csv, summary.txt and one
    gnuplot script per figure analog. Returns the written paths.
    """
    tic1, tic2 = result.tic1_series, result.tic2_series
    if tic1.tau0_s != tic2.tau0_s:  # both files' time_s cells come from one tau0
        raise ValueError(f"tic series differ in tau0_s: {tic1.tau0_s!r} and {tic2.tau0_s!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tics = [out / "tic1.csv", out / "tic2.csv"]
    write_series_csvs(tics, tic1.tau0_s, [tic1.samples_ns, tic2.samples_ns])
    texts = {
        "adev1.csv": result.adev1.csv_text(),
        "adev2.csv": result.adev2.csv_text(),
        "summary.txt": _summary_text(result.summary),
        "fig_delays.gp": _FIG_DELAYS_GP,
        "fig_adev.gp": _FIG_ADEV_GP,
    }
    for name, text in texts.items():
        write_text(out / name, text)
    return [*tics, *(out / name for name in texts)]
