"""Photon-counting feasibility arithmetic for the key-exchange channel.

Per-pulse quantities use the linear small-signal model (well justified at
operating points far below one count per pulse). The observed count rate at
the detector follows the usual non-paralyzable dead-time response, which
asymptotes at 1/dead_time. The verdict requires that the ungated stray load
(background plus intrinsic dark counts) stays below that saturation rate
and that the per-pulse signal dominates the per-pulse background.

Reference operating point of the channel class this models, for
documentation only: ~1.5 kbit/s delivered key rate at ~2% QBER.
"""
from __future__ import annotations

from dataclasses import dataclass

from .config import require_finite
from .tables import csv_text


@dataclass(frozen=True)
class ChannelParams:
    """Quantum-channel and detector parameters (defaults: the reference
    metropolitan link: 10 dB loss, 20% efficiency SPADs with 25 us dead
    time, 353 cps dark counts, 6500 cps stray background, 1 GHz pulses)."""

    loss_db: float = 10.0
    det_efficiency: float = 0.2
    dark_rate_cps: float = 353.0
    background_rate_cps: float = 6500.0
    rep_rate_hz: float = 1e9
    mean_photon_mu: float = 1.5
    dead_time_s: float = 25e-6

    def __post_init__(self) -> None:
        require_finite(self)
        if self.loss_db < 0:
            raise ValueError("loss_db must be >= 0")
        if not 0 < self.det_efficiency <= 1:
            raise ValueError("det_efficiency must be in (0, 1]")
        if self.dark_rate_cps < 0 or self.background_rate_cps < 0:
            raise ValueError("count rates must be >= 0")
        if not self.rep_rate_hz > 0:
            raise ValueError("rep_rate_hz must be > 0")
        if not self.mean_photon_mu > 0:
            raise ValueError("mean_photon_mu must be > 0")
        if not self.dead_time_s > 0:
            raise ValueError("dead_time_s must be > 0")


@dataclass(frozen=True)
class LinkBudgetReport:
    background_per_pulse: float
    signal_per_pulse: float
    total_rate_cps: float
    saturation_cps: float
    feasible: bool


def feasibility_report(params: ChannelParams) -> LinkBudgetReport:
    """Assemble the channel verdict.

    feasible requires the stray load (background + dark) below the
    saturation rate, the per-pulse signal above the per-pulse background,
    and the reported detector rate below saturation. The dead-time response
    stays below saturation only in exact arithmetic: at an extreme incident
    rate (mean_photon_mu=1e15 at 0 dB) it rounds to the saturation rate,
    and the last term alone makes the verdict infeasible. A value that
    overflows to inf or nan from finite parameters is a ValueError naming
    the first such field.
    """
    background_pp = params.background_rate_cps / params.rep_rate_hz
    signal_pp = params.mean_photon_mu * 10.0 ** (-params.loss_db / 10.0) * params.det_efficiency
    saturation = 1.0 / params.dead_time_s
    incident = (
        signal_pp * params.rep_rate_hz + params.background_rate_cps + params.dark_rate_cps
    )
    # the non-paralyzable dead-time response
    total = incident / (1.0 + incident * params.dead_time_s)
    stray = params.background_rate_cps + params.dark_rate_cps
    feasible = total < saturation and stray < saturation and signal_pp > background_pp
    report = LinkBudgetReport(
        background_per_pulse=background_pp,
        signal_per_pulse=signal_pp,
        total_rate_cps=total,
        saturation_cps=saturation,
        feasible=feasible,
    )
    require_finite(report)
    return report


def report_text(report: LinkBudgetReport) -> str:
    """Aligned text rendering of a report."""
    rows = [
        ("background_per_pulse", f"{report.background_per_pulse:.6g}"),
        ("signal_per_pulse", f"{report.signal_per_pulse:.6g}"),
        ("total_rate_cps", f"{report.total_rate_cps:.6g}"),
        ("saturation_cps", f"{report.saturation_cps:.6g}"),
        ("feasible", "yes" if report.feasible else "no"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def report_csv(report: LinkBudgetReport) -> str:
    """Two-line CSV rendering (header plus one row)."""
    header = "background_per_pulse,signal_per_pulse,total_rate_cps,saturation_cps,feasible"
    counts = (report.background_per_pulse, report.signal_per_pulse, report.total_rate_cps)
    row = [*map(repr, counts), repr(report.saturation_cps), "true" if report.feasible else "false"]
    return csv_text(header, *zip(row))  # one row: each column holds one cell
