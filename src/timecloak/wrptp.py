"""Master/Slave timestamp-exchange simulation.

One synchronization round exchanges four timestamps over a configurable
link; the slave recovers the line delay and its clock offset from

    D = ((t4 - t1) - (t3 - t2)) / 2
    O = (t2 - t1) - D

and corrects itself with a proportional servo. Timestamps are integer
nanoseconds (optionally coarser when a quantization step is set, the
plain-counter pole of the phase-detector model); sub-nanosecond effects
enter only through jitter draws before rounding. Frequency transfer is
modeled as the slave sharing the master's drift while a session runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .stability import TimeErrorSeries
from .tables import csv_text, write_text

if TYPE_CHECKING:
    from .config import HopConfig


def require_finite(obj, error: type[ValueError] = ValueError) -> None:
    """Reject NaN and +-inf in every float field of a dataclass."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{type(obj).__name__}.{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SimClock:
    """A clock described by its offset from the reference, fractional
    frequency offset, and white timestamping noise."""

    true_offset_ns: float = 0.0
    drift_ppb: float = 0.0
    jitter_ns_rms: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.jitter_ns_rms < 0:
            raise ValueError("jitter_ns_rms must be >= 0")


class WrTimestampQuartet(NamedTuple):
    """The four timestamps of one exchange: t1/t4 in the master timebase,
    t2/t3 in the slave timebase, all integer nanoseconds."""

    t1: int
    t2: int
    t3: int
    t4: int


def _quantize(value_ns: float, quantization_ns: int) -> int:
    if quantization_ns > 0:
        return int(round(value_ns / quantization_ns)) * quantization_ns
    return int(round(value_ns))


def exchange(
    master: SimClock,
    slave: SimClock,
    hop: HopConfig,
    epoch_ns: int,
    rng: np.random.Generator | None = None,
) -> WrTimestampQuartet:
    """Simulate one timestamp exchange over a hop starting at master time
    epoch_ns; the slave replies hop.turnaround_ns after it receives.

    Reception timestamps (t2, t4) pick up link noise plus the receiving
    clock's own timestamping noise; every timestamp is quantized to the
    hop's granularity. A noisy exchange needs a generator; callers running
    many exchanges share one, so that draws never repeat between calls.

    This is the single-step reference that the session kernel behind
    run_sync_session and write_session_csv reproduces round by round.
    """
    if epoch_ns < 0:
        raise ValueError("epoch_ns must be >= 0")
    noisy = hop.jitter_ns > 0 or master.jitter_ns_rms > 0 or slave.jitter_ns_rms > 0
    if noisy and rng is None:
        raise ValueError("a noisy exchange needs a random generator (rng)")

    def _noise(clock_jitter: float) -> float:
        total = 0.0
        if hop.jitter_ns > 0:
            total += rng.normal(0.0, hop.jitter_ns)
        if clock_jitter > 0:
            total += rng.normal(0.0, clock_jitter)
        return total

    rel_offset = slave.true_offset_ns - master.true_offset_ns
    q = hop.quantization_ns
    t1 = _quantize(epoch_ns, q)
    noise2 = _noise(slave.jitter_ns_rms) if noisy else 0.0
    t2 = _quantize(t1 + hop.delay_forward_ns + rel_offset + noise2, q)
    t3 = _quantize(t2 + hop.turnaround_ns, q)
    noise4 = _noise(master.jitter_ns_rms) if noisy else 0.0
    t4 = _quantize(t3 - rel_offset + hop.delay_backward_ns + noise4, q)
    return WrTimestampQuartet(t1, t2, t3, t4)


def compute_delay_offset(quartet: WrTimestampQuartet) -> tuple[float, float]:
    """Line delay and slave offset recovered from one quartet.

    A negative delay is reported as-is; it flags gross asymmetry or noise
    rather than being masked.
    """
    delay = ((quartet.t4 - quartet.t1) - (quartet.t3 - quartet.t2)) / 2.0
    offset = (quartet.t2 - quartet.t1) - delay
    return delay, offset


def servo_step(slave: SimClock, offset_ns: float, gain: float = 1.0) -> SimClock:
    """Proportional correction: the slave offset shrinks by gain * offset."""
    if not gain > 0:
        raise ValueError("gain must be > 0")
    return replace(slave, true_offset_ns=slave.true_offset_ns - gain * offset_ns)


def _jitter(
    master: SimClock,
    slave: SimClock,
    hop: HopConfig,
    n_rounds: int,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Noise on the two reception timestamps of every round: row 0 for t2,
    row 1 for t4.

    One standard-normal call draws everything, in the order a round of
    exchange() consumes it: for t2 the link, then the slave clock; for t4
    the link, then the master clock. Sources without jitter draw nothing.
    Each row is summed from 0.0 source by source, as exchange() sums it.
    Like exchange(), a noisy session needs a generator; a noiseless one
    draws nothing and needs none.
    """
    sources = (
        (0, hop.jitter_ns),
        (0, slave.jitter_ns_rms),
        (1, hop.jitter_ns),
        (1, master.jitter_ns_rms),
    )
    active = [(row, sigma) for row, sigma in sources if sigma > 0]
    noise = np.zeros((2, n_rounds))
    if active:
        if rng is None:
            raise ValueError("a noisy session needs a random generator (rng)")
        draws = rng.standard_normal((n_rounds, len(active)))
        for j, (row, sigma) in enumerate(active):
            noise[row] += sigma * draws[:, j]
    return noise


def _session(
    master: SimClock,
    slave: SimClock,
    hop: HopConfig,
    n_rounds: int,
    round_interval_s: float,
    synce_locked: bool = True,
    rng: np.random.Generator | None = None,
    rows: list | None = None,
) -> list[float]:
    """The session kernel: validates, draws all jitter, then runs every round
    in one loop and returns each round's residual_ns; a rows list, if given,
    also gets (t1, t2, t3, t4, delay_ns, offset_ns, residual_ns) per round.

    Each round does on plain numbers what exchange, compute_delay_offset
    and servo_step do on objects, in the same floating-point order. The
    hop's gain is in (0, 2): HopConfig checks it.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if round_interval_s <= 0:
        raise ValueError("round_interval_s must be > 0")
    last_epoch_ns = (n_rounds - 1) * round_interval_s * 1e9
    if not math.isfinite(last_epoch_ns):  # also NaN, and inf for a single round
        raise ValueError(f"round_interval_s must keep every epoch finite, got {round_interval_s!r}")
    noise = _jitter(master, slave, hop, n_rounds, rng)
    slave_drift = master.drift_ppb if synce_locked else slave.drift_ppb
    drift_rel = slave_drift - master.drift_ppb

    q = hop.quantization_ns
    if q > 0:
        def quantize(value_ns):
            return round(value_ns / q) * q
    else:
        quantize = round
    # t1 = quantize(round(i * round_interval_s * 1e9)); numpy gives the same ints while int64
    # holds them and q is exact as a float. Buffers iterate as Python ints and floats.
    if last_epoch_ns < 2.0**62 and q < 2**53:
        epochs = np.rint(np.arange(n_rounds) * round_interval_s * 1e9).astype(np.int64)
        epochs = (np.rint(epochs / q).astype(np.int64) * q if q > 0 else epochs).data
    else:
        epochs = [quantize(round(i * round_interval_s * 1e9)) for i in range(n_rounds)]
    master_offset = master.true_offset_ns
    d_fwd = hop.delay_forward_ns
    d_bwd = hop.delay_backward_ns
    gain = hop.gain
    turnaround_ns = hop.turnaround_ns
    bias_ns = hop.bias_ns

    residuals: list[float] = []
    offset = slave.true_offset_ns
    for t1, noise2, noise4 in zip(epochs, noise[0].data, noise[1].data):
        rel = offset - master_offset
        t2 = quantize(t1 + d_fwd + rel + noise2)
        t3 = quantize(t2 + turnaround_ns)
        t4 = quantize(t3 - rel + d_bwd + noise4)
        delay = ((t4 - t1) - (t3 - t2)) / 2.0
        recovered = (t2 - t1) - delay
        offset = offset - gain * recovered
        residuals.append(offset + bias_ns)
        if rows is not None:
            rows.append((t1, t2, t3, t4, delay, recovered, residuals[-1]))
        if drift_rel != 0.0:
            offset = offset + drift_rel * round_interval_s
    return residuals


def run_sync_session(
    master: SimClock,
    slave: SimClock,
    hop: HopConfig,
    n_rounds: int,
    round_interval_s: float,
    synce_locked: bool = True,
    rng: np.random.Generator | None = None,
) -> TimeErrorSeries:
    """Run a synchronization session over a hop and return the residual
    time errors, one sample per round.

    The residual is the slave clock after the servo correction by hop.gain
    plus the hop's constant bias_ns, the stand-in for uncompensated hardware
    delays. Unless synce_locked, the relative drift accumulates between
    rounds. rng is needed when the hop or a clock has jitter.
    """
    residuals = _session(master, slave, hop, n_rounds, round_interval_s, synce_locked, rng)
    return TimeErrorSeries(np.array(residuals), round_interval_s)


def write_session_csv(
    path,
    master: SimClock,
    slave: SimClock,
    hop: HopConfig,
    n_rounds: int,
    round_interval_s: float,
    synce_locked: bool = True,
    rng: np.random.Generator | None = None,
) -> None:
    """Run a session as run_sync_session does and write one CSV row per round:
    round_index, epoch_s, t1..t4, D_ns, O_ns, residual_ns."""
    rows: list[tuple] = []
    _session(master, slave, hop, n_rounds, round_interval_s, synce_locked, rng, rows)
    *stamps, delay, offset, residual = zip(*rows)
    epochs = (i * round_interval_s for i in range(n_rounds))
    columns = (range(n_rounds), map(float, epochs), *stamps, delay, offset, residual)
    header = "round_index,epoch_s,t1,t2,t3,t4,D_ns,O_ns,residual_ns"
    write_text(path, csv_text(header, *(map(repr, column) for column in columns)))
