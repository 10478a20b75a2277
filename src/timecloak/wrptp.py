"""Master/Slave timestamp-exchange simulation.

One synchronization round exchanges four timestamps over a configurable
link; the slave recovers the line delay and its clock offset from

    D = ((t4 - t1) - (t3 - t2)) / 2
    O = (t2 - t1) - D

and corrects itself with a proportional servo. Timestamps are integer
nanoseconds (optionally coarser when a quantization step is set, the
plain-counter pole of the phase-detector model); sub-nanosecond effects
enter only through jitter draws before rounding. The slave is syntonized
to the master, as White Rabbit's SyncE keeps it, so it does not drift
between rounds; a session starts it at the master's time.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .stability import TimeErrorSeries

if TYPE_CHECKING:
    from .config import HopConfig


class WrTimestampQuartet(NamedTuple):
    """The four timestamps of one exchange: t1/t4 in the master timebase,
    t2/t3 in the slave timebase, all integer nanoseconds."""

    t1: int
    t2: int
    t3: int
    t4: int


def _quantizer(quantization_ns: int):
    """Rounding to the nearest multiple of quantization_ns as an int (0: to integer ns)."""
    if quantization_ns > 0:
        return lambda value_ns: round(value_ns / quantization_ns) * quantization_ns
    return round


def exchange(
    hop: HopConfig,
    epoch_ns: int,
    offset_ns: float = 0.0,
    rng: np.random.Generator | None = None,
) -> WrTimestampQuartet:
    """Simulate one timestamp exchange over a hop starting at master time
    epoch_ns, with the slave offset_ns ahead of the master; the slave
    replies hop.turnaround_ns after it receives.

    Reception timestamps (t2, t4) pick up link noise; every timestamp is
    quantized to the hop's granularity. A noisy exchange needs a generator;
    callers running many exchanges share one, so that draws never repeat
    between calls.

    This is the single-step reference that the session kernel,
    run_sync_session, reproduces round by round.
    """
    if epoch_ns < 0:
        raise ValueError("epoch_ns must be >= 0")
    noisy = hop.jitter_ns > 0
    if noisy and rng is None:
        raise ValueError("a noisy exchange needs a random generator (rng)")
    quantize = _quantizer(hop.quantization_ns)
    t1 = quantize(epoch_ns)
    noise2 = rng.normal(0.0, hop.jitter_ns) if noisy else 0.0
    t2 = quantize(t1 + hop.delay_forward_ns + offset_ns + noise2)
    t3 = quantize(t2 + hop.turnaround_ns)
    noise4 = rng.normal(0.0, hop.jitter_ns) if noisy else 0.0
    t4 = quantize(t3 - offset_ns + hop.delay_backward_ns + noise4)
    return WrTimestampQuartet(t1, t2, t3, t4)


def compute_delay_offset(quartet: WrTimestampQuartet) -> tuple[float, float]:
    """Line delay and slave offset recovered from one quartet.

    A negative delay is reported as-is; it flags gross asymmetry or noise
    rather than being masked.
    """
    delay = ((quartet.t4 - quartet.t1) - (quartet.t3 - quartet.t2)) / 2.0
    offset = (quartet.t2 - quartet.t1) - delay
    return delay, offset


def servo_step(offset_ns: float, recovered_ns: float, gain: float = 1.0) -> float:
    """Proportional correction: the slave offset shrinks by gain * recovered_ns."""
    if not gain > 0:
        raise ValueError("gain must be > 0")
    return offset_ns - gain * recovered_ns


def run_sync_session(
    hop: HopConfig,
    n_rounds: int,
    round_interval_s: float,
    rng: np.random.Generator | None = None,
) -> TimeErrorSeries:
    """Run a synchronization session over a hop and return the residual
    time errors, one sample per round.

    The residual is the slave clock after the servo correction by hop.gain
    plus the hop's constant bias_ns, the stand-in for uncompensated hardware
    delays. rng is needed when the hop has jitter.

    This is the session kernel: it validates, draws all jitter, then runs
    every round in one loop. Each round does on plain numbers what exchange,
    compute_delay_offset and servo_step do, in the same floating-point
    order, starting from a slave at offset 0. All jitter comes from one
    standard-normal call, in the order the rounds of exchange() draw it: t2
    then t4 of each round. The hop's gain is in (0, 2): HopConfig checks it.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if round_interval_s <= 0:
        raise ValueError("round_interval_s must be > 0")
    last_epoch_ns = (n_rounds - 1) * round_interval_s * 1e9
    if not math.isfinite(last_epoch_ns):  # also NaN, and inf for a single round
        raise ValueError(f"round_interval_s must keep every epoch finite, got {round_interval_s!r}")
    noise = np.zeros((2, n_rounds))
    if hop.jitter_ns > 0:
        if rng is None:
            raise ValueError("a noisy session needs a random generator (rng)")
        noise = hop.jitter_ns * rng.standard_normal((n_rounds, 2)).T

    q = hop.quantization_ns
    quantize = _quantizer(q)
    d_fwd = hop.delay_forward_ns
    # t1 = quantize(round(i * round_interval_s * 1e9)); numpy gives the same ints while int64
    # holds them and q is exact as a float. int64 -> float64 rounds half-even as int -> float
    # does, so t1 + d_fwd for a float d_fwd is Python's too; an int d_fwd keeps the exact int
    # sum of the lists. Buffers iterate as Python ints and floats.
    if last_epoch_ns < 2.0**62 and q < 2**53 and isinstance(d_fwd, float):
        epochs = np.rint(np.arange(n_rounds) * round_interval_s * 1e9).astype(np.int64)
        epochs = np.rint(epochs / q).astype(np.int64) * q if q > 0 else epochs
        arrivals = (epochs + d_fwd).data
        epochs = epochs.data
    else:
        epochs = [quantize(round(i * round_interval_s * 1e9)) for i in range(n_rounds)]
        arrivals = [t1 + d_fwd for t1 in epochs]
    d_bwd = hop.delay_backward_ns
    gain = hop.gain
    turnaround_ns = hop.turnaround_ns
    # integer-ns timestamps plus an int turnaround: t2 + turnaround_ns is already an int
    exact_turnaround = q == 0 and isinstance(turnaround_ns, int)
    bias_ns = hop.bias_ns

    residuals: list[float] = []
    offset = 0.0
    for t1, arrival, noise2, noise4 in zip(epochs, arrivals, noise[0].data, noise[1].data):
        t2 = quantize(arrival + offset + noise2)
        t3 = t2 + turnaround_ns if exact_turnaround else quantize(t2 + turnaround_ns)
        t4 = quantize(t3 - offset + d_bwd + noise4)
        delay = ((t4 - t1) - (t3 - t2)) / 2.0
        recovered = (t2 - t1) - delay
        offset = offset - gain * recovered
        residuals.append(offset + bias_ns)
    return TimeErrorSeries(np.array(residuals), round_interval_s)
