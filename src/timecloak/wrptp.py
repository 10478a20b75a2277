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

A session of integer-ns rounds holds its timestamps as integer-valued
float64 and rounds with v + R - R, R = 1.5 * 2**52, which is Python's
half-even round() while |v| <= 2**51. Its results are kept only while
every timestamp stays below 2**50 ns (about 13 days of epochs), where
each step is exact. A locked servo keeps the same offset for long
stretches; once a chunk of rounds has kept it, the next rounds run as
float64 array operations at that offset, up to the first round that
changes it. A quantized hop, or a session that reaches 2**50 ns, runs on
Python ints, exact at any size. All give the same bytes.
"""
from __future__ import annotations

import math
from itertools import islice
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

    A hop with integer-ns timestamps (quantization_ns 0) runs on float64
    timestamps, rounded half-even by adding and subtracting 1.5 * 2**52,
    while every timestamp stays below 2**50 ns. Its rounds run on Python
    floats until a chunk of them keeps the servo offset unchanged; then the
    rounds that follow run as array operations at that offset, the same
    operations in the same order, until one changes it. A quantized hop, a
    session whose epochs and delays reach 2**50 ns (about 13 days), and one
    whose offsets or jitter take a timestamp there run on exact Python ints.
    An overflowing float raises OverflowError there, in round().
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
    epochs = np.rint(np.arange(n_rounds) * round_interval_s * 1e9)  # t1 in ns, before quantizing

    delays_ns = (hop.delay_forward_ns, hop.turnaround_ns, hop.delay_backward_ns)  # each >= 0
    # each delay is compared alone first, so that no huge int meets a float in the sum
    if hop.quantization_ns == 0 and max(delays_ns) < _FLOAT_LIMIT_NS:
        if float(epochs[-1]) + sum(delays_ns) < _FLOAT_LIMIT_NS:
            residuals = _float_rounds(hop, epochs, noise)
            if residuals is not None:
                return TimeErrorSeries(residuals, round_interval_s)
    return TimeErrorSeries(_int_rounds(hop, epochs, noise), round_interval_s)


_FLOAT_LIMIT_NS = 2.0**50  # every timestamp of the float rounds stays below this
_ROUNDER = 1.5 * 2.0**52  # v + R - R is v rounded half-even for |v| <= 2**51
_CHUNK = 64  # scalar rounds between checks for a held offset; the first array span


def _float_rounds(hop: HopConfig, epochs: np.ndarray, noise: np.ndarray) -> np.ndarray | None:
    """The rounds of an integer-ns hop on integer-valued float64 timestamps,
    or None where a timestamp may have reached 2**50 ns.

    For |v| <= 2**51, v + R lies in [2**52, 2**53], where the floats are the
    integers, and R is even: v + R - R is round(v), ties to even as Python's
    round() breaks them. Below 2**53, the int operations of the int rounds
    (t2 + turnaround_ns, t4 - t1, t3 - t2, t2 - t1) are exact in float64, and
    so is each int -> float conversion, so the residuals are bit-identical to
    those of _int_rounds. The servo step's ((t2 - t1) - (t4 - t3)) / 2 is
    compute_delay_offset's (t2 - t1) - delay: both are exact on integers below
    2**51, and neither is ever -0.0.

    Rounds run on Python floats, _CHUNK at a time. Once a whole chunk has
    left the offset as it was, the next rounds run as array operations at
    that offset, the same operations in the same order: the leading rounds
    whose new offset equals it are kept, and so is the first that changes it,
    whose input offset was the held one; scalar rounds resume after it. A
    span that keeps the offset throughout is kept whole, and the next one is
    twice as long.
    """
    n = len(epochs)
    arrivals = epochs + hop.delay_forward_ns
    # both are below 2**50, so converting them is exact
    turnaround_ns, d_bwd = float(hop.turnaround_ns), float(hop.delay_backward_ns)
    gain, R = hop.gain, _ROUNDER
    columns = (epochs, arrivals, noise[0], noise[1])

    offsets = np.empty(n)
    offset = 0.0
    done = 0  # rounds whose offsets are in offsets
    with np.errstate(all="ignore"):  # inf and NaN fail the check after the loop
        while done < n:
            # scalar rounds, a chunk at a time, until a chunk keeps its offset
            rounds = zip(*(column[done:].data for column in columns))
            run: list[float] = []
            while True:
                held = offset
                for t1, arrival, noise2, noise4 in islice(rounds, _CHUNK):
                    t2 = arrival + offset + noise2 + R - R
                    t3 = t2 + turnaround_ns + R - R
                    t4 = t3 - offset + d_bwd + noise4 + R - R
                    offset = offset - gain * (((t2 - t1) - (t4 - t3)) / 2.0)
                    run.append(offset)
                if done + len(run) == n or (
                    offset == held and run[-_CHUNK:].count(held) == _CHUNK
                ):
                    break
            offsets[done : done + len(run)] = run
            done += len(run)

            # array spans at the held offset, until a round changes it
            span = _CHUNK
            while done < n:
                t1, arrival, noise2, noise4 = (column[done : done + span] for column in columns)
                t2 = arrival + offset + noise2 + R - R
                t3 = t2 + turnaround_ns + R - R
                t4 = t3 - offset + d_bwd + noise4 + R - R
                stepped = offset - gain * (((t2 - t1) - (t4 - t3)) / 2.0)
                changes = np.flatnonzero(stepped != offset)
                kept = int(changes[0]) + 1 if len(changes) else len(stepped)
                offsets[done : done + kept] = stepped[:kept]
                done += kept
                offset = float(stepped[kept - 1])
                if len(changes):
                    break
                span *= 2
        residuals = offsets + hop.bias_ns

        # Each round's offset is an earlier residual less bias_ns, so |offset| <= max|residual| +
        # |bias_ns|, up to a relative 2**-52. With 0 <= t1 <= arrival <= arrivals[-1]:
        #   |t2| <= arrival + |offset| + |noise2| + 1/2,   |t3| <= |t2| + turnaround_ns + 1/2,
        #   |t4| <= |t3| + |offset| + d_bwd + |noise4| + 1/2,
        # and each value before its rounding obeys the same bound less the 1/2. The sum below
        # bounds them all; its own float rounding and the 2**-52 stay far inside the + 2. Below
        # 2**50 every step is exact, with room to spare. Overflow gives inf or NaN silently in
        # the rounds, where the int rounds raise OverflowError; both fail the test, which runs
        # on Python floats.
        peak = _max_abs(residuals) + abs(hop.bias_ns) + _max_abs(noise)
    if float(arrivals[-1]) + turnaround_ns + d_bwd + 2 * peak + 2 < _FLOAT_LIMIT_NS:
        return residuals
    return None


def _max_abs(values: np.ndarray) -> float:
    """The largest magnitude in an array, as a Python float, with no temporary array."""
    return max(-float(values.min()), float(values.max()))


def _int_rounds(hop: HopConfig, epochs: np.ndarray, noise: np.ndarray) -> list[float]:
    """The rounds on Python int timestamps: exact at any size and for any
    quantization step. A float that overflows raises OverflowError in round()."""
    q = hop.quantization_ns
    quantize = _quantizer(q)
    d_fwd = hop.delay_forward_ns
    # numpy gives t1 = quantize(round(epoch)) while int64 holds it and q is exact as a float.
    # int64 -> float64 rounds half-even as int -> float does, so t1 + d_fwd for a float d_fwd
    # is Python's too; an int d_fwd keeps the exact int sum of the lists. Buffers iterate as
    # Python ints and floats.
    if epochs[-1] < 2.0**62 and q < 2**53 and isinstance(d_fwd, float):
        t1s = epochs.astype(np.int64)
        t1s = np.rint(t1s / q).astype(np.int64) * q if q > 0 else t1s
        arrivals = (t1s + d_fwd).data
        t1s = t1s.data
    else:
        t1s = [quantize(round(epoch)) for epoch in epochs.data]
        arrivals = [t1 + d_fwd for t1 in t1s]
    d_bwd = hop.delay_backward_ns
    gain = hop.gain
    turnaround_ns = hop.turnaround_ns
    # integer-ns timestamps plus an int turnaround: t2 + turnaround_ns is already an int
    exact_turnaround = q == 0 and isinstance(turnaround_ns, int)
    bias_ns = hop.bias_ns

    residuals: list[float] = []
    offset = 0.0
    for t1, arrival, noise2, noise4 in zip(t1s, arrivals, noise[0].data, noise[1].data):
        t2 = quantize(arrival + offset + noise2)
        t3 = t2 + turnaround_ns if exact_turnaround else quantize(t2 + turnaround_ns)
        t4 = quantize(t3 - offset + d_bwd + noise4)
        delay = ((t4 - t1) - (t3 - t2)) / 2.0
        recovered = (t2 - t1) - delay
        offset = offset - gain * recovered
        residuals.append(offset + bias_ns)
    return residuals
