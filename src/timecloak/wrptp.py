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

A session holds its timestamps as float64 multiples of the step q (1 ns
for integer-ns timestamps) and rounds with (v / q + R - R) * q, R = 1.5 *
2**52, which is Python's half-even round(v / q) * q while |v / q| <=
2**51. Its results are kept only while every timestamp stays below 2**50
ns (about 13 days of epochs), where each step is exact. A locked servo
keeps the same offset for long stretches; once a chunk of rounds has kept
it, the next rounds run as float64 array operations at that offset, up to
the first round that changes it. A session that reaches 2**50 ns runs the
single-step reference round by round on Python int timestamps, but each
stamp's sum, such as t1 + delay_forward_ns + offset_ns + noise2, is a
float64 sum at the epoch's magnitude, taken before its rounding (ROADMAP
item 1). All give the same bytes for any hop that HopConfig accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .stability import TimeErrorSeries, require_finite, require_positive


@dataclass(frozen=True)
class HopConfig:
    """Link, servo, and calibration settings of one synchronization hop, from
    config key to session kernel (quantization_ns 0: integer-ns timestamps).
    Checked for what the kernel's exact paths rely on: finite values, no
    negative delay, jitter or step, ints within the float range, a gain in
    (0, 2), and a whole quantization_ns or turnaround_ns stored as an int."""

    delay_forward_ns: float = 0.0
    delay_backward_ns: float = 0.0
    jitter_ns: float = 0.0
    quantization_ns: int = 0
    gain: float = 1.0
    turnaround_ns: float = 1000
    bias_ns: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("delay_forward_ns", "delay_backward_ns", "jitter_ns", "quantization_ns",
                     "turnaround_ns"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"HopConfig.{name} must be >= 0, got {value!r}")
        if (q := self.quantization_ns) != int(q):
            raise ValueError(f"HopConfig.quantization_ns must be a whole number, got {q!r}")
        object.__setattr__(self, "quantization_ns", int(q))  # so timestamps stay int ns
        if (t := self.turnaround_ns) == int(t):
            # a whole turnaround keeps t3 exact past 2**53 ns, whether given as 1000 or 1000.0
            object.__setattr__(self, "turnaround_ns", int(t))
        if not 0 < self.gain < 2:
            # the proportional servo diverges outside this range
            raise ValueError(f"servo gain must be in (0, 2), got {self.gain!r}")



class WrTimestampQuartet(NamedTuple):
    """The four timestamps of one exchange: t1/t4 in the master timebase,
    t2/t3 in the slave timebase, all integer nanoseconds."""

    t1: int
    t2: int
    t3: int
    t4: int


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
    between calls; t2's jitter is drawn before t4's.

    This is the single-step reference that the session kernel,
    run_sync_session, reproduces round by round. Its arithmetic is _stamp,
    which the kernel's long-epoch rounds call on jitter drawn in advance.
    """
    if epoch_ns < 0:
        raise ValueError("epoch_ns must be >= 0")
    noisy = hop.jitter_ns > 0
    if noisy and rng is None:
        raise ValueError("a noisy exchange needs a random generator (rng)")
    noise2 = rng.normal(0.0, hop.jitter_ns) if noisy else 0.0
    noise4 = rng.normal(0.0, hop.jitter_ns) if noisy else 0.0
    return _stamp(hop, epoch_ns, offset_ns, noise2, noise4)


def _stamp(
    hop: HopConfig, epoch_ns: int, offset_ns: float, noise2: float, noise4: float
) -> WrTimestampQuartet:
    """exchange's timestamps, given the jitter of t2 and t4, each rounded to
    the nearest multiple of quantization_ns as an int (0: to integer ns)."""
    q = hop.quantization_ns
    quantize = (lambda value_ns: round(value_ns / q) * q) if q else round
    t1 = quantize(epoch_ns)
    t2 = quantize(t1 + hop.delay_forward_ns + offset_ns + noise2)
    t3 = quantize(t2 + hop.turnaround_ns)
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

    A hop runs on float64 timestamps, whole multiples of its quantization
    step (1 ns at quantization_ns 0) rounded half-even in units of the step,
    while every timestamp stays below 2**50 ns. Its rounds run on Python
    floats until a chunk of them keeps the servo offset unchanged; then the
    rounds that follow run as array operations at that offset, the same
    operations in the same order, until one changes it. A session whose
    epochs, delays or step reach 2**50 ns (about 13 days), or whose offsets
    or jitter take a timestamp there, runs exchange's arithmetic,
    compute_delay_offset and servo_step on Python ints whose stamp sums are
    float64 (see _int_rounds); an overflowing float raises OverflowError.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    round_interval_s = require_positive(round_interval_s, "round_interval_s")  # int64 epochs could wrap
    last_epoch_ns = (n_rounds - 1) * round_interval_s * 1e9
    if not math.isfinite(last_epoch_ns):  # a finite interval, such as 1e300 s, may overflow it
        raise ValueError(f"round_interval_s must keep every epoch finite, got {round_interval_s!r}")
    noise = np.zeros((2, n_rounds))
    if hop.jitter_ns > 0:
        if rng is None:
            raise ValueError("a noisy session needs a random generator (rng)")
        noise = hop.jitter_ns * rng.standard_normal((n_rounds, 2)).T
    epochs = np.rint(np.arange(n_rounds) * round_interval_s * 1e9)  # t1 in ns, before quantizing

    delays_ns = (hop.delay_forward_ns, hop.turnaround_ns, hop.delay_backward_ns)  # each >= 0
    # each delay and the step are compared alone first, so that no huge int meets a float
    if max(*delays_ns, hop.quantization_ns) < _FLOAT_LIMIT_NS:
        if float(epochs[-1]) + sum(delays_ns) < _FLOAT_LIMIT_NS:
            residuals = _float_rounds(hop, epochs, noise)
            if residuals is not None:
                return TimeErrorSeries(residuals, round_interval_s)
    return TimeErrorSeries(_int_rounds(hop, epochs, noise), round_interval_s)


_FLOAT_LIMIT_NS = 2.0**50  # every timestamp of the float rounds stays below this
_ROUNDER = 1.5 * 2.0**52  # v + R - R is v rounded half-even for |v| <= 2**51
_CHUNK = 64  # scalar rounds between checks for a held offset; the first array span


def _float_rounds(hop: HopConfig, epochs: np.ndarray, noise: np.ndarray) -> np.ndarray | None:
    """The rounds of a hop on float64 timestamps that are whole multiples of
    its step q, or None where a timestamp may have reached 2**50 ns.

    For |u| <= 2**51, u + R lies in [2**52, 2**53], where the floats are the
    integers, and R is even: u + R - R is round(u), ties to even as Python's
    round() breaks them. v / q is exchange's division, correctly rounded
    whether v and q are ints or floats below 2**53, so (v / q + R - R) * q is
    its round(v / q) * q, an integer exact in float64. Below 2**53 its int
    operations (t2 + turnaround_ns, t4 - t1, t3 - t2, t2 - t1) and int ->
    float conversions are exact too, so the residuals are bit-identical to
    those of _int_rounds. The servo step's ((t2 - t1) - (t4 - t3)) / 2 is
    compute_delay_offset's (t2 - t1) - delay: both are exact on integers
    below 2**51, and neither is ever -0.0.

    Rounds run on Python floats, _CHUNK at a time. Once a whole chunk has
    left the offset as it was, the next rounds run as array operations at
    that offset, the same operations in the same order: the leading rounds
    whose new offset equals it are kept, and so is the first that changes it,
    whose input offset was the held one; scalar rounds resume after it. A
    span that keeps the offset throughout is kept whole, and the next one is
    twice as long.
    """
    n = len(epochs)
    # q and both delays are below 2**50, so converting them is exact
    q, R = float(hop.quantization_ns or 1), _ROUNDER
    t1s = (epochs / q + R - R) * q
    arrivals = t1s + hop.delay_forward_ns
    turnaround_ns, d_bwd = float(hop.turnaround_ns), float(hop.delay_backward_ns)
    gain = hop.gain
    columns = (t1s, arrivals, noise[0], noise[1])

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
                    t2 = ((arrival + offset + noise2) / q + R - R) * q
                    t3 = ((t2 + turnaround_ns) / q + R - R) * q
                    t4 = ((t3 - offset + d_bwd + noise4) / q + R - R) * q
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
                t2 = ((arrival + offset + noise2) / q + R - R) * q
                t3 = ((t2 + turnaround_ns) / q + R - R) * q
                t4 = ((t3 - offset + d_bwd + noise4) / q + R - R) * q
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
        # |bias_ns|, up to a relative 2**-52. A rounding moves a value by at most q/2. With
        # 0 <= t1 <= arrival <= arrivals[-1]:
        #   |t2| <= arrival + |offset| + |noise2| + q/2,   |t3| <= |t2| + turnaround_ns + q/2,
        #   |t4| <= |t3| + |offset| + d_bwd + |noise4| + q/2,
        # and each value before its rounding obeys the same bound less the q/2. The sum below,
        # with 2q for the three q/2, bounds them all; its own rounding and the 2**-52 are far
        # inside the room from 2**50 to 2**51, where exactness ends. Overflow gives inf or NaN
        # silently in the rounds, where the int rounds raise OverflowError; both fail the test,
        # which runs on Python floats.
        peak = _max_abs(residuals) + abs(hop.bias_ns) + _max_abs(noise)
    if float(arrivals[-1]) + turnaround_ns + d_bwd + 2 * peak + 2 * q < _FLOAT_LIMIT_NS:
        return residuals
    return None


def _max_abs(values: np.ndarray) -> float:
    """The largest magnitude in an array, as a Python float, with no temporary array."""
    return max(-float(values.min()), float(values.max()))


def _int_rounds(hop: HopConfig, epochs: np.ndarray, noise: np.ndarray) -> list[float]:
    """The rounds of the single-step reference on Python int timestamps, for
    any size and step. Each stamp's sum (t1 + delay_forward_ns + offset_ns +
    noise2, ...) is float64 at the epoch's magnitude before its rounding, so
    not exact (ROADMAP item 1). A float that overflows raises OverflowError."""
    residuals: list[float] = []
    offset = 0.0
    for epoch, noise2, noise4 in zip(epochs.data, noise[0].data, noise[1].data):
        _, recovered = compute_delay_offset(_stamp(hop, round(epoch), offset, noise2, noise4))
        offset = servo_step(offset, recovered, hop.gain)
        residuals.append(offset + hop.bias_ns)
    return residuals
