"""Key-driven phase-noise models and the delay codec built on them.

Key digits map to a schedule of carrier phase shifts, one value per dwell
interval. Applying a phase shift to the reference carrier parks its timing
edges earlier or later, so on a time-error series the schedule acts as a
stepwise additive delay. Four generators are provided:

* white: each pair of digits is read as a two-digit hex number and scaled
  down by a divisor, giving independent phases in [0, 255/divisor] degrees.
* random walk: each triplet contributes a signed step; the first digit
  against a threshold picks the sign, the remaining pair the magnitude.
* lag-correlated walk: past a fixed lag, each step echoes the sign of the
  step taken that many dwells earlier (flipped when the key digit says so).
* memory walk: past a fixed depth, each step blends the average of the
  previous increments with a fresh signed contribution.

Bounded walks emit bound_deg * sin(raw phase) while the recursion keeps
evolving on the raw, unbounded state. Phases are carried in degrees
throughout; radians appear only inside the sine bound.

generate_schedule decodes the digits of a schedule once and gives the same
values, bit for bit, as the single-step functions (white_phase, rw_step,
rw_lag_step, rw_mem_step, bound_phase), which stay as the reference. The
white model and the plain walk are array operations. So is the lag walk:
the sign it echoes is a product of step signs along stride lag, so every
increment is known before the running sum. Near a huge phase (1e17
degrees, where one ulp is 16) a small step can vanish, the echoed sign is
then 0 instead of the step's, and that schedule is built by rw_lag_step
itself. The memory walk feeds each phase back into the next, so it runs
step by step; while its window lies between two powers of two, the window's
sum is one exact subtraction of two phases, and elsewhere its increments are
added in order. Every bounded schedule is bounded in one array pass over its
raw phases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .keys import HexKeyStream
from .stability import TimeErrorSeries, finite_array, require_finite, require_positive

DEFAULT_DIVISOR = 4.0
DEFAULT_SIGN_THRESHOLD = 8
DEFAULT_DWELL_S = 5.0
DEFAULT_CARRIER_HZ = 10e6

# Applied delays snap to this binary grid (about 1 femtosecond) so that an
# encode/decode round trip cancels bit-exactly for samples below ~2^32 ns.
DELAY_GRID_NS = 2.0 ** -20


class NoiseKind(Enum):
    WHITE = "white"
    RANDOM_WALK = "rw"
    RW_LAG = "rw_lag"
    RW_MEMORY = "rw_mem"


_KIND_ALIASES = {
    **{kind.value: kind for kind in NoiseKind},
    "random_walk": NoiseKind.RANDOM_WALK,
    "lagged_walk": NoiseKind.RW_LAG,
    "memory_walk": NoiseKind.RW_MEMORY,
}


def parse_noise_kind(name: str) -> NoiseKind:
    try:
        return _KIND_ALIASES[name.strip().lower()]
    except KeyError:
        valid = ", ".join(sorted(_KIND_ALIASES))
        raise ValueError(f"unknown noise kind {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class NoiseModelSpec:
    """Parameters selecting and shaping a phase-noise generator.

    divisor scales two-digit magnitudes down (keeps the white model below a
    full carrier period); sign_threshold splits the sign digit (8 gives a
    balanced walk); lag and memory are integers, only meaningful for the
    RW_LAG and RW_MEMORY kinds; bound_deg, when set, bounds the emitted
    phase to [-bound_deg, +bound_deg] via the sine map.
    """

    kind: NoiseKind = NoiseKind.WHITE
    divisor: float = DEFAULT_DIVISOR
    sign_threshold: int = DEFAULT_SIGN_THRESHOLD
    lag: int = 100
    memory: int = 10
    bias_deg: float = 0.0
    bound_deg: float | None = None

    def __post_init__(self) -> None:
        require_finite(self, integers=("sign_threshold", "lag", "memory"))
        require_positive(self.divisor, "divisor")
        if not 0 <= self.sign_threshold <= 15:
            raise ValueError("sign_threshold must be a hex digit in [0, 15]")
        if self.bound_deg is not None:
            require_positive(self.bound_deg, "bound_deg")

    @property
    def digits_per_step(self) -> int:
        return 2 if self.kind is NoiseKind.WHITE else 3


@dataclass(frozen=True, eq=False)
class PhaseSchedule:
    """A timed sequence of phase values held constant over dwell intervals.

    Interval i covers [i*dwell_s, (i+1)*dwell_s), left-closed. phases holds
    the phases in degrees, copied into a read-only float64 array on
    construction. Two schedules compare equal only if they are one object.
    """

    phases: np.ndarray
    dwell_s: float = DEFAULT_DWELL_S
    carrier_hz: float = DEFAULT_CARRIER_HZ

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", finite_array(self.phases, "phases"))
        require_positive(self.dwell_s, "dwell_s")
        _carrier_period_ns(self.carrier_hz)

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def phases_deg(self) -> tuple[float, ...]:
        """The phases as a tuple of Python floats, built on each access."""
        return tuple(self.phases.tolist())

    def delays_ns(self) -> np.ndarray:
        """Per-step delay equivalent of each phase at the carrier frequency."""
        return phase_to_delay(self.phases, self.carrier_hz)


def _pair_value(hi: int, lo: int) -> float:
    for d in (hi, lo):
        if not 0 <= d <= 15:
            raise ValueError("digits must be in [0, 15]")
    return float(16 * hi + lo)


def white_phase(pair: Sequence[int], divisor: float = DEFAULT_DIVISOR) -> float:
    """Phase from one digit pair: the pair read as a two-digit hex number,
    converted to decimal and divided by the scaling constant."""
    if not divisor > 0:
        raise ValueError("divisor must be > 0")
    hi, lo = pair
    return _pair_value(hi, lo) / divisor


def _signed_magnitude(triplet: Sequence[int], divisor: float, sign_threshold: int) -> float:
    """+-magnitude of one walk triplet: the first digit against the threshold
    picks the sign, the remaining pair the magnitude."""
    sign_digit, hi, lo = triplet
    if not 0 <= sign_digit <= 15:
        raise ValueError("digits must be in [0, 15]")
    magnitude = _pair_value(hi, lo) / divisor
    return magnitude if sign_digit >= sign_threshold else -magnitude


def rw_step(
    prev_phase_deg: float,
    triplet: Sequence[int],
    divisor: float = DEFAULT_DIVISOR,
    sign_threshold: int = DEFAULT_SIGN_THRESHOLD,
) -> float:
    """One signed walk step: first digit picks the direction, the remaining
    pair the magnitude."""
    return prev_phase_deg + _signed_magnitude(triplet, divisor, sign_threshold)


def bound_phase(phase_deg: float, bound_deg: float) -> float:
    """Sine output bound: maps any phase into [-bound_deg, +bound_deg]."""
    if not bound_deg > 0:
        raise ValueError("bound_deg must be > 0")
    return bound_deg * math.sin(math.radians(phase_deg))


def _sign(value: float) -> float:
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    return 0.0


def rw_lag_step(
    history: Sequence[float],
    index: int,
    triplet: Sequence[int],
    lag: int,
    divisor: float = DEFAULT_DIVISOR,
    sign_threshold: int = DEFAULT_SIGN_THRESHOLD,
    bias_deg: float = 0.0,
) -> float:
    """Walk step that, past the lag, echoes the sign of the step taken
    `lag` dwells earlier (or its flip, decided by the sign digit).

    history must hold the phases for steps 0..index-1. Steps at or before
    the lag boundary follow the plain walk.
    """
    if index < 0 or len(history) < index:
        raise ValueError("history must hold all phases before `index`")
    prev = history[index - 1] if index > 0 else bias_deg
    step = _signed_magnitude(triplet, divisor, sign_threshold)
    if index <= lag:
        return prev + step
    return prev + _sign(history[index - lag] - history[index - lag - 1]) * step


def rw_mem_step(
    history: Sequence[float],
    index: int,
    triplet: Sequence[int],
    memory: int,
    divisor: float = DEFAULT_DIVISOR,
    sign_threshold: int = DEFAULT_SIGN_THRESHOLD,
    bias_deg: float = 0.0,
) -> float:
    """Walk step that, once enough history exists, adds the mean of the
    previous `memory` increments to a fresh signed contribution.

    history must hold the phases for steps 0..index-1; the step before the
    first one is the configured bias.
    """
    if index < 0 or len(history) < index:
        raise ValueError("history must hold all phases before `index`")
    prev = history[index - 1] if index > 0 else bias_deg
    step = _signed_magnitude(triplet, divisor, sign_threshold)
    if index < memory:
        return prev + step
    increments = 0.0
    for j in range(1, memory + 1):
        newer = history[index - j]
        older = history[index - j - 1] if index - j - 1 >= 0 else bias_deg
        increments += newer - older
    return prev + (increments + step) / memory


def _validate_window(model: NoiseModelSpec, n_steps: int) -> None:
    if model.kind is NoiseKind.RW_LAG and not 1 < model.lag < n_steps - 1:
        raise ValueError(f"lag must satisfy 1 < lag < n_steps-1, got lag={model.lag} for {n_steps} steps")
    if model.kind is NoiseKind.RW_MEMORY and not 1 < model.memory < n_steps - 1:
        raise ValueError(
            f"memory must satisfy 1 < memory < n_steps-1, got memory={model.memory} for {n_steps} steps"
        )


def generate_schedule(
    stream: HexKeyStream,
    model: NoiseModelSpec,
    n_steps: int,
    dwell_s: float = DEFAULT_DWELL_S,
    carrier_hz: float = DEFAULT_CARRIER_HZ,
) -> PhaseSchedule:
    """Consume key material and produce a phase schedule under the model.

    The white model eats one digit pair per step, the walks one triplet.
    n_steps == 0 is legal, yields an empty schedule and consumes nothing.
    With a bound set, the emitted phase is the sine-bounded value while the
    recursion evolves on the raw state.

    Every value equals what white_phase, rw_step, rw_lag_step, rw_mem_step
    and bound_phase give step by step, see _emitted_phases. A walk that
    overflows raises ValueError naming the divisor. Key digits are taken
    only for a schedule it returns; a refusal leaves the cursor in place.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if n_steps == 0:
        return PhaseSchedule((), dwell_s, carrier_hz)
    _validate_window(model, n_steps)

    digits = stream.peek_digits(n_steps, model.digits_per_step)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = _emitted_phases(digits, model)
    if not np.isfinite(phases).all():
        raise ValueError(f"divisor {model.divisor!r} is too small: the phases overflow")
    schedule = PhaseSchedule(phases, dwell_s, carrier_hz)
    stream.take_digits(n_steps, model.digits_per_step)
    return schedule


def _emitted_phases(digits: np.ndarray, model: NoiseModelSpec) -> np.ndarray:
    """Phases from decoded digits: exact integer magnitudes divided once, signed steps
    summed by array operations, by rw_lag_step or by _memory_walk, raw phases bounded
    in one array pass."""
    pairs = digits[:, -2:].astype(np.float64)
    magnitudes = (16.0 * pairs[:, 0] + pairs[:, 1]) / model.divisor
    bound = model.bound_deg
    if model.kind is NoiseKind.WHITE:
        raw = magnitudes
    else:
        steps = np.where(digits[:, 0] >= model.sign_threshold, magnitudes, -magnitudes)
        if model.kind is NoiseKind.RANDOM_WALK:
            raw = np.cumsum(np.concatenate(([model.bias_deg], steps)))[1:]
        elif model.kind is NoiseKind.RW_LAG:
            raw = _lag_walk(steps, model.lag, model.bias_deg)
            if raw is None:  # a step vanished into a huge phase: build it step by step
                args = (model.lag, model.divisor, model.sign_threshold, model.bias_deg)
                history: list[float] = []
                for i, triplet in enumerate(digits.tolist()):
                    history.append(rw_lag_step(history, i, triplet, *args))
                raw = np.array(history)
        else:
            raw = _memory_walk(steps.tolist(), model.memory, model.bias_deg)
    if bound is not None:  # as bound_phase, in place: numpy's radians and sin round as math's
        np.sin(np.radians(raw, out=raw), out=raw)
        raw *= bound
    return raw


def _lag_walk(steps: np.ndarray, lag: int, bias_deg: float) -> np.ndarray | None:
    """Raw phases of the lag-correlated walk from array operations, or None
    when a step was absorbed by a large phase.

    Past the lag, step i is multiplied by the sign of increment i-lag. That
    sign is a product of step signs along stride lag: c_j = sign(step_j)
    for 1 <= j <= lag and c_j = c_{j-lag} * sign(step_j) past it, computed
    as an int8 cumulative product down rows of lag (integers, so no -0.0
    factor appears). The phases are one running sum seeded with the bias.
    This holds while every phase moves in the direction of its step; if one
    does not (a step vanished into a phase such as 1e17), the signs of the
    actual increments differ from c and the caller builds the phases with
    rw_lag_step. When all signs agree, rw_lag_step would have used the same
    factors, so the sums are identical.
    """
    n = len(steps)
    rows = -(-(n - 1) // lag)
    signs = np.ones(rows * lag, dtype=np.int8)
    signs[: n - 1] = np.sign(steps[1:])
    chain = np.cumprod(signs.reshape(rows, lag), axis=0, dtype=np.int8).ravel()[: n - 1]
    increments = steps.copy()
    increments[lag + 1 :] *= chain[: n - lag - 1]
    raw = np.cumsum(np.concatenate(([bias_deg], increments)))[1:]
    if np.any(np.sign(np.diff(raw)) != chain):
        return None
    return raw


def _memory_walk(steps: list[float], memory: int, bias_deg: float) -> np.ndarray:
    """Raw phases of the memory walk, one step at a time, as rw_mem_step gives them.

    The first `memory` steps are plain walk steps; each later one is
    prev + (total + step) / memory, total being the last `memory` increments
    summed from 0.0, newest first. phases holds the bias, then each phase.

    While the window phases[oldest:] lies in one binade, an open interval
    between two neighbouring powers of two of one sign (the top one ending at
    inf), total is exactly its newest phase less its oldest: each increment is
    exact by Sterbenz's lemma, and each partial sum is a multiple of the
    binade's spacing (2**-1074 among subnormals) below its lower end, so a
    float. run counts the newest phases inside the binade (lo, hi) of the
    latest phase to leave the one before. Any other window (across a power of
    two or a sign, or holding a zero, inf, NaN or a power of two) goes to
    _window_sum, as there the difference can round differently.
    """
    phases = [bias_deg]
    lo, hi = _binade(bias_deg)
    run = 1 if lo < bias_deg < hi else 0
    prev = bias_deg
    for oldest, step in enumerate(steps, -memory):
        if run > memory:
            value = prev + (prev - phases[oldest] + step) / memory
        elif oldest < 0:
            value = prev + step
        else:
            value = prev + (_window_sum(phases, memory) + step) / memory
        phases.append(value)
        if lo < value < hi:
            run += 1
        else:
            lo, hi = _binade(value)
            run = 1 if lo < value < hi else 0
        prev = value
    return np.array(phases[1:])


def _binade(value: float) -> tuple[float, float]:
    """The open interval between the powers of two on either side of a finite
    nonzero value, (2**1023, inf) at the top; zero, inf and NaN lie outside theirs."""
    low = math.ldexp(0.5, math.frexp(value)[1])
    return (low, 2.0 * low) if value > 0 else (-2.0 * low, -low)


def _window_sum(phases: list[float], memory: int) -> float:
    """The last `memory` increments of phases summed from 0.0, newest first."""
    total = 0.0
    newest = len(phases) - 1
    for j in range(newest, newest - memory, -1):
        total += phases[j] - phases[j - 1]
    return total


def _carrier_period_ns(carrier_hz: float) -> float:
    """One carrier period in ns. An infinite carrier would zero every delay; one
    below about 5.6e-300 Hz has an infinite period, giving NaN delays."""
    if math.isinf(period := 1e9 / require_positive(carrier_hz, "carrier_hz")):
        raise ValueError(f"carrier_hz must be large enough for a finite period, got {carrier_hz!r}")
    return period


def phase_to_delay(phase_deg, carrier_hz: float = DEFAULT_CARRIER_HZ):
    """Delay (ns) equivalent to a carrier phase shift: one full turn is one
    carrier period."""
    return phase_deg / 360.0 * _carrier_period_ns(carrier_hz)


def apply_schedule(series: TimeErrorSeries, schedule: PhaseSchedule, sign: int) -> TimeErrorSeries:
    """Add sign * (per-dwell delay) to a time-error series.

    The series sampling interval must divide the dwell; the schedule must
    cover the whole series. Sample i falls in dwell floor(i*tau0/dwell).
    Applying with one sign and then the other restores the input exactly
    (integer-valued samples) or to within 1 ulp (general floats).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = len(series.samples_ns)
    ratio = schedule.dwell_s / series.tau0_s
    per_dwell = round(ratio) if math.isfinite(ratio) else 0  # an overflowing ratio fits no dwell
    if per_dwell < 1 or abs(ratio - per_dwell) > 1e-9 * per_dwell:
        raise ValueError("series sampling interval must divide the schedule dwell")
    if n == 0:
        return TimeErrorSeries(series.samples_ns, series.tau0_s)
    last = (n - 1) // per_dwell  # the dwell of the last sample
    if last >= len(schedule):
        raise ValueError(
            f"schedule too short: {len(schedule)} steps for {n} samples ({per_dwell} per dwell)"
        )
    delays = schedule.delays_ns()[: last + 1]
    largest = float(np.abs(delays).max())
    if largest / DELAY_GRID_NS == math.inf:  # Python floats: no numpy overflow warning
        raise ValueError(f"delay {largest!r} ns is too large for the 2**-20 ns delay grid")
    # power-of-two grid: the snapped values add/subtract exactly in float64
    delays = sign * (np.round(delays / DELAY_GRID_NS) * DELAY_GRID_NS)
    return TimeErrorSeries(series.samples_ns + np.repeat(delays, per_dwell)[:n], series.tau0_s)
