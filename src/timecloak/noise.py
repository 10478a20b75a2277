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

All walks can be run with an output bound: the emitted phase becomes
bound_deg * sin(raw phase) while the recursion keeps evolving on the raw,
unbounded state (the bounded-state variant is available as a switch).
Phases are carried in degrees throughout; radians appear only inside the
sine bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .keys import HexKeyStream
from .stability import TimeErrorSeries

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
    "white": NoiseKind.WHITE,
    "rw": NoiseKind.RANDOM_WALK,
    "random_walk": NoiseKind.RANDOM_WALK,
    "rw_lag": NoiseKind.RW_LAG,
    "lagged_walk": NoiseKind.RW_LAG,
    "rw_mem": NoiseKind.RW_MEMORY,
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
    balanced walk); lag and memory are only meaningful for the RW_LAG and
    RW_MEMORY kinds; bound_deg, when set, bounds the emitted phase to
    [-bound_deg, +bound_deg] via the sine map.
    """

    kind: NoiseKind = NoiseKind.WHITE
    divisor: float = DEFAULT_DIVISOR
    sign_threshold: int = DEFAULT_SIGN_THRESHOLD
    lag: int | None = None
    memory: int | None = None
    bias_deg: float = 0.0
    bound_deg: float | None = None
    bound_recursion: bool = False

    def __post_init__(self) -> None:
        for name in ("divisor", "bias_deg", "bound_deg"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.divisor > 0:
            raise ValueError("divisor must be > 0")
        if not 0 <= self.sign_threshold <= 15:
            raise ValueError("sign_threshold must be a hex digit in [0, 15]")
        if self.bound_deg is not None and not self.bound_deg > 0:
            raise ValueError("bound_deg must be > 0 when set")
        if self.kind is NoiseKind.RW_LAG and self.lag is None:
            raise ValueError("RW_LAG model needs a lag")
        if self.kind is NoiseKind.RW_MEMORY and self.memory is None:
            raise ValueError("RW_MEMORY model needs a memory depth")

    @property
    def digits_per_step(self) -> int:
        return 2 if self.kind is NoiseKind.WHITE else 3


@dataclass(frozen=True)
class PhaseSchedule:
    """A timed sequence of phase values held constant over dwell intervals.

    Interval i covers [i*dwell_s, (i+1)*dwell_s), left-closed.
    """

    phases_deg: tuple[float, ...]
    dwell_s: float = DEFAULT_DWELL_S
    carrier_hz: float = DEFAULT_CARRIER_HZ

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases_deg", tuple(float(p) for p in self.phases_deg))
        if not self.dwell_s > 0:
            raise ValueError("dwell_s must be > 0")
        if not self.carrier_hz > 0:
            raise ValueError("carrier_hz must be > 0")

    def __len__(self) -> int:
        return len(self.phases_deg)

    def delays_ns(self) -> np.ndarray:
        """Per-step delay equivalent of each phase at the carrier frequency."""
        return phase_to_delay(np.asarray(self.phases_deg), self.carrier_hz)

    def write_csv(self, path) -> None:
        """CSV columns step_index, phase_deg, delay_ns."""
        lines = ["step_index,phase_deg,delay_ns"]
        for i, (phase, delay) in enumerate(zip(self.phases_deg, self.delays_ns().tolist())):
            lines.append(f"{i},{phase!r},{delay!r}")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


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
    recursion evolves on the raw state (unless bound_recursion is set, in
    which case the bounded value is fed back).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if n_steps == 0:
        return PhaseSchedule((), dwell_s, carrier_hz)

    if model.kind in (NoiseKind.WHITE, NoiseKind.RANDOM_WALK):
        return PhaseSchedule(_array_schedule(stream, model, n_steps), dwell_s, carrier_hz)

    _validate_window(model, n_steps)
    bound = model.bound_deg
    state: list[float] = []
    emitted = []
    for i, triplet in enumerate(stream.take_triplets(n_steps)):
        if model.kind is NoiseKind.RW_LAG:
            value = rw_lag_step(
                state, i, triplet, model.lag, model.divisor, model.sign_threshold, model.bias_deg
            )
        else:
            value = rw_mem_step(
                state, i, triplet, model.memory, model.divisor, model.sign_threshold, model.bias_deg
            )
        if bound is None:
            state.append(value)
            emitted.append(value)
        elif model.bound_recursion:
            b = bound_phase(value, bound)
            state.append(b)
            emitted.append(b)
        else:
            state.append(value)
            emitted.append(bound_phase(value, bound))
    return PhaseSchedule(tuple(emitted), dwell_s, carrier_hz)


def _array_schedule(stream: HexKeyStream, model: NoiseModelSpec, n_steps: int) -> list[float]:
    """Emitted phases of the white and plain-walk models, built with array
    operations on the decoded digits.

    Each value equals what white_phase, rw_step and bound_phase give step
    by step: magnitudes are exact integers divided once, and the walk is a
    running sum seeded with the bias. Only a walk whose recursion runs on
    the bounded state needs a step-by-step loop.
    """
    digits = stream.take_digits(n_steps, model.digits_per_step)
    pairs = digits[:, -2:].astype(np.float64)
    magnitudes = (16.0 * pairs[:, 0] + pairs[:, 1]) / model.divisor
    bound = model.bound_deg
    if model.kind is NoiseKind.WHITE:
        raw = magnitudes
    else:
        steps = np.where(digits[:, 0] >= model.sign_threshold, magnitudes, -magnitudes)
        if bound is not None and model.bound_recursion:
            phase = model.bias_deg
            emitted = []
            for step in steps.tolist():
                phase = bound_phase(phase + step, bound)
                emitted.append(phase)
            return emitted
        raw = np.cumsum(np.concatenate(([model.bias_deg], steps)))[1:]
    if bound is None:
        return raw.tolist()
    return [bound_phase(p, bound) for p in raw.tolist()]


def phase_to_delay(phase_deg, carrier_hz: float = DEFAULT_CARRIER_HZ):
    """Delay (ns) equivalent to a carrier phase shift: one full turn is one
    carrier period."""
    if not carrier_hz > 0:
        raise ValueError("carrier_hz must be > 0")
    return phase_deg / 360.0 * (1e9 / carrier_hz)


def _snap_to_grid(delays_ns: np.ndarray) -> np.ndarray:
    # power-of-two grid: the snapped values add/subtract exactly in float64
    return np.round(delays_ns / DELAY_GRID_NS) * DELAY_GRID_NS


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
    per_dwell = round(ratio)
    if per_dwell < 1 or abs(ratio - per_dwell) > 1e-9 * per_dwell:
        raise ValueError("series sampling interval must divide the schedule dwell")
    if n == 0:
        return TimeErrorSeries(series.samples_ns, series.tau0_s)
    idx = np.arange(n) // per_dwell
    if idx[-1] >= len(schedule.phases_deg):
        raise ValueError(
            f"schedule too short: {len(schedule.phases_deg)} steps for {n} samples "
            f"({per_dwell} per dwell)"
        )
    delays = _snap_to_grid(schedule.delays_ns())
    return TimeErrorSeries(series.samples_ns + sign * delays[idx], series.tau0_s)
