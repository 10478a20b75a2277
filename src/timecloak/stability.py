"""Time-error series and their Allan-deviation analysis.

The overlapping Allan deviation is computed from time-error (phase) data:

    avar(m*tau0) = sum_i (x[i+2m] - 2*x[i+m] + x[i])^2 / (2*(m*tau0)^2*(N-2m))

with the sum running over i = 0 .. N-1-2m. Samples are converted from
nanoseconds to seconds first, so the returned deviation is the usual
dimensionless sigma_y. The squared second differences are summed exactly
and rounded once: their high and low mantissa halves are accumulated per
binary exponent, where float addition is exact (see _allan_sum), which
gives the same correctly rounded value as math.fsum. That keeps the result
bit-identical to a literal evaluation of the defining sum at any series
length.

The terms of each averaging factor are built and bucketed block by block,
_SUM_CHUNK terms at a time, in three buffers allocated once per
overlapping_adev call, so no full-length array of terms exists. If a block
holds a non-finite term (an overflowing square) or the bucket totals
overflow, the whole term array of that factor is built and summed with
math.fsum, which gives inf or raises OverflowError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tables import csv_text

NS_PER_S = 1e9

#: slope bands (log adev vs log tau) used by classify_noise
WHITE_PHASE_BAND = (-1.15, -0.85)
RANDOM_WALK_PHASE_BAND = (-0.65, -0.35)

DECORRELATION_THRESHOLD = 1.0 / math.e

#: terms per block of _allan_sum: at most 2**26 keeps its bucket sums
#: exact; a block of float and int64 buffers stays in cache
_SUM_CHUNK = 1 << 15
#: int64 mask that clears the low 26 bits of a double's fraction
_HIGH_MASK = -(1 << 26)
#: sign and exponent field of +inf: finite non-negative doubles lie below it
_INF_EXPONENT = 0x7FF


def finite_array(values, name: str) -> np.ndarray:
    """values copied into a read-only 1-D float64 array. ValueError naming
    the field if they are not one-dimensional or not all finite."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN or inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeErrorSeries:
    """Uniformly sampled time errors of a signal against the reference clock.

    samples_ns holds the errors in nanoseconds; tau0_s is the sampling
    interval. The sample array is made read-only on construction.
    """

    samples_ns: np.ndarray
    tau0_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples_ns", finite_array(self.samples_ns, "samples_ns"))
        if not (math.isfinite(self.tau0_s) and self.tau0_s > 0):
            raise ValueError("tau0_s must be finite and > 0")
        # a float interval keeps times such as the CSV time_s column in float form
        object.__setattr__(self, "tau0_s", float(self.tau0_s))

    def __len__(self) -> int:
        return len(self.samples_ns)


@dataclass(frozen=True, eq=False)
class AdevCurve:
    """Allan deviation with uncertainties over a set of averaging times."""

    taus_s: np.ndarray
    adev: np.ndarray
    sigma_adev: np.ndarray

    def __post_init__(self) -> None:
        # copies, made read-only below: the caller's arrays stay its own; an
        # overflowing Allan sum makes an infinite deviation, so inf is kept
        taus = np.array(self.taus_s, dtype=np.float64)
        dev = np.array(self.adev, dtype=np.float64)
        sig = np.array(self.sigma_adev, dtype=np.float64)
        if not (len(taus) == len(dev) == len(sig)):
            raise ValueError("curve arrays must have equal length")
        if len(taus) and np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        if np.any(dev < 0) or np.any(sig < 0):
            raise ValueError("adev and sigma_adev must be non-negative")
        for name, arr in (("taus_s", taus), ("adev", dev), ("sigma_adev", sig)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.taus_s)

    def csv_text(self) -> str:
        """CSV columns tau_s, adev, sigma_adev (log-log plottable as-is)."""
        columns = (self.taus_s, self.adev, self.sigma_adev)
        return csv_text("tau_s,adev,sigma_adev", *(map(repr, c.tolist()) for c in columns))


class NoiseClass(Enum):
    WHITE_PHASE = "white_phase"
    RANDOM_WALK_PHASE = "random_walk_phase"
    INDETERMINATE = "indeterminate"


def default_m_values(n_samples: int) -> list[int]:
    """Octave-spaced averaging factors 1, 2, 4, ... up to (N-1)/2."""
    out = []
    m = 1
    while m <= (n_samples - 1) // 2:
        out.append(m)
        m *= 2
    return out


def _allan_sum(x: np.ndarray, m: int, buffers) -> float:
    """Correctly rounded sum of the n - 2m Allan terms of factor m, in blocks.

    buffers are the float term, int64 exponent and int64 high-part arrays,
    each at least min(_SUM_CHUNK, n - 2m) long. A finite non-negative
    double with exponent field e is an integer multiple of
    u = 2**(max(e, 1) - 1075) below 2**53 * u. Clearing the low 26 fraction
    bits splits it exactly into a high part, a multiple of 2**26 * u, and a
    low part below 2**26 * u, which overwrites the term. Summed per exponent
    with np.bincount, up to 2**26 high or low parts stay below 2**53 of
    their unit, so every bucket sum is exact in any order. math.fsum then
    rounds the total of the bucket sums once. If a term is not finite, or
    the bucket sums overflow, all terms are built in one array and left to
    math.fsum.
    """
    n_terms = x.size - 2 * m
    terms, exponents, high = buffers
    sums = []
    for start in range(0, n_terms, _SUM_CHUNK):
        k = min(_SUM_CHUNK, n_terms - start)
        block, block_exponents, block_high = terms[:k], exponents[:k], high[:k]
        _squared_differences(x, m, start, block)
        # exponent fields: an infinite term's is _INF_EXPONENT
        np.right_shift(block.view(np.uint64), 52, out=block_exponents.view(np.uint64))
        np.bitwise_and(block.view(np.int64), _HIGH_MASK, out=block_high)
        high_part = block_high.view(np.float64)
        buckets = np.bincount(block_exponents, weights=high_part)
        if buckets.size > _INF_EXPONENT:
            break
        sums.append(buckets[buckets != 0])
        block -= high_part
        buckets = np.bincount(block_exponents, weights=block)
        sums.append(buckets[buckets != 0])
    else:
        total = np.concatenate(sums)
        if not np.isinf(total).any():
            return math.fsum(total.tolist())
    every_term = np.empty(n_terms)
    _squared_differences(x, m, 0, every_term)
    return math.fsum(every_term.tolist())


def _squared_differences(x: np.ndarray, m: int, start: int, out: np.ndarray) -> None:
    """Write the Allan terms ((x[i+2m] - 2*x[i+m] + x[i]) / 1e9)**2 for
    i = start .. start + len(out) - 1 into out."""
    stop = start + out.size
    # differences in ns keep exact cancellations; overflowing squares give inf
    np.multiply(x[start + m : stop + m], 2.0, out=out)
    np.subtract(x[start + 2 * m : stop + 2 * m], out, out=out)
    out += x[start:stop]
    out *= 1.0 / NS_PER_S
    out *= out


def require_adev_interval(tau0_s: float, name: str) -> None:
    """Reject a positive interval below 2**-511 s, where the (m * tau0)**2 that
    the Allan variance divides by underflows to a subnormal or to zero."""
    if tau0_s < 2.0**-511:
        raise ValueError(f"{name} must be >= 2**-511 s for an Allan deviation, got {tau0_s!r}")


def overlapping_adev(series: TimeErrorSeries) -> AdevCurve:
    """Overlapping Allan deviation of a series at the factors default_m_values(N).

    The one-sigma uncertainty uses the plain white-noise approximation with
    N-2m degrees of freedom.
    """
    x = series.samples_ns
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples for an Allan deviation")
    require_adev_interval(series.tau0_s, "tau0_s")
    size = min(_SUM_CHUNK, n - 2)
    buffers = np.empty(size), np.empty(size, np.int64), np.empty(size, np.int64)
    taus, devs, sigmas = [], [], []
    for m in default_m_values(n):
        with np.errstate(over="ignore"):
            total = _allan_sum(x, m, buffers)
        tau = m * series.tau0_s
        avar = total / (2.0 * tau * tau * (n - 2 * m))
        dev = math.sqrt(avar)
        taus.append(tau)
        devs.append(dev)
        sigmas.append(dev / math.sqrt(n - 2 * m))
    return AdevCurve(np.array(taus), np.array(devs), np.array(sigmas))


def fit_loglog_slope(curve: AdevCurve, tau_range=None) -> float:
    """Least-squares slope of log(adev) vs log(tau) over an optional tau window."""
    taus = curve.taus_s
    devs = curve.adev
    if tau_range is not None:
        lo, hi = tau_range
        mask = (taus >= lo) & (taus <= hi)
    else:
        mask = np.ones(len(taus), dtype=bool)
    if int(mask.sum()) < 3:
        raise ValueError("need at least 3 curve points in the requested tau range")
    if np.any(devs[mask] <= 0):
        raise ValueError("cannot fit a log-log slope through non-positive adev values")
    coeffs = np.polyfit(np.log10(taus[mask]), np.log10(devs[mask]), 1)
    return float(coeffs[0])


def classify_noise(slope: float) -> NoiseClass:
    """Map a log-log slope to a phase-noise class (bands are inclusive)."""
    if WHITE_PHASE_BAND[0] <= slope <= WHITE_PHASE_BAND[1]:
        return NoiseClass.WHITE_PHASE
    if RANDOM_WALK_PHASE_BAND[0] <= slope <= RANDOM_WALK_PHASE_BAND[1]:
        return NoiseClass.RANDOM_WALK_PHASE
    return NoiseClass.INDETERMINATE


def decorrelation_steps(series: TimeErrorSeries) -> int:
    """Smallest lag at which the normalized autocorrelation drops below
    DECORRELATION_THRESHOLD (1/e).

    Uses the biased sample autocorrelation of the mean-removed series. If no
    lag up to N-1 crosses the threshold the series length is returned
    (saturated).
    """
    n = len(series)
    if n < 100:
        raise ValueError("need at least 100 samples to estimate decorrelation")
    x = series.samples_ns - series.samples_ns.mean()
    spectrum = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(spectrum * np.conj(spectrum))[:n]
    if acf[0] <= 0:
        raise ValueError("series has zero variance")
    rho = acf / acf[0]
    below = np.nonzero(rho[1:] < DECORRELATION_THRESHOLD)[0]
    if below.size == 0:
        return n
    return int(below[0]) + 1
