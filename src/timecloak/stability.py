"""Time-error series and their Allan-deviation analysis.

The overlapping Allan deviation is computed from time-error (phase) data:

    avar(m*tau0) = sum_i (x[i+2m] - 2*x[i+m] + x[i])^2 / (2*(m*tau0)^2*(N-2m))

with the sum running over i = 0 .. N-1-2m. Samples are converted from
nanoseconds to seconds first, so the returned deviation is the usual
dimensionless sigma_y. The squared second differences are summed exactly
and rounded once: their high and low mantissa halves are accumulated per
binary exponent, where float addition is exact (see _exact_sum), which
gives the same correctly rounded value as math.fsum. That keeps the result
bit-identical to a literal evaluation of the defining sum at any series
length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tables import csv_text, write_text

NS_PER_S = 1e9

#: slope bands (log adev vs log tau) used by classify_noise
WHITE_PHASE_BAND = (-1.15, -0.85)
RANDOM_WALK_PHASE_BAND = (-0.65, -0.35)

DEFAULT_DECORRELATION_THRESHOLD = 1.0 / math.e

#: terms per pass of _exact_sum: at most 2**26 keeps its bucket sums exact;
#: small passes keep its temporaries small and in cache
_SUM_CHUNK = 1 << 13
#: int64 mask that clears the low 26 bits of a double's fraction
_HIGH_MASK = -(1 << 26)
#: bit pattern of +inf: finite non-negative doubles lie below it as unsigned ints
_INF_BITS = 0x7FF0_0000_0000_0000


@dataclass(frozen=True)
class TimeErrorSeries:
    """Uniformly sampled time errors of a signal against the reference clock.

    samples_ns holds the errors in nanoseconds; tau0_s is the sampling
    interval. The sample array is made read-only on construction.
    """

    samples_ns: np.ndarray
    tau0_s: float

    def __post_init__(self) -> None:
        arr = np.array(self.samples_ns, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("samples_ns must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples_ns must be finite (no NaN or inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "samples_ns", arr)
        if not (math.isfinite(self.tau0_s) and self.tau0_s > 0):
            raise ValueError("tau0_s must be finite and > 0")
        # a float interval keeps times such as the CSV time_s column in float form
        object.__setattr__(self, "tau0_s", float(self.tau0_s))

    def __len__(self) -> int:
        return len(self.samples_ns)

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(len(self.samples_ns)) * self.tau0_s


@dataclass(frozen=True)
class AdevCurve:
    """Allan deviation with uncertainties over a set of averaging times."""

    taus_s: np.ndarray
    adev: np.ndarray
    sigma_adev: np.ndarray

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus_s, dtype=np.float64)
        dev = np.asarray(self.adev, dtype=np.float64)
        sig = np.asarray(self.sigma_adev, dtype=np.float64)
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

    def write_csv(self, path) -> None:
        """Write csv_text() to path."""
        write_text(path, self.csv_text())


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


def _exact_sum(terms: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array; equals math.fsum(terms.tolist()).

    A finite non-negative double with exponent field e is an integer
    multiple of u = 2**(max(e, 1) - 1075) below 2**53 * u. Clearing the low
    26 fraction bits splits it exactly into a high part, a multiple of
    2**26 * u, and a low part below 2**26 * u. Summed per exponent with
    np.bincount, up to 2**26 high or low parts stay below 2**53 of their
    unit, so every bucket sum is exact in any order. math.fsum then rounds
    the total of the bucket sums once. Arrays holding a negative or
    non-finite term, and sums that overflow, are left to math.fsum.
    """
    if terms.size and terms.view(np.uint64).max() >= _INF_BITS:
        return math.fsum(terms.tolist())
    bits = terms.view(np.int64)
    sums = [np.zeros(0)]
    for start in range(0, terms.size, _SUM_CHUNK):
        chunk = bits[start : start + _SUM_CHUNK]
        exponents = chunk >> 52
        high = (chunk & _HIGH_MASK).view(np.float64)
        for part in (high, terms[start : start + _SUM_CHUNK] - high):
            buckets = np.bincount(exponents, weights=part)
            sums.append(buckets[buckets != 0])
    total = np.concatenate(sums)
    if np.isinf(total).any():
        return math.fsum(terms.tolist())
    return math.fsum(total.tolist())


def overlapping_adev(series: TimeErrorSeries, m_values=None) -> AdevCurve:
    """Overlapping Allan deviation of a time-error series.

    Each averaging factor m must satisfy 1 <= m <= (N-1)/2. The one-sigma
    uncertainty uses the plain white-noise approximation with N-2m degrees
    of freedom.
    """
    x = series.samples_ns
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples for an Allan deviation")
    if m_values is None:
        m_values = default_m_values(n)
    m_values = sorted(int(m) for m in m_values)
    limit = (n - 1) // 2
    taus, devs, sigmas = [], [], []
    for m in m_values:
        if not 1 <= m <= limit:
            raise ValueError(f"averaging factor m={m} outside 1 <= m <= (N-1)/2 = {limit}")
        # differences in ns keep exact cancellations; overflowing squares give inf
        with np.errstate(over="ignore"):
            d = x[2 * m :] - 2.0 * x[m : n - m]
            d += x[: n - 2 * m]
            d *= 1.0 / NS_PER_S
            d *= d
        total = _exact_sum(d)
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


def decorrelation_steps(
    series: TimeErrorSeries, threshold: float = DEFAULT_DECORRELATION_THRESHOLD
) -> int:
    """Smallest lag at which the normalized autocorrelation drops below threshold.

    Uses the biased sample autocorrelation of the mean-removed series. If no
    lag up to N-1 crosses the threshold the series length is returned
    (saturated).
    """
    n = len(series)
    if n < 100:
        raise ValueError("need at least 100 samples to estimate decorrelation")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    x = series.samples_ns - series.samples_ns.mean()
    spectrum = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(spectrum * np.conj(spectrum))[:n]
    if acf[0] <= 0:
        raise ValueError("series has zero variance")
    rho = acf / acf[0]
    below = np.nonzero(rho[1:] < threshold)[0]
    if below.size == 0:
        return n
    return int(below[0]) + 1
