"""Time-error series, their Allan-deviation analysis, and the number rules that
every value type shares: require_finite for a spec, require_positive for a quantity.

The overlapping Allan deviation is computed from time-error (phase) data:

    avar(m*tau0) = sum_i (x[i+2m] - 2*x[i+m] + x[i])^2 / (2*(m*tau0)^2*(N-2m))

with the sum running over i = 0 .. N-1-2m. Samples are converted from
nanoseconds to seconds first, so the returned deviation is the usual
dimensionless sigma_y. The squared second differences are summed exactly
and rounded once: a level of error-free extraction splits each block of
terms into parts whose sums are exact, and a power-of-two bound covers the
float sum of what is left, or 0 when nothing is left (see _allan_sum).
When math.fsum rounds the parts less and plus the bounds to the same
double, that double is the correctly rounded total, the value math.fsum
gives over the terms. One level certifies almost every factor; one whose
two roundings differ is split again at two levels, whose bound is far
tighter. That keeps the result bit-identical to a literal evaluation of the
defining sum at any series length.

The terms of each averaging factor are built and split block by block,
_SUM_CHUNK terms at a time, in two float buffers allocated once per
overlapping_adev call, so no full-length array of terms exists. If the
largest term of a block lies outside [2**-900, 2**900) (an overflowing
square among them), or the two roundings differ at two levels too, the
whole term array of that factor is built and summed with math.fsum, which
gives inf or raises OverflowError where the sum overflows.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .tables import csv_text

NS_PER_S = 1e9

#: slope bands (log adev vs log tau) used by classify_noise
WHITE_PHASE_BAND = (-1.15, -0.85)
RANDOM_WALK_PHASE_BAND = (-0.65, -0.35)

DECORRELATION_THRESHOLD = 1.0 / math.e
#: eta of Higham's FFT error bound, about 5u (see _rho_error)
_FFT_ETA = 5 * 2.0**-53
#: factor by which _rho_error exceeds the derived bound
_ACF_SAFETY = 16

#: terms per block of _allan_sum, in two float buffers of 512 KiB; on 524,288
#: samples, 2**16 ran about 2% faster than 2**15 (2-vCPU Xeon VM, numpy 2.4)
_SUM_CHUNK = 1 << 16
#: block tops that _allan_sum extracts: every sigma, unit and bound is then an
#: exact power of two, a normal double but for the smallest bounds, far from overflow
_EXTRACT_RANGE = (2.0**-900, 2.0**900)
#: log2 of a block's residual-sum error bound over 4**h * sigma, its last level's (see _allan_sum)
_BOUND_EXPONENT = -105


def _require_float_range(value, name: str) -> None:
    """Refuse an int that no float can hold, naming the field."""
    if isinstance(value, int) and abs(value) >= 2**1024 - 2**970:  # float() rounds it to 2**1024
        raise ValueError(f"{name} must fit in a float, got an int of {value.bit_length()} bits")


def require_finite(obj, integers=()) -> None:
    """Check every number field of a spec dataclass: a float, numpy's too,
    must be finite; a field named in integers must hold an integer, of any
    size; any other int is a quantity and must fit in a float."""
    spec = type(obj).__name__
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ValueError(f"{spec}.{f.name} must be finite, got {value!r}")
        if f.name in integers:
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{spec}.{f.name} must be an integer, got {value!r}")
        else:
            _require_float_range(value, f"{spec}.{f.name}")


def require_positive(value, name: str) -> float:
    """value as a float, given a number that fits in a float, finite and > 0;
    else ValueError naming the field. A non-number, a str too, is a TypeError."""
    _require_float_range(value, name)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


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
        # a float interval keeps times such as the CSV time_s column in float form
        object.__setattr__(self, "tau0_s", require_positive(self.tau0_s, "tau0_s"))

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
        if not np.all(np.isfinite(taus) & (taus > 0)):
            raise ValueError("taus_s must be finite and > 0")
        if len(taus) and np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        if not (np.all(dev >= 0) and np.all(sig >= 0)):  # False for NaN too
            raise ValueError("adev and sigma_adev must be non-negative, not NaN")
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

    buffers are two float arrays, each at least min(_SUM_CHUNK, n - 2m) long:
    the terms of a block, and what is extracted from them. The terms are
    non-negative. For a block of k terms whose largest lies in [2**(e-1),
    2**e), let 2**h >= k + 2 and sigma1 = 2**(e + h). Error-free extraction
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008) splits each
    term p exactly into q = (p + sigma) - sigma, a multiple of 2**-53 * sigma,
    and p - q, at most 2**-53 * sigma in size; k such q stay below 2**53 of
    that unit, so their sum is exact in any order. A second level at sigma2 =
    2**(h - 53) * sigma1 does the same to the first level's remainders. The
    float sum of the k remainders left after the last level, at sigma, errs
    by at most gamma(k - 1) * k * 2**-53 * sigma (Higham), below the power of
    two 2**(2h - 105) * sigma. So the exact total lies within the sum of the
    bounds of the sum of the parts, and when math.fsum rounds both ends of
    that interval to one double, it is the correctly rounded total.

    Every factor is first split at one level. Its ends round apart only if a
    rounding boundary lies inside the interval, 2**(2h - 104) * sigma1 wide
    per block: rare beside a total of many terms of like size (2 of 6,237
    factors of fuzzed series took the second level), but certain for a total
    exactly halfway between two doubles, unless the remainders left are all
    zero in every block, whose bound is then 0. Such a factor is split again
    at two levels, whose interval is 2**(h - 53) as wide. If its ends still
    round apart, or if a block's top term is outside _EXTRACT_RANGE or not
    finite, all terms are built in one array and left to math.fsum.
    """
    for levels in (1, 2):
        split = _extracted_parts(x, m, buffers, levels)
        if split is None:
            break
        parts, bounds = split
        # an all-zero factor has no parts and gives fsum([]), +0.0
        total = math.fsum(parts + bounds)
        if math.fsum(parts + [-bound for bound in bounds]) == total:
            return total
    every_term = np.empty(x.size - 2 * m)
    _squared_differences(x, m, 0, every_term)
    return math.fsum(every_term.tolist())


def _extracted_parts(x: np.ndarray, m: int, buffers, levels: int):
    """The exact parts and the error bounds of each block of _allan_sum at
    1 or 2 extraction levels, as two lists, or None at the first block whose
    top term is outside _EXTRACT_RANGE or not finite."""
    n_terms = x.size - 2 * m
    terms, extracted = buffers
    parts, bounds = [], []
    for start in range(0, n_terms, _SUM_CHUNK):
        k = min(_SUM_CHUNK, n_terms - start)
        block, q = terms[:k], extracted[:k]
        _squared_differences(x, m, start, block)
        top = float(block.max())
        if top == 0.0:
            continue
        if not _EXTRACT_RANGE[0] <= top < _EXTRACT_RANGE[1]:  # also inf
            return None
        h = (k + 2).bit_length()
        sigma = math.ldexp(1.0, math.frexp(top)[1] + h)
        for level in range(levels):
            if level:
                sigma = math.ldexp(sigma, h - 53)
            np.add(block, sigma, out=q)
            q -= sigma
            block -= q
            parts.append(float(q.sum()))
        rest = float(block.sum())
        parts.append(rest)
        # remainders that are all zero sum exactly, so a tied total still certifies
        exact = rest == 0.0 and not block.any()
        bounds.append(0.0 if exact else math.ldexp(sigma, 2 * h + _BOUND_EXPONENT))
    return parts, bounds


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


def require_adev_interval(tau0_s: float, name: str, n_samples: int) -> None:
    """Reject what require_positive refuses, an interval below 2**-511 s, where
    the (m * tau0)**2 that the Allan variance divides by underflows to a subnormal
    or 0, and one whose divisor 2 * (m * tau0)**2 * (N - 2m) overflows at some
    factor m of N samples, which would give a deviation of 0. That divisor peaks
    near m = N/3, not always at the largest factor, so every factor is checked."""
    if require_positive(tau0_s, name) < 2.0**-511:
        raise ValueError(f"{name} must be >= 2**-511 s for an Allan deviation, got {tau0_s!r}")
    for m in default_m_values(n_samples):
        tau = m * tau0_s
        if math.isinf(2.0 * tau * tau * (n_samples - 2 * m)):
            raise ValueError(
                f"{name} must be small enough that 2 * (m * tau0)**2 * (N - 2m) is finite "
                f"for an Allan deviation of {n_samples} samples (m = {m}), got {tau0_s!r}"
            )


def overlapping_adev(series: TimeErrorSeries) -> AdevCurve:
    """Overlapping Allan deviation of a series at the factors default_m_values(N).

    The one-sigma uncertainty uses the plain white-noise approximation with
    N-2m degrees of freedom.
    """
    x = series.samples_ns
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 samples for an Allan deviation")
    require_adev_interval(series.tau0_s, "tau0_s", n)
    size = min(_SUM_CHUNK, n - 2)
    buffers = np.empty(size), np.empty(size)
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
    if not np.all(np.isfinite(devs[mask])):
        raise ValueError("cannot fit a log-log slope through non-finite adev values")
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

    Uses the biased sample autocorrelation rho of the mean-removed series.
    The samples are first scaled by the power of two that puts their largest
    magnitude in [0.5, 1), exactly for every value in the normal range, so
    rho is that of the series; the mean-removed series then lies in (-2, 2)
    and is either all zero or at least 2**-54 somewhere, so no finite series
    is too small or too large for its autocorrelation.

    The lag is the first crossing of the series zero-padded to 2n points,
    whose circular autocorrelation holds every linear lag. It is taken from
    a shorter transform when that one certifies it (_padded_lag); else the
    2n-point transform runs. A series whose samples are all equal has no
    variance and is a ValueError before either transform: its mean can round
    (0.1 * 1000 / 1000), and the constant residue left would decorrelate.
    """
    n = len(series)
    if n < 100:
        raise ValueError("need at least 100 samples to estimate decorrelation")
    exponent = _unit_exponent(series.samples_ns)
    if exponent is None:  # a rounded mean would leave a constant residue, not variance
        raise ValueError("series has zero variance")
    x = np.ldexp(series.samples_ns, exponent)
    x -= x.mean()
    lag = _padded_lag(x)
    if lag is not None:
        return lag
    acf = _autocorrelation(x, 2 * n, n)
    if acf[0] <= 0:
        raise ValueError("series has zero variance")
    rho = acf / acf[0]
    # lags 1..N-1 sum to -acf[0]/2, as (sum x)**2 == 0, so a lag below N crosses
    # and argmax finds the first True
    return int(np.argmax(rho[1:] < DECORRELATION_THRESHOLD)) + 1


def _padded_lag(x: np.ndarray) -> int | None:
    """The first lag at which rho of x crosses 1/e in the 2n-point transform,
    found from a transform of M = _smooth_length(n + n // 4) points, or None.

    The circular autocorrelation of x zero-padded to M points holds the
    exact linear lags 0..M-n. The first lag there whose rho falls below
    1/e + delta, with delta = _rho_error(M) + _rho_error(2n), is returned
    when its rho is also below 1/e - delta: each computed rho lies within
    _rho_error of the exact one, so the 2n-point rho is at or above 1/e at
    every earlier lag and below it at this one. None when the crossing lies
    beyond M-n, the margin is thin or acf[0] is not positive.
    """
    n = x.size
    size = _smooth_length(n + n // 4)
    acf = _autocorrelation(x, size, size - n + 1)
    if not acf[0] > 0:
        return None
    rho = acf / acf[0]
    margin = _rho_error(size) + _rho_error(2 * n)
    lag = int(np.argmax(rho[1:] < DECORRELATION_THRESHOLD + margin)) + 1
    return lag if rho[lag] < DECORRELATION_THRESHOLD - margin else None


def _unit_exponent(x: np.ndarray) -> int | None:
    """The k for which x * 2**k has its largest magnitude in [0.5, 1); None if
    every value of x is the same."""
    top, bottom = float(x.max()), float(x.min())
    return None if top == bottom else -math.frexp(max(top, -bottom))[1]


def _smooth_length(target: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= target, a length numpy's FFT runs fast."""
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _autocorrelation(x: np.ndarray, size: int, lags: int) -> np.ndarray:
    """Lags 0..lags-1 of the circular autocorrelation of x zero-padded to size."""
    spectrum = np.fft.rfft(x, size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:lags]


def _rho_error(size: int) -> float:
    """A bound on the error of each rho[k] = acf[k] / acf[0] that _autocorrelation
    computes at this size, for any x of n <= size points.

    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2)
    bounds an FFT's normwise error by L * eta * ||y||, L = log2(size), where
    eta = mu + gamma_4 * (sqrt(2) + mu) is about 5u for twiddle factors
    accurate to mu ~ u. With S = sum x**2 = acf[0], the spectrum y has
    ||y|| = sqrt(size * S) and max|y| <= sqrt(n * S) <= ||y||, so to first
    order the forward transform errs by L*eta*||y|| in norm, the products
    y * conj(y) by 2*max|y| times that plus 2u*max|y|*||y||, and the inverse,
    which divides by size, adds L*eta*max|y|*||y||/sqrt(size) and passes the
    products' error on over sqrt(size). Each acf[k] then errs by at most
    (3*L*eta + 2u) * sqrt(size) * S, and rho[k] by twice that over S
    (|rho| <= 1) plus u, below 7 * sqrt(size) * L * eta as 5u <= L * eta.
    _ACF_SAFETY covers the mixed-radix real transforms numpy runs in place
    of Higham's radix 2.
    """
    return _ACF_SAFETY * 7.0 * math.sqrt(size) * math.log2(size) * _FFT_ETA
