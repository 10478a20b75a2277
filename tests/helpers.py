"""Shared test oracles, kept deliberately independent of the library code."""
from __future__ import annotations

import math

NS_PER_S = 1e9


def brute_force_adev(samples_ns, tau0_s, m):
    """Literal double-loop evaluation of the overlapping Allan deviation.

    Mirrors the defining sum term by term: second differences of the
    time-error samples in ns, converted to seconds, squared, accumulated
    exactly, normalized by 2*(m*tau0)^2*(N-2m). A variance below the normal
    range would have lost digits the deviation can hold, so there the root of
    the sum over 2*(N-2m) is divided by m*tau0 instead.
    """
    x = [float(v) for v in samples_ns]
    n = len(x)
    terms = []
    for i in range(n - 2 * m):
        d = (x[i + 2 * m] - 2.0 * x[i + m] + x[i]) * (1.0 / NS_PER_S)
        terms.append(d * d)
    total = math.fsum(terms)
    tau = m * tau0_s
    variance = total / (2.0 * tau * tau * (n - 2 * m))
    if variance < 2.0**-1022:
        return math.sqrt(total / (2.0 * (n - 2 * m))) / tau
    return math.sqrt(variance)


def quartet_from_parameters(offset_ns, delay_fwd_ns, delay_bwd_ns, turnaround_ns, epoch_ns=0):
    """Build a noiseless timestamp quartet directly from physical parameters,
    without going through the exchange simulation."""
    t1 = epoch_ns
    t2 = t1 + delay_fwd_ns + offset_ns
    t3 = t2 + turnaround_ns
    t4 = t3 - offset_ns + delay_bwd_ns
    return (t1, t2, t3, t4)
