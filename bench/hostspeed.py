"""Host speed, measured with a fixed pure-Python kernel between ops.

On a shared host, interpreter-bound code does not run at one speed: a fixed
loop of Python float arithmetic and float formatting flips between about
1.2 and 1.8 ms every few hundred milliseconds, and the share of slow time
drifts over minutes, while LAPACK calls stay within a few per cent. Raw
wall times of the same ops then differ by 25-30 % between runs minutes
apart, which no run length averages away.

The benchmark therefore times this kernel right before and right after each
op and reports the op at reference speed: the mean of the two kernel times
over REF_S is the host's slowdown f, and a share w of the op's wall time is
taken to be slowed by f, so the op's time at reference speed is
wall / (1 + w (f - 1)). The share is fixed per workload (workloads.py). The
kernel uses no gupmdm code, so a change to the program moves the reported
times as it moves wall time.
"""

from __future__ import annotations

import time

# Kernel time on an uncontended core of the machine the baseline was taken
# on (Intel Xeon, model 207, 2.1 GHz, Python 3.11): the reported times are
# wall times on a host where the kernel takes this long.
REF_S = 0.75e-3

_FLOATS = [((i * 7919) % 10007) / 97.0 + 0.1 for i in range(360)]


def kernel() -> str:
    """Interpreter-bound work of the two kinds the program does most:
    an RK4-style float loop and float formatting."""
    u, v, h = 0.0, 1.0, 1e-3
    for _ in range(3600):
        k1u, k1v = v, -u
        k2u, k2v = v + 0.5 * h * k1v, -(u + 0.5 * h * k1u)
        u, v = u + h * k2u, v + h * k2v
    return ",".join(f"{x * u:.17g}" for x in _FLOATS)


def probe() -> float:
    """Seconds the kernel takes now: the faster of two back-to-back runs,
    so that an interrupt or a cold start does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def at_ref(wall_s: float, before_s: float, after_s: float, weight: float) -> float:
    """`wall_s`, measured between two probes, at reference speed.

    `weight` is the share of the timed work that the host slows as much as
    it slows the kernel; the rest (LAPACK calls, say) is taken to run at
    full speed.
    """
    slowdown = 0.5 * (before_s + after_s) / REF_S
    return wall_s / (1.0 + weight * (slowdown - 1.0))
