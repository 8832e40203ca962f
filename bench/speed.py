"""A fixed reference kernel that measures the machine's current speed.

On a shared machine the speed of one core drifts by 10-40% over seconds
to hours, and it moves most kinds of work together (FFT, filtering,
scalar quadrature, interpreter loops).  Timed once in a while between
operations, the kernel says how fast the machine ran around each one,
and a time is reported as *reference seconds*: what it would read on a
machine on which the kernel takes ``NOMINAL_S``.  The kernel uses numpy,
scipy and the interpreter only, never foulim, so no change to the
package moves it.  Raw seconds are reported beside the rescaled ones.
"""

from __future__ import annotations

import functools
import math
import time

# the kernel's seconds on the reference machine (a 2-core Intel Xeon
# virtual machine, OpenBLAS pinned to one thread, at its slower hours)
NOMINAL_S = 0.12
# time the kernel again before an operation once this long has passed
EVERY_S = 1.0


@functools.cache
def _input():
    import numpy as np

    return np.random.default_rng(0).standard_normal(1 << 15)


def _kernel() -> None:
    """The mix the workloads run: FFTs, lfilter, sorting, quad, numpy scalar loops."""
    import numpy as np
    from scipy import integrate, signal

    x = _input()
    for _ in range(40):
        y = np.fft.irfft(np.fft.rfft(x) * 0.5, n=x.size)
        signal.lfilter([1.0], [1.0, -0.9], y)
        np.sort(y)
    for k in range(1, 600):
        integrate.quad(lambda t: math.cos(0.02 * k * t) / (1.0 + t * t), 0.0, 10.0)
    u = np.float64(0.3)
    for _ in range(24_000):  # numpy scalars stepped one at a time, as in a Heun loop
        u = u + 0.5 * (np.cos(u) + np.cos(u + 1e-3)) * 1e-3


def reference_seconds() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def warm_up() -> None:
    """Run the kernel once untimed: its first call pays for imports and FFT plans."""
    _kernel()


def rescale(seconds: float, ref_before: float, ref_after: float) -> float:
    """Raw seconds as reference seconds, from the kernel timed around them."""
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))
