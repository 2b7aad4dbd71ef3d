"""A fixed reference kernel that reads the machine's current speed.

The benchmark runs on a few virtual processors of a shared host.  The
host's other load slows them by up to about 1.6 times, in phases that
last from seconds to minutes, and a run's wall times follow those
phases more than they follow the program.  So the benchmark times this
kernel, which is the same on every commit and never touches
``linkcov``, right before and right after each timed stretch, and
divides.  An adjusted time is::

    wall seconds * REFERENCE_S / (mean of the two kernel times)

that is, the stretch's wall time on a machine on which the kernel takes
``REFERENCE_S`` seconds.  A program that gets slower raises the wall
time and leaves the kernel alone, so the adjusted time rises with it.

The kernel mixes the kinds of work the pipeline does, in about equal
shares: interpreter-bound Python, many numpy calls on small arrays and
a small L-BFGS-B fit (the model selections), sorting a mid-size array
(blocking), and streaming over a large array (population and pairs).

Import this module only after BLAS is pinned: it loads numpy and scipy.
"""

import time

import numpy as np
from scipy.optimize import minimize

# The scale of adjusted seconds, a round number: one pass takes 0.05 to
# 0.09 s on the 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_S = 0.1

# The kernel runs between the program's stages, so it must leave the
# program's heap as it found it: every buffer above a few hundred bytes
# is made here, once, and the passes work in place.  Large temporaries
# made between stages would fragment the heap and raise the peak RSS by
# up to a tenth, differently from run to run.
_TABLE = dict.fromkeys(range(1024), 0)
_SMALL = np.linspace(0.0, 1.0, 64)
_MID = np.random.default_rng(7).integers(0, 1 << 30, size=1 << 17)
_SORTED = np.empty_like(_MID)
_LARGE = np.random.default_rng(8).random(1 << 20)
_OUT = np.empty_like(_LARGE)


def _rosen(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _work():
    acc = 0
    for i in range(50000):
        acc += i * i % 7
        _TABLE[i & 1023] = acc
    for _ in range(3000):
        (_SMALL * 0.5 + 1.0).sum()
    minimize(_rosen, np.zeros(6), method="L-BFGS-B")
    for _ in range(8):
        np.copyto(_SORTED, _MID)
        _SORTED.sort()
    for _ in range(8):
        np.multiply(_LARGE, 2.0, out=_OUT)
        np.add(_OUT, 1.0, out=_OUT)
        _OUT.sum()
    return acc


_work()  # the first pass runs cold; time only warm ones


def kernel_s():
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def adjusted(wall_s, kernel_before_s, kernel_after_s):
    """Wall time scaled to the speed at which the kernel takes REFERENCE_S."""
    return wall_s * REFERENCE_S * 2.0 / (kernel_before_s + kernel_after_s)
