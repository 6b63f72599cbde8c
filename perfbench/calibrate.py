"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same deterministic job takes up to twice as long in one
minute as in the next, because other tenants contend for the cores, caches
and memory.  The slowdown hits all code alike within a few tens of percent
and lasts seconds to minutes.  The benchmark therefore times this kernel
next to every measured piece of work and reports each time as

    measured seconds / kernel seconds * REFERENCE_S,

that is, in seconds of a machine whose kernel takes REFERENCE_S.  The kernel
uses no hintlock code, so a change to the program moves the measured time
and not the kernel.  It mixes the kinds of work hintlock does: dict and
string operations, Fraction arithmetic, small numpy arrays, and a dense
assignment problem.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

# The kernel's time on a quiet 2-core Xeon VM (Python 3.11, numpy 2.4,
# scipy 1.17): its fastest of many runs, rounded.  Only a scale: it cancels out of
# any comparison of two commits on one machine.
REFERENCE_S = 0.010

_COST = np.random.default_rng(20170107).random((200, 200))


def _kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(30_000):
        counts[i % 97] = counts.get(i % 97, 0) + 3 * i
    sorted(str(v) for v in counts.values())
    total = Fraction(0)
    for i in range(1, 900):
        total += Fraction(1, i)
    law = np.ones(6)
    for _ in range(700):
        law = np.exp(np.log(law + 1.0) * 0.5)
        law /= law.sum()
    linear_sum_assignment(_COST)


def kernel_seconds() -> float:
    """Run the kernel once; returns its wall time."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def kernel_probe() -> float:
    """The fastest of three kernel runs, so that a cold first run does not count."""
    return min(kernel_seconds() for _ in range(3))
