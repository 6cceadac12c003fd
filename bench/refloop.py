"""The fixed reference loop that defines one `ref`, the benchmark's time unit.

The loop does, in miniature, the two kinds of pure-Python work that dominate
anharm: a Cauchy product of a series of rationals with numerators and
denominators of a few dozen digits (like the engine's `Fraction`
convolutions), and a three-term float recurrence over a 16000-point list
made from a numpy array, with node counting and overflow rescaling (like one
Numerov sweep of the solver).  Both parts allocate their objects afresh on
every call, as the program does.  The loop imports nothing from anharm, so a
change to the program cannot change the unit.  Changing this loop changes
every figure the benchmark reports and needs a new baseline.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from fractions import Fraction

import numpy as np

_TERMS = 28
_POINTS = 16000
_RESCALE = 1e250

# Samples taken in each gap between two jobs; a job's ref is the mean of the
# gap before it and the gap after it.
SAMPLES_PER_GAP = 5


def reference_loop() -> tuple[int, int]:
    a = [Fraction(3 ** (i % 40) + i, 2 * i + 3) / Fraction(7 ** (i % 30) + 1, i + 1)
         for i in range(_TERMS)]
    acc = Fraction(0)
    for i in range(_TERMS):
        for p in range(i + 1):
            acc += a[p] * a[i - p]
    r = np.arange(1, _POINTS + 1) * (8.0 / _POINTS)
    t = (1e-4 * (r * r - 1.0)).tolist()
    u_prev, u_cur, nodes, sign = 0.0, 1e-3, 0, 1.0
    for j in range(1, _POINTS - 1):
        u_next = ((2.0 + 10.0 * t[j]) * u_cur - (1.0 - t[j - 1]) * u_prev) / (1.0 - t[j + 1])
        u_prev, u_cur = u_cur, u_next
        s = math.copysign(1.0, u_cur)
        if s != sign:
            nodes += 1
            sign = s
        if abs(u_cur) > _RESCALE:
            u_prev /= _RESCALE
            u_cur /= _RESCALE
    return acc.denominator.bit_length(), nodes


def sample_gap() -> list[float]:
    """Time the reference loop SAMPLES_PER_GAP times after a collection."""
    gc.collect()
    out = []
    for _ in range(SAMPLES_PER_GAP):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def local_ref(before: list[float], after: list[float]) -> float:
    return statistics.mean(before + after)
