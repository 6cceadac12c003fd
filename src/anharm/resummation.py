"""Numeric summation of the exact correction series.

The weak-coupling expansion is asymptotic: terms shrink at first, then grow
factorially.  This module turns an EnergySeries into floats -- cumulative
partial sums, term-ratio diagnostics that expose the divergence, and Pade
approximants that resum beyond the optimal truncation point.  Every value is
computed exact, in rationals, and rounded once.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .model import EnergySeries


class ResummationError(Exception):
    pass


class SingularPadeSystem(ResummationError):
    """Denominator linear system exactly singular, or Q = 0 at the coupling."""


class SummationReport(namedtuple("SummationReport", "partial_sums ratios growth_flag")):
    """Convergence bookkeeping for one correction series.

    partial_sums and ratios are tuples of floats: ratios[k-1] is
    |E_{k+1}/E_k| (None where E_k = 0).  growth_flag marks a strictly
    increasing ratio tail, the divergence signature.
    """

    __slots__ = ()


def _to_float(value: Fraction) -> float:
    """Correctly rounded rational-to-float; overflow maps to signed infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def partial_sums(series: EnergySeries) -> list[float]:
    """Cumulative sums sum_{k<=K} E_k, accumulated exactly, rounded once each."""
    sums = []
    acc = Fraction(0)
    for term in series:
        acc += term
        sums.append(_to_float(acc))
    return sums


def pade(series: EnergySeries, num_degree: int, den_degree: int, coupling=1) -> float:
    """[num/den] Pade approximant of the reduced series, evaluated at the coupling.

    The reduced series sum_j (E_{j+1}/x^j) y^j, evaluated at y = x, is the
    series sum_j E_{j+1} s^j at s = 1, and a Pade approximant does not change
    when its variable is rescaled.  So the value is the same for every nonzero
    coupling x, and the approximant is built from E_1..E_{num+den+1} directly.
    Everything is exact, rounded once: the coefficients are scaled to
    integers, the denominator system is solved by fraction-free (Bareiss)
    Gauss-Jordan elimination, and P(1)/Q(1) is one rational.
    SingularPadeSystem means the system is exactly singular or Q(1) = 0.
    """
    if num_degree < 0 or den_degree < 0:
        raise ValueError("Pade degrees must be non-negative")
    needed = num_degree + den_degree + 1
    if needed > series.order:
        raise ValueError(
            f"[{num_degree}/{den_degree}] needs {needed} coefficients, "
            f"series has {series.order}"
        )
    if Fraction(coupling) == 0:
        raise ValueError("coupling must be nonzero to reduce the series")
    terms = list(series)[:needed]
    scale = math.lcm(*(t.denominator for t in terms))
    c = [t.numerator * (scale // t.denominator) for t in terms]
    # sum_{m=0}^{den} b_m c_{num+s-m} = 0 for s = 1..den, with b_0 = 1; the
    # augmented column holds -c_{num+s}.  After elimination every diagonal
    # entry is the last pivot, det (the determinant up to sign), and
    # b_m = rows[m-1][den] / det.
    rows = [
        [c[num_degree + s - m] if num_degree + s >= m else 0 for m in range(1, den_degree + 1)]
        + [-c[num_degree + s]]
        for s in range(1, den_degree + 1)
    ]
    det = 1
    for k in range(den_degree):
        swap = next((i for i in range(k, den_degree) if rows[i][k]), None)
        if swap is None:
            raise SingularPadeSystem(
                f"denominator system for [{num_degree}/{den_degree}] is exactly singular"
            )
        rows[k], rows[swap] = rows[swap], rows[k]
        pivot_row = rows[k]
        prev, det = det, pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(det * a - f * p) // prev for a, p in zip(row, pivot_row)]
    b = [det] + [row[den_degree] for row in rows]
    # P(1) = sum_i sum_m b_m c_{i-m} = sum_m b_m (c_0 + ... + c_{num-m}).
    sums = list(itertools.accumulate(c))
    q_at_1 = sum(b)
    if q_at_1 == 0:
        raise SingularPadeSystem(
            f"[{num_degree}/{den_degree}] has a pole at the coupling (Q = 0)"
        )
    p_at_1 = sum(bm * sums[num_degree - m] for m, bm in enumerate(b[: num_degree + 1]))
    return _to_float(Fraction(p_at_1, q_at_1 * scale))


def divergence_diagnostics(series: EnergySeries) -> SummationReport:
    """Partial sums and term ratios |E_{k+1}/E_k| (k = 1..K-1) of the series.

    The growth flag is set when the ratio sequence is strictly increasing
    (and everywhere defined) over the final third of the available orders.
    A series of fewer than 6 orders is too short to judge: its flag is False.
    """
    terms = list(series)
    ratios = tuple(
        None if prev == 0 else _to_float(abs(nxt / prev)) for prev, nxt in zip(terms, terms[1:])
    )
    tail = ratios[-max(2, math.ceil(len(ratios) / 3)):]
    growth = series.order >= 6 and all(r is not None for r in tail) and all(
        a < b for a, b in zip(tail, tail[1:])
    )
    return SummationReport(tuple(partial_sums(series)), ratios, growth)
