"""Numeric summation of the exact correction series.

The weak-coupling expansion is asymptotic: terms shrink at first, then grow
factorially.  This module turns an EnergySeries into floats -- cumulative
partial sums, term-ratio diagnostics that expose the divergence, and Pade
approximants that resum beyond the optimal truncation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import EnergySeries

# Condition-number ceiling for the denominator solve; beyond this the
# requested degrees are declared unusable rather than silently inaccurate.
PADE_CONDITION_LIMIT = 1e12

# Relative change between the last two partial sums below which the
# truncated series is reported as stable.
STABILITY_TOL = 1e-9


class ResummationError(Exception):
    pass


class SingularPadeSystem(ResummationError):
    """Denominator linear system numerically singular; lower the degrees."""


@dataclass(frozen=True)
class SummationReport:
    """Convergence bookkeeping for one correction series.

    ratios[k-1] is |E_{k+1}/E_k| (None where E_k = 0); growth_flag marks a
    strictly increasing ratio tail, the divergence signature.
    """

    partial_sums: tuple[float, ...]
    ratios: tuple[float | None, ...]
    growth_flag: bool
    stability_flag: bool
    pade_value: float | None = None


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


def term_ratios(series: EnergySeries) -> list[float | None]:
    """|E_{k+1}/E_k| for k = 1..K-1; None where the denominator term is zero."""
    terms = list(series)
    out = []
    for prev, nxt in zip(terms, terms[1:]):
        out.append(None if prev == 0 else _to_float(abs(nxt / prev)))
    return out


def pade(series: EnergySeries, num_degree: int, den_degree: int, coupling) -> float:
    """[num/den] Pade approximant of the reduced series, evaluated at the coupling.

    The corrections are first re-expressed as a power series in the coupling
    (reduced coefficients E_{j+1}/coupling^j, exact when the coupling is
    rational), so for a pure quartic term the reduced series is the
    weak-coupling expansion itself.  The denominator coefficients come from a
    pivoted linear solve; an ill-conditioned system raises SingularPadeSystem.
    """
    if num_degree < 0 or den_degree < 0:
        raise ValueError("Pade degrees must be non-negative")
    needed = num_degree + den_degree + 1
    if needed > series.order:
        raise ValueError(
            f"[{num_degree}/{den_degree}] needs {needed} coefficients, "
            f"series has {series.order}"
        )
    x = Fraction(coupling)
    if x == 0:
        raise ValueError("coupling must be nonzero to reduce the series")
    reduced = [_to_float(term / x**j) for j, term in enumerate(series)]
    c = reduced[:needed]

    q = den_degree
    b = np.ones(q + 1)
    if q > 0:
        rows = []
        rhs = []
        for s in range(1, q + 1):
            rows.append(
                [c[num_degree - m + s] if num_degree - m + s >= 0 else 0.0 for m in range(1, q + 1)]
            )
            rhs.append(-c[num_degree + s])
        a_mat = np.array(rows, dtype=float)
        if not np.all(np.isfinite(a_mat)) or np.linalg.cond(a_mat) > PADE_CONDITION_LIMIT:
            raise SingularPadeSystem(
                f"denominator system for [{num_degree}/{den_degree}] is "
                "numerically singular; lower the degrees"
            )
        try:
            b[1:] = np.linalg.solve(a_mat, np.array(rhs, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise SingularPadeSystem(str(exc)) from exc
    a = [
        sum(b[m] * c[i - m] for m in range(0, min(i, q) + 1))
        for i in range(num_degree + 1)
    ]

    xf = float(x)
    num = 0.0
    for coeff in reversed(a):
        num = num * xf + coeff
    den = 0.0
    for coeff in reversed(b.tolist()):
        den = den * xf + coeff
    return num / den


def divergence_diagnostics(series: EnergySeries) -> SummationReport:
    """Ratio and partial-sum diagnostics; read-only on the series.

    The growth flag is set when the ratio sequence is strictly increasing
    (and everywhere defined) over the final third of the available orders.
    A series of fewer than 6 orders is too short to judge: its report holds
    the partial sums and the ratios, with both flags False.
    """
    sums = tuple(partial_sums(series))
    ratios = tuple(term_ratios(series))
    if series.order < 6:
        return SummationReport(sums, ratios, growth_flag=False, stability_flag=False)
    tail = ratios[-max(2, math.ceil(len(ratios) / 3)):]
    growth = all(r is not None for r in tail) and all(
        a < b for a, b in zip(tail, tail[1:])
    )
    stable = abs(sums[-1] - sums[-2]) <= STABILITY_TOL * max(1.0, abs(sums[-1]))
    return SummationReport(
        partial_sums=sums,
        ratios=ratios,
        growth_flag=growth,
        stability_flag=stable,
    )
