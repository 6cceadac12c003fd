"""Shared test oracles: closed-form corrections, hierarchy residuals, RNG helpers.

The closed forms below were transcribed by hand and are kept independent of
the engine: the engine builds E_k by table recursion, these build E_1..E_5
directly from the potential parameters, so agreement is a two-route check.
"""

from __future__ import annotations

import random
from fractions import Fraction

from anharm.engine import CoefficientTable
from anharm.model import EnergySeries, PotentialSpec, QuantumState, make_potential, make_state


def coefficient(potential: PotentialSpec, i: int) -> Fraction:
    """v_i (i >= 1) of the r^(2i+2) term; exactly zero beyond the supplied list."""
    return potential.anharmonic[i - 1] if i <= len(potential.anharmonic) else Fraction(0)


def closed_form_corrections(potential: PotentialSpec, state: QuantumState) -> list[Fraction]:
    """E_1..E_5 from the explicit first-correction formulas (v_1..v_4 only)."""
    m, w = potential.mass, potential.omega
    v1, v2, v3, v4 = (coefficient(potential, i) for i in range(1, 5))
    big_n = state.principal
    big_l = Fraction(state.centrifugal)
    eta = Fraction(big_n * (big_n + 1))

    e1 = Fraction(1 + 2 * big_n, 2) * w

    e2 = (3 - 2 * big_l + 6 * eta) * v1 / (4 * m**2 * w**2)

    e3 = (
        Fraction(1 + 2 * big_n)
        / (8 * m**4 * w**5)
        * ((-21 + 9 * big_l - 17 * eta) * v1**2 + m * (15 - 6 * big_l + 10 * eta) * w**2 * v2)
    )

    e4 = (
        Fraction(1)
        / (16 * m**6 * w**8)
        * (
            (333 + 11 * big_l**2 - 3 * big_l * (67 + 86 * eta) + 3 * eta * (347 + 125 * eta))
            * v1**3
            - 6
            * m
            * (60 + 3 * (-13 + big_l) * big_l + 175 * eta - 42 * big_l * eta + 55 * eta**2)
            * w**2
            * v1
            * v2
            + m**2
            * (6 * big_l**2 - 12 * big_l * (6 + 5 * eta) + 35 * (3 + 2 * eta * (4 + eta)))
            * w**4
            * v3
        )
    )

    e5 = (
        -Fraction(1 + 2 * big_n)
        / (128 * m**8 * w**11)
        * (
            (
                30885
                + 909 * big_l**2
                - 27 * big_l * (613 + 330 * eta)
                + eta * (49927 + 10689 * eta)
            )
            * v1**4
            - 4
            * m
            * (
                11220
                + 393 * big_l**2
                - 6 * big_l * (1011 + 475 * eta)
                + eta * (16342 + 3129 * eta)
            )
            * w**2
            * v1**2
            * v2
            + 16
            * m**2
            * (33 * big_l**2 - big_l * (501 + 190 * eta) + 63 * (15 + eta * (19 + 3 * eta)))
            * w**4
            * v1
            * v3
            + 2
            * m**2
            * (3495 + 138 * big_l**2 + 4538 * eta + 786 * eta**2 - 30 * big_l * (63 + 26 * eta))
            * w**4
            * v2**2
            - 4
            * m**3
            * (30 * big_l**2 - 20 * big_l * (24 + 7 * eta) + 63 * (15 + 2 * eta * (8 + eta)))
            * w**6
            * v4
        )
    )

    return [e1, e2, e3, e4, e5]


def random_problem(rng: random.Random) -> tuple[PotentialSpec, QuantumState]:
    """Random tuple with m, omega in (0, 4], v_1..v_4 in [-2, 2], n, l <= 3."""
    mass = Fraction(rng.randint(1, 32), 8)
    omega = Fraction(rng.randint(1, 32), 8)
    vs = [Fraction(rng.randint(-16, 16), 8) for _ in range(4)]
    return make_potential(mass, omega, vs), make_state(rng.randint(0, 3), rng.randint(0, 3))


def riccati_residuals(table: CoefficientTable, series: EnergySeries) -> list[Fraction]:
    """Term-by-term residuals of the full coefficient hierarchy.

    Recomputed by direct polynomial multiplication over the stored rows
    (including the j = 0 and j = k border products), independent of the
    recursion that filled the table.  Every entry must be exactly zero:
    row 0 squares back to 2mV, and each level k matches the derivative,
    convolution, centrifugal, and energy terms power by power.
    """
    potential = table.potential
    m = potential.mass
    residuals = []
    rows = [table.row(k) for k in range(table.order + 1)]
    c0 = rows[0]
    for i in range(table.order):
        acc = sum(c0[p] * c0[i - p] for p in range(i + 1))
        expected = m * m * potential.omega**2 if i == 0 else 2 * m * coefficient(potential, i)
        residuals.append(acc - expected)
    for k in range(1, table.order + 1):
        for i in range(table.order):
            acc = (3 - 2 * k + 2 * i) * rows[k - 1][i]
            for j in range(0, k + 1):
                for p in range(i + 1):
                    acc += rows[j][p] * rows[k - j][i - p]
            if i == k - 1:
                acc += 2 * m * series[k - 1]
            if k == 2 and i == 0:
                acc -= table.state.centrifugal
            residuals.append(acc)
    return residuals
