"""Wavefunction structure from the log-derivative.

For the pure harmonic oscillator (units hbar = m = omega = 1) every Laurent
row collapses to a single coefficient, C_k(r) = d_k r^(1-2k), and the d_k
close among themselves.  Integrating the log-derivative then factors the
radial function into r^(l+1) * exp(-r^2/2) * P_n(r^2); the polynomial part is
recovered here exactly and matches the associated Laguerre family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .model import QuantumState


def harmonic_d_coefficients(state: QuantumState, order: int) -> tuple[Fraction, ...]:
    """d_0..d_order, with C_k(r) = d_k r^(1-2k) in oscillator units.

    d_0 = -1, d_1 = 2n+l+1, 2 d_2 = d_1^2 - d_1 - l(l+1), and for k > 2

        2 d_k = (3-2k) d_{k-1} + sum_{j=1}^{k-1} d_j d_{k-j}.

    The recursion runs on the integers e_k = 2^(k-1) d_k, for which it reads
    e_2 = e_1^2 - e_1 - l(l+1) and e_k = (3-2k) e_{k-1} + sum_j e_j e_{k-j}.
    """
    if order < 2:
        raise ValueError("need order >= 2 to reach the first closed coefficient")
    big_n = state.principal
    e = [0, big_n, big_n * big_n - big_n - state.centrifugal]  # e[0] is never read
    for k in range(3, order + 1):
        e.append((3 - 2 * k) * e[k - 1] + sum(map(mul, e[1:k], e[k - 1:0:-1])))
    return (Fraction(-1), *(Fraction(e[k], 2 ** (k - 1)) for k in range(1, order + 1)))


def node_polynomial(state: QuantumState, d: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """p_0..p_n of the monic factor P_n(r^2) = sum_m p_m r^(2m), from d_0..d_K.

    With p_n = 1 fixed, descending from m = n-1 the coefficients obey

        2 p_m (n - m) + sum_{j=m+1}^{n} p_j d_{j-m+1} = 0.

    Consecutive coefficients then satisfy the associated-Laguerre ratio
    p_{m-1}/p_m = m(m + l + 1/2)/(m - n - 1).

    The recursion runs without division on a_m = 4^(n-m) (n-m)! p_m and
    e_k = 2^(k-1) d_k, integers for the harmonic d_k:

        a_m = -sum_{j=m+1}^{n} a_j e_{j-m+1} 2^(j-m-1) (n-m-1)!/(n-j)!.
    """
    n = state.n
    if len(d) < n + 2:
        raise ValueError(f"log-derivative order {len(d) - 1} < n+1 = {n + 1}")
    e = [0] + [_integral(Fraction(d[k]) * 2 ** (k - 1)) for k in range(1, n + 2)]
    a = [0] * n + [1]
    for m in range(n - 1, -1, -1):
        acc, c = 0, 1  # c = 2^(j-m-1) (n-m-1)!/(n-j)!
        for j in range(m + 1, n + 1):
            acc += a[j] * e[j - m + 1] * c
            c *= 2 * (n - j)
        a[m] = -acc
    return tuple(Fraction(a[m], 4 ** (n - m) * math.factorial(n - m)) for m in range(n + 1))


def _integral(x: Fraction):
    """x as an int when it is one, so that the recursion runs on integers."""
    return x.numerator if x.denominator == 1 else x

