"""Wavefunction structure from the log-derivative.

For the pure harmonic oscillator (units hbar = m = omega = 1) every Laurent
row collapses to a single coefficient, C_k(r) = d_k r^(1-2k), and the d_k
close among themselves.  Integrating the log-derivative then factors the
radial function into r^(l+1) * exp(-r^2/2) * P_n(r^2); the polynomial part is
recovered here exactly and matches the associated Laguerre family.  For
general potentials only pointwise evaluation of the truncated log-derivative
is provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import CoefficientTable
from .model import QuantumState


class WavefunctionError(Exception):
    pass


class DomainError(WavefunctionError):
    """Log-derivative evaluated outside its domain r > 0."""


@dataclass(frozen=True)
class HarmonicLogDerivative:
    """Coefficients d_0..d_K with C_k(r) = d_k r^(1-2k) in oscillator units."""

    state: QuantumState
    d: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.d) - 1


@dataclass(frozen=True)
class NodePolynomial:
    """Monic polynomial factor P_n(r^2) = sum_k p[k] r^(2k), p[n] = 1."""

    state: QuantumState
    p: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.p) - 1


def harmonic_d_coefficients(state: QuantumState, order: int) -> HarmonicLogDerivative:
    """Closed recursion for the harmonic log-derivative coefficients.

    d_0 = -1, d_1 = 2n+l+1, 2 d_2 = d_1^2 - d_1 - l(l+1), and for k > 2

        2 d_k = (3-2k) d_{k-1} + sum_{j=1}^{k-1} d_j d_{k-j}.
    """
    if order < 2:
        raise ValueError("need order >= 2 to reach the first closed coefficient")
    big_n = state.principal
    d = [Fraction(-1), Fraction(big_n)]
    d.append(Fraction(big_n * big_n - big_n - state.centrifugal, 2))
    for k in range(3, order + 1):
        acc = (3 - 2 * k) * d[k - 1]
        for j in range(1, k):
            acc += d[j] * d[k - j]
        d.append(acc / 2)
    return HarmonicLogDerivative(state, tuple(d))


def node_polynomial(state: QuantumState, d: HarmonicLogDerivative) -> NodePolynomial:
    """Solve the triangular system for the polynomial factor, monic in r^(2n).

    With p_n = 1 fixed, descending from m = n-1 the coefficients obey

        2 p_m (n - m) + sum_{j=m+1}^{n} p_j d_{j-m+1} = 0.

    Consecutive coefficients then satisfy the associated-Laguerre ratio
    p_{m-1}/p_m = m(m + l + 1/2)/(m - n - 1).
    """
    n = state.n
    if d.order < n + 1:
        raise ValueError(f"log-derivative order {d.order} < n+1 = {n + 1}")
    p = [Fraction(0)] * (n + 1)
    p[n] = Fraction(1)
    for m in range(n - 1, -1, -1):
        acc = Fraction(0)
        for j in range(m + 1, n + 1):
            acc += p[j] * d.d[j - m + 1]
        p[m] = -acc / (2 * (n - m))
    return NodePolynomial(state, tuple(p))


def evaluate_log_derivative(table: CoefficientTable, r: float, order: int) -> float:
    """Truncated log-derivative sum_{k=0}^{order} C_k(r) at a point r > 0.

    Evaluates the exact table coefficients in floating point; Laurent poles
    make r <= 0 invalid.
    """
    if r <= 0:
        raise DomainError(f"log-derivative has poles at the origin; need r > 0, got {r}")
    if not 0 <= order <= table.order:
        raise ValueError(f"order {order} outside 0..{table.order}")
    r = float(r)
    r2 = r * r
    total = 0.0
    for k in range(order + 1):
        acc = 0.0
        for coeff in reversed(table.row(k)):
            acc = acc * r2 + float(coeff)
        total += acc * r ** (1 - 2 * k)
    return total
