"""Problem-description types: potentials, quantum states, energy series.

Everything here is exact rational arithmetic (`fractions.Fraction`); floats
enter only in the resummation and radial-solver layers.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC


class ProblemSpecError(ValueError):
    """Invalid problem description."""


class NonPositiveMass(ProblemSpecError):
    pass


class NonPositiveFrequency(ProblemSpecError):
    pass


class NegativeQuantumNumber(ProblemSpecError):
    pass


def parse_rational(text) -> Fraction:
    """Parse "p/q" or integer text into an exact rational.

    Accepts anything `Fraction` accepts ("3/4", "-165/8", "2", "0.01"),
    so decimal strings stay exact.
    """
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProblemSpecError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form; integers omit the "/1"."""
    return str(Fraction(value))


def _as_rational(value) -> Fraction:
    if isinstance(value, float):
        # refuse silent binary-float noise in exact inputs
        raise ProblemSpecError(
            f"exact rational required, got float {value!r}; pass a string or Fraction"
        )
    if isinstance(value, _RationalABC):
        return Fraction(value)
    return parse_rational(value)


@dataclass(frozen=True)
class PotentialSpec:
    """Confining central potential  V(r) = m w^2 r^2 / 2 + sum_i v_i r^(2i+2).

    `anharmonic[i-1]` is v_i, the coefficient of r^(2i+2).  The list may be
    empty (pure harmonic) and entries may be zero or negative; the formal
    series is defined regardless, physical confinement is the caller's
    concern.  mass and omega must be positive: the recursion divides by
    m*omega.
    """

    mass: Fraction
    omega: Fraction
    anharmonic: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mass", _as_rational(self.mass))
        object.__setattr__(self, "omega", _as_rational(self.omega))
        object.__setattr__(
            self, "anharmonic", tuple(_as_rational(v) for v in self.anharmonic)
        )
        if self.mass <= 0:
            raise NonPositiveMass(f"mass must be positive, got {self.mass}")
        if self.omega <= 0:
            raise NonPositiveFrequency(f"omega must be positive, got {self.omega}")

    def coefficient(self, i: int) -> Fraction:
        """v_i of the r^(2i+2) term; exactly zero beyond the supplied list."""
        if i < 1:
            raise ValueError("anharmonic index starts at 1")
        if i <= len(self.anharmonic):
            return self.anharmonic[i - 1]
        return Fraction(0)

    @property
    def is_harmonic(self) -> bool:
        return all(v == 0 for v in self.anharmonic)


@dataclass(frozen=True)
class QuantumState:
    """Radial quantum number n and orbital quantum number l, both >= 0."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise NegativeQuantumNumber(f"need n >= 0 and l >= 0, got ({self.n}, {self.l})")

    @property
    def principal(self) -> int:
        """2n + l + 1: the zero count that drives the quantization condition."""
        return 2 * self.n + self.l + 1

    @property
    def centrifugal(self) -> int:
        """l(l+1), the centrifugal-barrier coefficient."""
        return self.l * (self.l + 1)


@dataclass(frozen=True)
class EnergySeries:
    """Energy corrections E_1..E_K; corrections[k-1] multiplies hbar^k.

    There is no E_0 entry: the classical energy at the well bottom is zero,
    so the expansion starts at first order.
    """

    corrections: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "corrections", tuple(Fraction(c) for c in self.corrections)
        )
        if not self.corrections:
            raise ValueError("energy series must contain at least E_1")

    @property
    def order(self) -> int:
        return len(self.corrections)

    def correction(self, k: int) -> Fraction:
        """E_k for 1 <= k <= order."""
        if not 1 <= k <= self.order:
            raise IndexError(f"order {k} outside 1..{self.order}")
        return self.corrections[k - 1]

    def truncated(self, order: int) -> "EnergySeries":
        if not 1 <= order <= self.order:
            raise IndexError(f"order {order} outside 1..{self.order}")
        return EnergySeries(self.corrections[:order])

    def __len__(self) -> int:
        return len(self.corrections)

    def __iter__(self):
        return iter(self.corrections)


def make_potential(mass, omega, anharmonic=()) -> PotentialSpec:
    """Validated potential from rationals (or "p/q" strings / ints)."""
    return PotentialSpec(mass, omega, tuple(anharmonic))


def make_state(n: int, l: int) -> QuantumState:
    """Validated quantum state."""
    return QuantumState(int(n), int(l))
