"""Problem-description types: potentials, quantum states, energy series.

Everything here is exact rational arithmetic (`fractions.Fraction`); floats
enter only in the resummation and radial-solver layers.  All types are
immutable after construction and safe to share across threads.
`PotentialSpec` and `QuantumState` are named tuples; their constructors,
and so `_replace`, validate.  `EnergySeries` is the tuple of corrections.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import index


class ProblemSpecError(ValueError):
    """Invalid problem description."""


class NonPositiveMass(ProblemSpecError):
    pass


class NonPositiveFrequency(ProblemSpecError):
    pass


class NegativeQuantumNumber(ProblemSpecError):
    pass


def parse_rational(value) -> Fraction:
    """Exact rational from a `numbers.Rational` or from text.

    Text is anything `Fraction` accepts ("3/4", "-165/8", "2", "0.01"), so
    decimal strings stay exact.  A float is refused: its binary rounding
    noise would enter an exact input.
    """
    if isinstance(value, float):
        raise ProblemSpecError(
            f"exact rational required, got float {value!r}; pass a string or Fraction"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProblemSpecError(f"not a rational number: {value!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form; integers omit the "/1"."""
    return str(Fraction(value))


class PotentialSpec(namedtuple("PotentialSpec", "mass omega anharmonic")):
    """Confining central potential  V(r) = m w^2 r^2 / 2 + sum_i v_i r^(2i+2).

    Every value is a Fraction; `anharmonic[i-1]` is v_i, the coefficient of
    r^(2i+2).  The tuple may be empty (pure harmonic) and entries may be zero
    or negative; the formal series is defined regardless, physical
    confinement is the caller's concern.  mass and omega must be positive:
    the recursion divides by m*omega.
    """

    __slots__ = ()

    def __new__(cls, mass, omega, anharmonic=()):
        mass, omega = parse_rational(mass), parse_rational(omega)
        self = super().__new__(cls, mass, omega, tuple(map(parse_rational, anharmonic)))
        if self.mass <= 0:
            raise NonPositiveMass(f"mass must be positive, got {self.mass}")
        if self.omega <= 0:
            raise NonPositiveFrequency(f"omega must be positive, got {self.omega}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @property
    def is_harmonic(self) -> bool:
        return all(v == 0 for v in self.anharmonic)


class QuantumState(namedtuple("QuantumState", "n l")):
    """Radial quantum number n and orbital quantum number l, integers >= 0."""

    __slots__ = ()

    def __new__(cls, n, l):
        try:
            n, l = index(n), index(l)
        except TypeError as exc:
            raise ProblemSpecError(f"n and l must be integers, got ({n!r}, {l!r})") from exc
        if n < 0 or l < 0:
            raise NegativeQuantumNumber(f"need n >= 0 and l >= 0, got ({n}, {l})")
        return super().__new__(cls, n, l)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @property
    def principal(self) -> int:
        """2n + l + 1: the zero count that drives the quantization condition."""
        return 2 * self.n + self.l + 1

    @property
    def centrifugal(self) -> int:
        """l(l+1), the centrifugal-barrier coefficient."""
        return self.l * (self.l + 1)


class EnergySeries(tuple):
    """Energy corrections E_1..E_K; corrections[k-1] multiplies hbar^k.

    There is no E_0 entry: the classical energy at the well bottom is zero,
    so the expansion starts at first order.  The series is the tuple
    (E_1, ..., E_K) of Fractions, read as `parse_rational` reads them (so a
    float is refused); `corrections` gives it as a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, corrections):
        self = super().__new__(cls, map(parse_rational, corrections))
        if not self:
            raise ValueError("energy series must contain at least E_1")
        return self

    corrections = property(tuple)
    order = property(len)

    def __repr__(self):
        return f"{type(self).__qualname__}(corrections={tuple(self)!r})"


def make_potential(mass, omega, anharmonic=()) -> PotentialSpec:
    """Validated potential from rationals (or "p/q" strings / ints)."""
    return PotentialSpec(mass, omega, tuple(anharmonic))


def make_state(n: int, l: int) -> QuantumState:
    """Validated quantum state."""
    return QuantumState(n, l)
