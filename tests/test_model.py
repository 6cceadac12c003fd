import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anharm.model import (
    EnergySeries,
    NegativeQuantumNumber,
    NonPositiveFrequency,
    NonPositiveMass,
    ProblemSpecError,
    format_rational,
    make_potential,
    make_state,
    parse_rational,
)
from anharm.oracle import ComparisonRecord, OracleConfig, OracleResult
from anharm.resummation import SummationReport


class TestPotential:
    def test_harmonic(self):
        pot = make_potential(1, 1, [])
        assert pot.mass == 1 and pot.omega == 1
        assert pot.anharmonic == ()
        assert pot.is_harmonic

    def test_quartic(self):
        pot = make_potential(1, 1, [Fraction(1, 100)])
        assert pot.anharmonic == (Fraction(1, 100),)
        assert not pot.is_harmonic

    def test_zero_omega_rejected(self):
        with pytest.raises(NonPositiveFrequency):
            make_potential(1, 0, [1])

    @pytest.mark.parametrize("mass", [0, -1, Fraction(-1, 3)])
    def test_bad_mass_rejected(self, mass):
        with pytest.raises(NonPositiveMass):
            make_potential(mass, 1)

    def test_negative_anharmonic_allowed(self):
        pot = make_potential(1, 1, [Fraction(-1, 2), 0, 3])
        assert pot.anharmonic == (Fraction(-1, 2), 0, 3)

    def test_string_inputs(self):
        pot = make_potential("3/2", "2", ["1/100"])
        assert pot.mass == Fraction(3, 2)

    def test_float_inputs_rejected(self):
        with pytest.raises(ProblemSpecError):
            make_potential(1.5, 1)

    def test_immutable(self):
        """Every public type refuses to assign or delete a field."""
        state = make_state(0, 0)
        instances = [
            (make_potential(1, 1), "mass"),
            (state, "n"),
            (EnergySeries([1]), "corrections"),
            (SummationReport((1.0,), (), False), "growth_flag"),
            (OracleConfig(8.0, 2000, state, (0.0, 10.0)), "tolerance"),
            (OracleResult(1.5, 0, 1e-12, True), "energy"),
            (ComparisonRecord((0.0,), (0.0,), None, None, 1), "best_order"),
        ]
        for instance, field in instances:
            before = getattr(instance, field)
            with pytest.raises(AttributeError):
                setattr(instance, field, Fraction(2))
            with pytest.raises(AttributeError):
                delattr(instance, field)
            assert getattr(instance, field) == before

    def test_replace_validates(self):
        pot = make_potential(1, 1, ["1/100"])
        assert pot._replace(mass="3/2") == make_potential("3/2", 1, ["1/100"])
        assert pot._replace(mass="3/2").mass == Fraction(3, 2)
        with pytest.raises(NonPositiveMass):
            pot._replace(mass=0)
        with pytest.raises(ProblemSpecError):
            pot._replace(anharmonic=[0.5])
        with pytest.raises(NegativeQuantumNumber):
            make_state(1, 2)._replace(l=-1)

    def test_repr_names_the_fields(self):
        assert repr(make_potential(2, 1, [Fraction(1, 2)])) == (
            "PotentialSpec(mass=Fraction(2, 1), omega=Fraction(1, 1), "
            "anharmonic=(Fraction(1, 2),))"
        )
        assert repr(make_state(1, 2)) == "QuantumState(n=1, l=2)"


class TestQuantumState:
    @pytest.mark.parametrize(
        "n,l,principal,centrifugal",
        [(0, 0, 1, 0), (1, 2, 5, 6), (2, 1, 6, 2), (3, 3, 10, 12)],
    )
    def test_derived_quantities(self, n, l, principal, centrifugal):
        state = make_state(n, l)
        assert state.principal == principal
        assert state.centrifugal == centrifugal
        assert state.principal * (state.principal + 1) >= 2

    def test_negative_rejected(self):
        with pytest.raises(NegativeQuantumNumber):
            make_state(-1, 0)
        with pytest.raises(NegativeQuantumNumber):
            make_state(0, -2)

    @pytest.mark.parametrize("n,l", [(1.5, 0.9), (1.0, 0), (0, "1"), (None, 0)])
    def test_non_integral_rejected(self, n, l):
        with pytest.raises(ProblemSpecError, match="integers"):
            make_state(n, l)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_principal_parity(self, n, l):
        state = make_state(n, l)
        assert (state.principal - l - 1) % 2 == 0
        assert state.principal - l - 1 == 2 * n


class TestEnergySeries:
    def test_order_and_access(self):
        series = EnergySeries((Fraction(3, 2), Fraction(3, 80)))
        assert series.order == 2
        assert series[0] == Fraction(3, 2)
        assert series[1] == Fraction(3, 80)
        with pytest.raises(IndexError):
            series[2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EnergySeries(())

    def test_exact_inputs_only(self):
        assert list(EnergySeries([2, Fraction(1, 3), "-165/8"])) == [2, Fraction(1, 3), Fraction(-165, 8)]
        for bad in (0.1, "x"):
            with pytest.raises(ProblemSpecError):
                EnergySeries([1, bad])

    def test_value_semantics(self):
        series = EnergySeries([1, "1/2"])
        same = EnergySeries((Fraction(1), Fraction(1, 2)))
        assert list(series) == [Fraction(1), Fraction(1, 2)] == list(series.corrections)
        assert len(series) == series.order and series[-1] == Fraction(1, 2)
        assert series == same and hash(series) == hash(same) and series != EnergySeries([1])
        assert repr(series) == "EnergySeries(corrections=(Fraction(1, 1), Fraction(1, 2)))"
        assert copy.copy(series) == series == pickle.loads(pickle.dumps(series))


class TestRationalSerialization:
    @pytest.mark.parametrize(
        "text,value",
        [("-165/8", Fraction(-165, 8)), ("3", Fraction(3)), ("1/100", Fraction(1, 100))],
    )
    def test_round_trip(self, text, value):
        assert parse_rational(text) == value
        assert format_rational(value) == text

    def test_integer_omits_denominator(self):
        assert format_rational(Fraction(6, 2)) == "3"

    def test_garbage_rejected(self):
        with pytest.raises(ProblemSpecError):
            parse_rational("3/4/5")

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_decimal_rejected(self, text):
        with pytest.raises(ProblemSpecError, match="not a rational number"):
            parse_rational(Decimal(text))

    def test_float_rejected(self):
        with pytest.raises(ProblemSpecError, match="exact rational required"):
            parse_rational(0.5)

    def test_fraction_is_not_copied(self):
        value = Fraction(-165, 8)
        assert parse_rational(value) is value

    @given(st.fractions(), st.fractions())
    def test_arithmetic_exact_and_canonical(self, a, b):
        total = a + b
        assert total - b == a
        assert total.denominator > 0
        text = format_rational(total)
        assert parse_rational(text) == total
