import math
import random
from fractions import Fraction

import pytest

from anharm.engine import compute_series
from anharm.model import EnergySeries, make_potential, make_state
from anharm.resummation import (
    SingularPadeSystem,
    SummationReport,
    divergence_diagnostics,
    pade,
    partial_sums,
)


def power_series_of_rational(num, den, count):
    """Exact Taylor coefficients of num(x)/den(x) with den[0] = 1."""
    coeffs = []
    for j in range(count):
        c = num[j] if j < len(num) else Fraction(0)
        for m in range(1, min(j, len(den) - 1) + 1):
            c -= den[m] * coeffs[j - m]
        coeffs.append(c)
    return coeffs


def series_in_coupling(coeffs, coupling):
    """EnergySeries whose reduced coefficients are exactly `coeffs`."""
    return EnergySeries(tuple(c * coupling**j for j, c in enumerate(coeffs)))


class TestPartialSums:
    def test_harmonic_is_flat(self):
        _, series = compute_series(make_potential(1, 1), make_state(0, 0), 8)
        assert partial_sums(series) == [1.5] * 8

    def test_simple_arithmetic(self):
        series = EnergySeries((Fraction(1), Fraction(-1, 2), Fraction(1, 4)))
        assert partial_sums(series) == [1.0, 0.5, 0.75]

    def test_quartic_weak_coupling_value(self):
        _, series = compute_series(
            make_potential(1, 1, [Fraction(1, 100)]), make_state(0, 0), 5
        )
        assert abs(partial_sums(series)[-1] - 1.535642) < 1e-6

    def test_overflow_becomes_infinity(self):
        series = EnergySeries((Fraction(10) ** 400, Fraction(1)))
        sums = partial_sums(series)
        assert sums[0] == math.inf and sums[1] == math.inf
        assert partial_sums(EnergySeries((-(Fraction(10) ** 400),)))[0] == -math.inf

    def test_telescoping_within_rounding(self):
        rng = random.Random(5)
        terms = tuple(
            Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(12)
        )
        series = EnergySeries(terms)
        sums = partial_sums(series)
        for k in range(1, 12):
            diff = sums[k] - sums[k - 1]
            tol = 2 * math.ulp(max(abs(sums[k]), abs(sums[k - 1]), 1.0))
            assert abs(diff - float(terms[k])) <= tol


class TestTermRatios:
    def test_zero_denominators_marked_absent(self):
        series = EnergySeries((Fraction(2), Fraction(0), Fraction(0), Fraction(5)))
        assert divergence_diagnostics(series).ratios == (0.0, None, None)

    def test_plain_ratio(self):
        series = EnergySeries((Fraction(2), Fraction(-1)))
        assert divergence_diagnostics(series).ratios == (0.5,)


class TestPade:
    def test_geometric_series(self):
        x = Fraction(3, 10)
        series = series_in_coupling([Fraction(1)] * 4, x)
        value = pade(series, 0, 1, x)
        assert type(value) is float
        assert value == float(1 / (1 - x))

    def test_polynomial_fixed_point(self):
        x = Fraction(2, 5)
        series = series_in_coupling([Fraction(1), Fraction(1)], x)
        assert pade(series, 1, 0, x) == float(1 + x)

    def test_reproduces_rational_function(self):
        cases = [
            ([1, 2, 3], [1, Fraction(1, 4), Fraction(-1, 5)], Fraction(1, 3)),
            # num[1] = den[1] makes c_1, the first pivot of [1/2], zero: a row swap
            ([1, Fraction(1, 2)], [1, Fraction(1, 2), Fraction(1, 3)], Fraction(-5, 4)),
            ([Fraction(1, 3), 5, 0, -2], [1, Fraction(2, 9), 1, Fraction(-1, 6)], Fraction(7, 2)),
        ]
        for num, den, x in cases:
            num, den = [Fraction(v) for v in num], [Fraction(v) for v in den]
            coeffs = power_series_of_rational(num, den, len(num) + len(den) - 1)
            series = series_in_coupling(coeffs, x)
            exact = sum(a * x**i for i, a in enumerate(num)) / sum(
                b * x**i for i, b in enumerate(den)
            )
            value = pade(series, len(num) - 1, len(den) - 1, x)
            assert type(value) is float
            assert value == float(exact)

    def test_value_does_not_depend_on_the_coupling(self):
        couplings = [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)]
        potential = make_potential(Fraction(7, 4), Fraction(5, 3), couplings)
        _, series = compute_series(potential, make_state(0, 0), 12)
        for x in couplings + [1]:
            assert pade(series, 3, 3, x) == 2.5619333897467036
        assert pade(series, 3, 3) == 2.5619333897467036

    def test_degenerate_degrees_raise(self):
        x = Fraction(3, 10)
        series = series_in_coupling([Fraction(1)] * 4, x)
        with pytest.raises(SingularPadeSystem):
            pade(series, 1, 2, x)
        # [0/1] of 1 + x + x^2 is 1/(1 - x), evaluated at its pole x = 1
        with pytest.raises(SingularPadeSystem):
            pade(EnergySeries((Fraction(1), Fraction(1), Fraction(1))), 0, 1, 1)

    def test_too_few_coefficients(self):
        series = EnergySeries((Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            pade(series, 2, 2, Fraction(1, 10))

    def test_zero_coupling_rejected(self):
        series = EnergySeries((Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            pade(series, 1, 0, 0)


class TestDivergenceDiagnostics:
    def test_harmonic_report(self):
        _, series = compute_series(make_potential(1, 1), make_state(1, 1), 8)
        report = divergence_diagnostics(series)
        assert report.partial_sums == (4.5,) * 8
        assert report.ratios[0] == 0.0
        assert all(r is None for r in report.ratios[1:])
        assert report.growth_flag is False

    def test_strong_coupling_growth(self):
        _, series = compute_series(make_potential(1, 1, [1]), make_state(0, 0), 15)
        report = divergence_diagnostics(series)
        assert report.growth_flag is True
        tail = report.ratios[-5:]
        assert all(a < b for a, b in zip(tail, tail[1:]))

    def test_quartic_signs_alternate_from_second_order(self):
        _, series = compute_series(make_potential(1, 1, [1]), make_state(0, 0), 15)
        signs = [1 if c > 0 else -1 for c in list(series)[1:]]
        assert signs == [(-1) ** k for k in range(len(signs))]

    def test_short_series_reports_sums_and_ratios_unflagged(self):
        # Judged like a longer series, the first would set the growth flag
        # (ratios 1, 2, 3, 4).
        growing = divergence_diagnostics(EnergySeries(tuple(map(Fraction, (1, 1, 2, 6, 24)))))
        assert growing.partial_sums == (1.0, 2.0, 4.0, 10.0, 34.0)
        assert growing.ratios == (1.0, 2.0, 3.0, 4.0)
        terms = (Fraction(1), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 7), Fraction(0))
        settled = divergence_diagnostics(EnergySeries(terms))
        assert settled.partial_sums == tuple(
            float(sum(terms[:k])) for k in range(1, 6)
        )
        assert settled.ratios == (float(Fraction(1, 3)), 1.0, float(Fraction(3, 7)), 0.0)
        for report in (growing, settled):
            assert report.growth_flag is False

    def test_report_has_no_pade_degrees(self):
        names = list(SummationReport._fields)
        assert names == [
            "partial_sums", "ratios", "growth_flag",
        ]

    def test_reports_are_read_only(self):
        _, series = compute_series(make_potential(1, 1), make_state(0, 0), 6)
        before = tuple(series)
        divergence_diagnostics(series)
        assert tuple(series) == before
