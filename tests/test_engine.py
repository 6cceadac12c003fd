import random
from fractions import Fraction

import pytest

from anharm.engine import OrderTooLarge, c0_coefficients, compute_series
from anharm.model import make_potential, make_state

from conftest import closed_form_corrections, random_problem, riccati_residuals


def binomial_sqrt_momentum(potential, imax):
    """Independent expansion of -sqrt(2mV) by the binomial series.

    Writes 2mV = (m w r)^2 (1 + u(r)) with u = (2/(m w^2)) sum v_i r^(2i)
    and expands sqrt(1+u) term by term; a completely different route from
    the engine's coefficient-squaring recursion.
    """
    m, w = potential.mass, potential.omega
    u = [Fraction(0)] * (imax + 1)
    for i in range(1, imax + 1):
        u[i] = 2 * potential.coefficient(i) / (m * w**2)

    def poly_mul(a, b):
        out = [Fraction(0)] * (imax + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j <= imax:
                    out[i + j] += ai * bj
        return out

    sqrt_series = [Fraction(0)] * (imax + 1)
    sqrt_series[0] = Fraction(1)
    u_power = [Fraction(0)] * (imax + 1)
    u_power[0] = Fraction(1)
    binom = Fraction(1)
    for j in range(1, imax + 1):
        binom *= (Fraction(1, 2) - (j - 1)) / j
        u_power = poly_mul(u_power, u)
        sqrt_series = [s + binom * c for s, c in zip(sqrt_series, u_power)]
    return [-m * w * c for c in sqrt_series]


class TestMomentumCoefficients:
    def test_harmonic_is_linear(self):
        series = c0_coefficients(make_potential(1, 1), 3)
        assert list(series) == [-1, 0, 0, 0]

    def test_quartic_matches_binomial_series(self):
        lam = Fraction(1)
        pot = make_potential(1, 1, [lam])
        series = c0_coefficients(pot, 2)
        assert list(series) == [-1, -lam, lam**2 / 2] == binomial_sqrt_momentum(pot, 2)

    def test_pure_sextic_matches_binomial_series(self):
        mu = Fraction(3, 7)
        pot = make_potential(1, 1, [0, mu])
        series = c0_coefficients(pot, 2)
        assert list(series) == [-1, 0, -mu] == binomial_sqrt_momentum(pot, 2)

    def test_general_potential_matches_binomial_series(self):
        pot = make_potential(Fraction(3, 2), Fraction(5, 3), [Fraction(1, 4), Fraction(-2, 5), 1])
        assert list(c0_coefficients(pot, 6)) == binomial_sqrt_momentum(pot, 6)

    def test_prefix_stable(self):
        pot = make_potential(2, 3, [1, -1, Fraction(1, 2)])
        short = c0_coefficients(pot, 3)
        long = c0_coefficients(pot, 9)
        assert long[:4] == short

    def test_negative_imax_rejected(self):
        with pytest.raises(ValueError):
            c0_coefficients(make_potential(1, 1), -1)


class TestQuantization:
    def test_first_order_counts_zeros(self):
        pot = make_potential(1, 1, [Fraction(1, 10)])
        assert compute_series(pot, make_state(0, 0), 1)[0].entry(1, 0) == 1
        assert compute_series(pot, make_state(2, 1), 1)[0].entry(1, 0) == 6

    def test_higher_orders_vanish(self):
        pot = make_potential(1, 1, [Fraction(1, 10)])
        assert compute_series(pot, make_state(2, 1), 5)[0].entry(5, 4) == 0


class TestTableOperations:
    @pytest.mark.parametrize(
        "mass,omega,n,l",
        [(1, 1, 0, 0), (1, 1, 1, 0), (2, 3, 1, 1)],
    )
    def test_second_level_head_entry(self, mass, omega, n, l):
        # C[2][0] = (N^2 - N - l(l+1)) / (2 m omega)
        pot = make_potential(mass, omega)
        state = make_state(n, l)
        table, _ = compute_series(pot, state, 3)
        big_n = state.principal
        expected = Fraction(big_n**2 - big_n - state.centrifugal, 2 * mass * omega)
        assert table.entry(2, 0) == expected

    def test_store_bounds_checked(self):
        table, _ = compute_series(make_potential(1, 1), make_state(0, 0), 2)
        with pytest.raises(IndexError):
            table.entry(3, 0)
        with pytest.raises(IndexError):
            table.entry(1, 5)


class TestEnergyCorrections:
    def test_first_correction_is_oscillator_level(self):
        rng = random.Random(7)
        for _ in range(5):
            pot, state = random_problem(rng)
            _, series = compute_series(pot, state, 1)
            assert series.correction(1) == Fraction(1 + 2 * state.principal, 2) * pot.omega

    def test_quartic_ground_state_low_orders(self):
        lam = Fraction(1, 10)
        _, series = compute_series(make_potential(1, 1, [lam]), make_state(0, 0), 3)
        assert series.correction(2) == 15 * lam / 4
        assert series.correction(3) == -165 * lam**2 / 8

    def test_matches_closed_forms_on_random_tuples(self):
        rng = random.Random(20240817)
        for _ in range(20):
            pot, state = random_problem(rng)
            _, series = compute_series(pot, state, 5)
            assert list(series) == closed_form_corrections(pot, state)

    def test_quartic_weak_coupling_table(self):
        _, series = compute_series(
            make_potential(1, 1, [Fraction(1, 100)]), make_state(0, 0), 5
        )
        assert list(series) == [
            Fraction(3, 2),
            Fraction(3, 80),
            Fraction(-33, 16000),
            Fraction(783, 3200000),
            Fraction(-104097, 2560000000),
        ]


class TestSeriesProperties:
    def test_harmonic_spectrum_exact(self):
        _, series = compute_series(make_potential(1, 1), make_state(2, 3), 10)
        assert series.correction(1) == Fraction(17, 2)
        assert all(series.correction(k) == 0 for k in range(2, 11))

    def test_harmonic_spectrum_scales_with_omega(self):
        _, series = compute_series(make_potential(1, 2), make_state(1, 1), 3)
        assert list(series) == [9, 0, 0]

    def test_harmonic_annihilation(self):
        rng = random.Random(99)
        pot = make_potential(Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(1, 8), 4))
        table, series = compute_series(pot, make_state(2, 2), 8)
        assert all(series.correction(k) == 0 for k in range(2, 9))
        for k in range(1, 9):
            for i in range(1, table.imax + 1):
                assert table.entry(k, i) == 0

    def test_quantization_invariant(self):
        rng = random.Random(4)
        pot, state = random_problem(rng)
        table, _ = compute_series(pot, state, 6)
        for k in range(1, 7):
            expected = state.principal if k == 1 else 0
            assert table.entry(k, k - 1) == expected

    def test_quartic_scaling(self):
        lam = Fraction(2, 7)
        scale = Fraction(5, 3)
        _, base = compute_series(make_potential(1, 1, [lam]), make_state(1, 1), 7)
        _, scaled = compute_series(make_potential(1, 1, [scale * lam]), make_state(1, 1), 7)
        for k in range(1, 8):
            assert scaled.correction(k) == scale ** (k - 1) * base.correction(k)

    def test_prefix_stability(self):
        pot = make_potential(1, 1, [Fraction(1, 3), Fraction(-1, 5)])
        state = make_state(1, 2)
        table5, series5 = compute_series(pot, state, 5)
        table9, series9 = compute_series(pot, state, 9)
        assert list(series9)[:5] == list(series5)
        for k in range(1, 6):
            for i in range(table5.imax + 1):
                assert table9.entry(k, i) == table5.entry(k, i)

    def test_extra_potential_terms_beyond_order_ignored(self):
        # E_K touches v_i only for i <= K-1
        vs = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(1, 7)]
        _, lean = compute_series(make_potential(1, 1, vs), make_state(0, 1), 5)
        _, padded = compute_series(
            make_potential(1, 1, vs + [Fraction(7), Fraction(-9)]), make_state(0, 1), 5
        )
        assert list(lean) == list(padded)

    def test_riccati_residuals_vanish(self):
        rng = random.Random(31415)
        for _ in range(5):
            pot, state = random_problem(rng)
            table, series = compute_series(pot, state, 8)
            assert all(r == 0 for r in riccati_residuals(table, series))


class TestGuards:
    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            compute_series(make_potential(1, 1), make_state(0, 0), 65)
        compute_series(make_potential(1, 1), make_state(0, 0), 65, max_order=65)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            compute_series(make_potential(1, 1), make_state(0, 0), 0)
