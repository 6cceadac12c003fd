from fractions import Fraction

import pytest

from anharm.engine import compute_series
from anharm.model import make_potential, make_state
from anharm.oracle import _floats, _grid, _integrate, default_config, solve_radial
from anharm.wavefunction import (
    evaluate_log_derivative,
    harmonic_d_coefficients,
    node_polynomial,
)


def monic_laguerre(n: int, alpha: Fraction) -> list[Fraction]:
    """Associated Laguerre polynomial by the three-term recurrence, made monic.

    (k+1) L_{k+1}(x) = (2k + 1 + alpha - x) L_k(x) - (k + alpha) L_{k-1}(x),
    computed with exact coefficients; the reference the node polynomial must
    reproduce up to its monic normalization.
    """
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [1 + alpha, Fraction(-1)]
    for k in range(1, n):
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i] += (2 * k + 1 + alpha) * c
            nxt[i + 1] -= c
        for i, c in enumerate(prev):
            nxt[i] -= (k + alpha) * c
        cur, prev = [c / (k + 1) for c in nxt], cur
    lead = cur[-1]
    return [c / lead for c in cur]


class TestHarmonicLogDerivative:
    def test_ground_state_is_gaussian(self):
        d = harmonic_d_coefficients(make_state(0, 0), 6)
        assert list(d) == [-1, 1, 0, 0, 0, 0, 0]

    def test_first_excited_hand_iteration(self):
        d = harmonic_d_coefficients(make_state(1, 0), 3)
        assert list(d) == [-1, 3, 3, Fraction(9, 2)]

    @pytest.mark.parametrize("n,l", [(0, 0), (1, 0), (2, 1), (0, 3), (3, 2)])
    def test_matches_engine_head_column(self, n, l):
        state = make_state(n, l)
        order = 15
        d = harmonic_d_coefficients(state, order)
        table, _ = compute_series(make_potential(1, 1), state, order)
        for k in range(1, order + 1):
            assert table.entry(k, 0) == d[k]

    def test_order_must_reach_first_closed_coefficient(self):
        with pytest.raises(ValueError):
            harmonic_d_coefficients(make_state(0, 0), 1)


class TestNodePolynomial:
    def test_single_node_ratio(self):
        state = make_state(1, 0)
        poly = node_polynomial(state, harmonic_d_coefficients(state, 2))
        assert poly[0] / poly[1] == Fraction(-3, 2)

    @pytest.mark.parametrize("l", [0, 2, 5])
    def test_nodeless_states_are_constant(self, l):
        state = make_state(0, l)
        poly = node_polynomial(state, harmonic_d_coefficients(state, 2))
        assert list(poly) == [1]

    def test_two_node_ratios(self):
        state = make_state(2, 1)
        poly = node_polynomial(state, harmonic_d_coefficients(state, 3))
        assert poly[1] / poly[2] == -7
        assert poly[0] / poly[1] == Fraction(-5, 4)

    def test_laguerre_ratio_identity(self):
        for n in range(1, 9):
            for l in range(0, 7):
                state = make_state(n, l)
                poly = node_polynomial(state, harmonic_d_coefficients(state, n + 1))
                for m in range(1, n + 1):
                    expected = Fraction(m) * (m + l + Fraction(1, 2)) / (m - n - 1)
                    assert poly[m - 1] / poly[m] == expected

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 2), (4, 1), (6, 3)])
    def test_matches_monic_laguerre(self, n, l):
        state = make_state(n, l)
        poly = node_polynomial(state, harmonic_d_coefficients(state, n + 1))
        assert list(poly) == monic_laguerre(n, l + Fraction(1, 2))

    def test_signs_alternate(self):
        for n, l in [(3, 0), (5, 2), (6, 6)]:
            state = make_state(n, l)
            poly = node_polynomial(state, harmonic_d_coefficients(state, n + 1))
            for m in range(n):
                assert poly[m] * poly[m + 1] < 0

    def test_short_log_derivative_rejected(self):
        state = make_state(4, 0)
        with pytest.raises(ValueError):
            node_polynomial(state, harmonic_d_coefficients(state, 3))


class TestLogDerivativeEvaluation:
    def test_harmonic_ground_state_values(self):
        table, _ = compute_series(make_potential(1, 1), make_state(0, 0), 3)
        assert evaluate_log_derivative(table, 1.0, 1) == pytest.approx(0.0, abs=1e-15)
        assert evaluate_log_derivative(table, 2.0, 1) == pytest.approx(-1.5)
        assert evaluate_log_derivative(table, 2.0, 3) == pytest.approx(-1.5)

    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan"), float("inf")])
    def test_origin_side_rejected(self, r):
        table, _ = compute_series(make_potential(1, 1), make_state(0, 0), 2)
        with pytest.raises(ValueError, match="r > 0"):
            evaluate_log_derivative(table, r, 1)

    def test_order_beyond_table_rejected(self):
        table, _ = compute_series(make_potential(1, 1), make_state(0, 0), 2)
        with pytest.raises(ValueError):
            evaluate_log_derivative(table, 1.0, 3)

    def test_quartic_matches_numeric_eigenfunction(self):
        # Truncated series vs u'/u of the solver's sweep at the level: a
        # fourth-order difference of log|u| over four boxes of step h that
        # end at 1 - 2h, 1 - h, 1 + h and 1 + 2h.
        pot = make_potential(1, 1, [Fraction(1, 100)])
        state = make_state(0, 0)
        table, _ = compute_series(pot, state, 6)
        energy = solve_radial(pot, default_config(pot, state, grid_points=8000)).energy
        steps = 10000
        floats, logs = _floats(pot), []
        for k in (-2, -1, 1, 2):
            h, tv, s = _grid(floats, state.l, (steps + k) / steps, steps + k)
            logs.append(_integrate(floats, state, energy, h, tv, s)[1])
        numeric = (logs[0] - 8 * logs[1] + 8 * logs[2] - logs[3]) * steps / 12
        truncated = evaluate_log_derivative(table, 1.0, 6)
        assert abs(numeric - truncated) < 1e-4
