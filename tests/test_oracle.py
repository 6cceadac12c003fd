import math
from fractions import Fraction

import pytest

from anharm import oracle
from anharm.engine import compute_series
from anharm.model import make_potential, make_state
from anharm.oracle import (
    BracketingFailure,
    NotConverged,
    OracleConfig,
    compare_with_series,
    default_config,
    solve_radial,
)
from anharm.resummation import divergence_diagnostics, pade, partial_sums

HARMONIC = make_potential(1, 1)

# Converged value for v_1 = 1/100, ground state: shooting on a 24k grid and a
# Richardson-extrapolated finite-difference matrix agree on these digits.
QUARTIC_001_GROUND = 1.535648278311

# (mass, omega, couplings), (n, l), level from a harmonic-oscillator-basis
# diagonalisation that agrees with itself to 1e-11 across basis sizes (basis
# frequency 3 for v1 = 10, 2 for the negative well, whose level sits in a
# shell near r = 2.6, and 8, 12 and 16, agreeing to 2e-13, for v1 >= 100).
# Away from weak coupling, and for a well that dips below zero, the default
# box and bracket must follow the energy of the state.
REFERENCE_LEVELS = [
    ((1, 1, [Fraction(1, 10)]), (0, 0), 1.769502643949054),
    ((1, 1, [Fraction(1)]), (0, 0), 2.737892268008434),
    ((1, 1, [Fraction(1)]), (1, 2), 13.85960722928434),
    ((1, 1, [Fraction(10)]), (0, 0), 5.321608256261253),
    ((1, Fraction(1, 4), [Fraction(-1), Fraction(1, 10)]), (0, 0), -11.13035764463604),
    ((1, 1, [Fraction(100)]), (1, 2), 60.5489108637337),
    ((1, 1, [Fraction(300)]), (0, 0), 16.0772425152562),
    ((1, 1, [Fraction(1000)]), (0, 0), 23.97220605638314),
]


def _solve(potential, n, l, grid_points=5000, tolerance=1e-11):
    state = make_state(n, l)
    config = default_config(potential, state, grid_points=grid_points, tolerance=tolerance)
    return solve_radial(potential, config)


class TestHarmonicSpectrum:
    def test_exact_levels_up_to_five(self):
        for n in range(6):
            for l in range(6):
                result = _solve(HARMONIC, n, l)
                exact = 2 * n + l + 1.5
                assert abs(result.energy - exact) < 1e-9, (n, l, result.energy)
                assert result.node_count == n
                assert result.converged

    def test_scaled_frequency(self):
        result = _solve(make_potential(1, 2), 1, 1, grid_points=6000)
        assert abs(result.energy - 9.0) < 1e-9

    def test_scaled_mass(self):
        # spectrum is mass-independent for the pure oscillator
        result = _solve(make_potential(Fraction(5, 2), 1), 0, 2)
        assert abs(result.energy - 3.5) < 1e-9

    @pytest.mark.parametrize("n, l", [(0, 10), (0, 12), (1, 11)])
    def test_high_l_has_no_origin_node(self, n, l):
        # t_j ~ l(l+1)/(12 j^2) exceeds 1 at r = 3h for l >= 10; a sweep
        # started inside that region counts a spurious node at the origin.
        state = make_state(n, l)
        config = default_config(HARMONIC, state, grid_points=4000)
        result = solve_radial(HARMONIC, config)
        exact = 2 * n + l + 1.5
        assert result.node_count == n
        assert abs(result.energy - exact) <= result.residual_estimate + 1e-11
        # One sweep at the level, in a box that ends at its turning point sqrt(2E).
        h, tv, s = oracle._grid(HARMONIC, l, math.sqrt(2 * result.energy), 4000)
        assert oracle._integrate(HARMONIC, state, result.energy, h, tv, s)[0] == n

    def test_large_l_eigenfunction(self):
        # U ~ r^301 exp(-r^2 / 2) grows by ~1e400 up to its peak at sqrt(301),
        # past the float range, so the sweeps must rescale to find the level.
        state = make_state(0, 300)
        config = default_config(HARMONIC, state, grid_points=4000, tolerance=1e-11)
        result = solve_radial(HARMONIC, config)
        assert result.node_count == 0
        assert abs(result.energy - 301.5) <= result.residual_estimate
        h, tv, s = oracle._grid(HARMONIC, 300, config.r_max, 4000)
        _, size = oracle._integrate(HARMONIC, state, config.bracket[0], h, tv, s)
        assert size > oracle._LOG_RESCALE  # at least one rescale


class TestGridRefinement:
    def test_residual_bounds_refinement_change(self):
        state = make_state(3, 2)
        coarse_cfg = default_config(HARMONIC, state, grid_points=2000, tolerance=1e-13)
        fine_cfg = default_config(HARMONIC, state, grid_points=4000, tolerance=1e-13)
        coarse = solve_radial(HARMONIC, coarse_cfg)
        fine = solve_radial(HARMONIC, fine_cfg)
        assert abs(fine.energy - coarse.energy) < coarse.residual_estimate

    def test_residual_bounds_refinement_change_quartic(self):
        pot = make_potential(1, 1, [Fraction(1, 20)])
        state = make_state(1, 1)
        coarse = solve_radial(pot, default_config(pot, state, grid_points=2000, tolerance=1e-13))
        fine = solve_radial(pot, default_config(pot, state, grid_points=4000, tolerance=1e-13))
        assert abs(fine.energy - coarse.energy) < coarse.residual_estimate

    def test_half_grid_below_minimum_fine_grid(self):
        # At the 1000-point minimum the half grid has 500 points: a half grid
        # as fine as the fine grid would leave only the 2 * tolerance floor.
        config = OracleConfig(
            r_max=30.0, grid_points=1000, target_state=make_state(0, 0),
            bracket=(0.0, 14.5), tolerance=1e-10,
        )
        result = solve_radial(HARMONIC, config)
        assert abs(result.energy - 1.5) <= result.residual_estimate

    def test_half_grid_level_outside_seed_bracket(self):
        # A coarse box step: the half-grid level lies beyond the fine energy
        # +- 1e-7 max(1, |E|), so the half-grid solve widens to the bracket.
        config = OracleConfig(
            r_max=52.0, grid_points=2000, target_state=make_state(0, 0),
            bracket=(0.0, 14.5), tolerance=1e-10,
        )
        result = solve_radial(HARMONIC, config)
        assert result.converged
        assert result.residual_estimate > 1.5e-7
        assert abs(result.energy - 1.5) < result.residual_estimate
        # Pinned bit for bit: the solve must keep its floating-point operations in order.
        assert result.energy.hex() == "0x1.7fffffca567afp+0"
        assert result.residual_estimate.hex() == "0x1.8b27d1b800000p-23"


class TestQuarticWeakCoupling:
    def test_ground_state_energy(self):
        pot = make_potential(1, 1, [Fraction(1, 100)])
        result = _solve(pot, 0, 0, grid_points=16000, tolerance=1e-12)
        assert abs(result.energy - QUARTIC_001_GROUND) < 5e-10
        assert result.residual_estimate < 1e-10

    def test_deep_partial_sum_agrees(self):
        # at this coupling the series is still shrinking at order 16
        pot = make_potential(1, 1, [Fraction(1, 100)])
        _, series = compute_series(pot, make_state(0, 0), 16)
        result = _solve(pot, 0, 0, grid_points=16000, tolerance=1e-12)
        assert abs(partial_sums(series)[-1] - result.energy) < 1e-9


class TestDefaultConfig:
    @pytest.mark.parametrize("problem, state, reference", REFERENCE_LEVELS)
    def test_reference_levels(self, problem, state, reference):
        potential = make_potential(*problem)
        result = solve_radial(potential, default_config(potential, make_state(*state)))
        assert result.node_count == state[0]
        assert result.converged
        # 1e-11: the convergence level of the reference itself
        assert abs(result.energy - reference) <= result.residual_estimate + 1e-11

    @pytest.mark.parametrize(
        "problem, state",
        [((1, 1, [Fraction(1, 100)]), s) for s in [(0, 0), (1, 0), (0, 1), (1, 2)]]
        + [((Fraction(7, 4), Fraction(5, 3), [Fraction(1, 71)]), (2, 1))],
    )
    def test_sweep_budget(self, monkeypatch, problem, state):
        """The sweeps are the solver's whole cost; count them, not seconds."""
        sweeps = 0
        sweep = oracle._integrate

        def counted(*args):
            nonlocal sweeps
            sweeps += 1
            return sweep(*args)

        monkeypatch.setattr(oracle, "_integrate", counted)
        potential = make_potential(*problem)
        solve_radial(potential, default_config(potential, make_state(*state)))
        assert sweeps <= 30  # fine and half grid together

    @pytest.mark.parametrize("state", [(0, 0), (1, 2)])
    @pytest.mark.parametrize(
        "mass, omega",
        [(10**6, Fraction(1, 10**6)), (Fraction(1, 10**6), Fraction(1, 10**6)),
         (Fraction(7, 4), Fraction(5, 3)), (1, Fraction(1, 100))],
        ids=["unit-length", "long", "bench", "soft"],
    )
    def test_oscillator_unit_scaling_law(self, mass, omega, state):
        """E(m, omega, v) = omega E(1, 1, v~) with v_1 = v~_1 m^2 omega^3.

        The default box and bracket follow the oscillator length and omega,
        so a unit-length oscillator far from m = omega = 1 solves as well.
        """
        unit = _solve(make_potential(1, 1, [Fraction(1, 100)]), *state, grid_points=4000)
        scaled = make_potential(mass, omega, [Fraction(1, 100) * mass**2 * omega**3])
        result = _solve(scaled, *state, grid_points=4000)
        w = float(omega)
        bound = result.residual_estimate + w * unit.residual_estimate
        assert abs(result.energy - w * unit.energy) <= bound

    def test_zero_couplings_add_nothing(self):
        """A zero coupling whose power overflows on the scan (r^52 at 1e6)
        leaves the box, the bracket and the level as they are without it."""
        quartic = make_potential(1, 1, [1])
        padded = make_potential(1, 1, [1] + [0] * 25)
        configs = [default_config(p, make_state(0, 0), grid_points=2000) for p in (quartic, padded)]
        assert configs[0] == configs[1]
        assert solve_radial(quartic, configs[0]) == solve_radial(padded, configs[1])

    def test_coupling_that_rounds_to_zero_is_kept(self):
        # v_1 = 10^-400 is 0.0 as a float, not out of the float range.
        tiny = make_potential(1, 1, [Fraction(1, 10**400)])
        state = make_state(0, 0)
        expected = default_config(HARMONIC, state, grid_points=2000)
        assert default_config(tiny, state, grid_points=2000) == expected


class TestFailureModes:
    def test_bracket_below_the_potential_everywhere(self):
        # No classically allowed point, so no box can be sized from the upper end.
        with pytest.raises(BracketingFailure, match="lies below the potential everywhere"):
            default_config(HARMONIC, make_state(0, 0), grid_points=2000, bracket=(-5.0, -1.0))

    def test_bracket_below_ground_state(self):
        state = make_state(0, 0)
        config = default_config(HARMONIC, state, grid_points=2000, bracket=(0.0, 0.5))
        with pytest.raises(BracketingFailure):
            solve_radial(HARMONIC, config)

    def test_bracket_above_target_state(self):
        state = make_state(0, 0)
        config = default_config(HARMONIC, state, grid_points=2000, bracket=(2.0, 5.0))
        with pytest.raises(BracketingFailure):
            solve_radial(HARMONIC, config)

    def test_non_confining_potential_refused(self):
        pot = make_potential(1, 1, [Fraction(-1)])
        with pytest.raises(BracketingFailure):
            default_config(pot, make_state(0, 0))

    def test_unreachable_tolerance(self):
        config = default_config(HARMONIC, make_state(0, 0), grid_points=1000, tolerance=1e-30)
        with pytest.raises(NotConverged):
            solve_radial(HARMONIC, config)

    def test_step_limit_names_the_step_count(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_STEPS", 3)
        config = default_config(HARMONIC, make_state(0, 0), grid_points=1000)
        with pytest.raises(NotConverged, match=r"after 3 steps \(tolerance 1\.000e-12\)"):
            solve_radial(HARMONIC, config)

    @pytest.mark.parametrize(
        "potential, name",
        [
            (make_potential(Fraction(1, 10**400), 1), "mass"),
            (make_potential(1, 1, [10**400]), "v_1"),
            (make_potential(1, 10**400), "omega"),
        ],
        ids=["mass-underflow", "coupling-overflow", "omega-overflow"],
    )
    def test_solve_radial_refuses_what_default_config_refuses(self, potential, name):
        config = default_config(HARMONIC, make_state(0, 0), grid_points=2000)
        message = f"{name} is out of the float range the solver works in"
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_config(potential, make_state(0, 0), grid_points=2000)
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_radial(potential, config)

    @pytest.mark.parametrize(
        "couplings, l, grid_points",
        [([], 1000, 16000), ([], 400, 2000), ([1], 1000, 16000)],
        ids=["overflow-l1000", "overflow-l400", "underflow-quartic-l1000"],
    )
    def test_start_value_outside_the_float_range(self, couplings, l, grid_points):
        # The sweep starts at r = 1.41, 2.91 and 0.164, where r^(l+1) overflows,
        # overflows and underflows to 0.
        potential = make_potential(1, 1, couplings)
        config = default_config(potential, make_state(0, l), grid_points=grid_points)
        with pytest.raises(ValueError, match="start value r\\^\\(l\\+1\\) is out of the float"):
            solve_radial(potential, config)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_max": 0.0},
            {"r_max": math.inf},
            {"grid_points": 500},
            {"tolerance": 0.0},
            {"tolerance": math.nan},
            {"tolerance": math.inf},
            {"bracket": (3.0, 1.0)},
            {"bracket": (0.0, math.inf)},
            {"bracket": (-math.inf, 1.0)},
        ],
    )
    def test_config_validation(self, kwargs):
        base = {
            "r_max": 8.0,
            "grid_points": 2000,
            "target_state": make_state(0, 0),
            "bracket": (0.0, 10.0),
            "tolerance": 1e-10,
        }
        base.update(kwargs)
        with pytest.raises(ValueError):
            OracleConfig(**base)


class TestComparisonRecord:
    def test_harmonic_deviations_vanish(self):
        _, series = compute_series(HARMONIC, make_state(0, 0), 6)
        report = divergence_diagnostics(series)
        result = _solve(HARMONIC, 0, 0)
        record = compare_with_series(result, report)
        assert all(d < 1e-9 for d in record.deviations)
        assert record.pade_deviation is None

    def test_pade_deviation(self):
        pot = make_potential(1, 1, [Fraction(1, 10)])
        _, series = compute_series(pot, make_state(0, 0), 7)
        report = divergence_diagnostics(series)
        result = _solve(pot, 0, 0, grid_points=4000)
        value = pade(series, 3, 3)
        record = compare_with_series(result, report, value)
        assert record.pade_deviation == abs(value - result.energy)
        assert record.pade_relative_deviation == record.pade_deviation / result.energy
        # [3/3] resums far past the best partial sum, which is off by 0.1.
        assert 0 < record.pade_deviation < 1e-3 < min(record.deviations)
        # The Pade value leaves the partial-sum deviations alone.
        plain = compare_with_series(result, report)
        assert plain.pade_deviation is None and plain.pade_relative_deviation is None
        assert (plain.deviations, plain.best_order) == (record.deviations, record.best_order)

    def test_weak_coupling_improves_through_order_five(self):
        pot = make_potential(1, 1, [Fraction(1, 100)])
        _, series = compute_series(pot, make_state(0, 0), 6)
        report = divergence_diagnostics(series)
        result = _solve(pot, 0, 0, grid_points=8000)
        record = compare_with_series(result, report)
        for k in range(1, 5):
            assert record.deviations[k] < record.deviations[k - 1]

    def test_strong_coupling_shows_optimal_truncation(self):
        pot = make_potential(1, 1, [Fraction(1)])
        _, series = compute_series(pot, make_state(0, 0), 15)
        report = divergence_diagnostics(series)
        result = _solve(pot, 0, 0, grid_points=8000)
        record = compare_with_series(result, report)
        assert record.best_order < series.order
        diffs = record.deviations
        assert any(diffs[k] > diffs[k - 1] for k in range(1, len(diffs)))
