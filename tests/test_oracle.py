import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm import oracle
from anharm.engine import compute_series
from anharm.model import make_potential, make_state
from anharm.oracle import (
    BracketingFailure,
    NotConverged,
    OracleConfig,
    OracleError,
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

# One invalid OracleConfig field each.
INVALID_CONFIG_FIELDS = [
    {"r_max": 0.0},
    {"r_max": math.inf},
    {"grid_points": 500},
    {"tolerance": 0.0},
    {"tolerance": math.nan},
    {"tolerance": math.inf},
    {"bracket": (3.0, 1.0)},
    {"bracket": (0.0, math.inf)},
    {"bracket": (-math.inf, 1.0)},
]


HARMONIC_STATES = [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (3, 0)]
WEAK = make_potential(1, 1, [Fraction(1, 100)])
WEAK_STATES = [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 3), (3, 0), (0, 10), (5, 2)]


# (potential, l, energy, r_max, grid_points) and the repr of (nodes,
# log |u(r_max)|) that _integrate returned while it kept U's sign in a factor
# of its own: the sign-normalised sweep gives them bit for bit.
PINNED_SWEEPS = [
    ((HARMONIC, 0, 1.5, 8.0, 1000), "(1, 4.138724970609407)"),
    ((HARMONIC, 2, 1e4, 10.0, 1000), "(452, -14.142102698303452)"),
    ((HARMONIC, 0, 1.0, 40.0, 4000), "(0, 793.0726848420306)"),
    ((WEAK, 12, 20.0, 10.0, 1000), "(2, 51.75557993178229)"),
    ((WEAK, 0, -3.0, 10.0, 1000), "(0, 74.40021595991465)"),
]

# (mass, omega, couplings), (n, l) and the (r_max, lo, hi) of its default
# config by float.hex, as the scan's Illinois steps gave them before they
# shared one helper with the first rung's WKB level: the deep l = 40 well
# sits far inside its oscillator length.
PINNED_CONFIGS = [
    ((1, 1, []), (0, 0), ("0x1.d81bb5cb0acb0p+2", "0x1.07c1ec77f8d60p-21", "0x1.80261a8cf3e90p+1")),
    ((1, 1, [Fraction(1, 100)]), (1, 2),
     ("0x1.d00599be8d9b0p+2", "0x1.40d02e040b583p+1", "0x1.050d4f52540f6p+3")),
    ((1, Fraction(1, 4), [Fraction(-1), Fraction(1, 10)]), (0, 0),
     ("0x1.2089a32044d52p+2", "-0x1.d40b8ee37627ep+3", "-0x1.362c660757f70p+2")),
    ((Fraction(7, 4), Fraction(5, 3), [Fraction(1, 71)]), (2, 1),
     ("0x1.37f9a686aa135p+2", "0x1.2e0ba2fa77c34p+1", "0x1.c653e67e157dbp+3")),
    ((1, 1, [Fraction(1, 100)]), (0, 40),
     ("0x1.2a0f607231072p+3", "0x1.98df538a4b92ep+5", "0x1.c07cdad58e109p+5")),
    ((Fraction(57, 4224500), Fraction(713, 7024000), [Fraction(-6723, 51380), Fraction(705, 16096)]),
     (1, 40), ("0x1.3ab1a32431eb5p+4", "0x1.0c4a3e3e5700cp+19", "0x1.54dd9e4c0d26ap+19")),
]


@functools.cache
def _weak_series(state):
    return compute_series(WEAK, make_state(*state), 34)[1]


def _weak_reference(state):
    """The exact [16/16] Pade level of E_1..E_34 at v_1 = 1/100."""
    return pade(_weak_series(state), 16, 16)


@pytest.fixture
def swept(monkeypatch):
    """The grid size of every Numerov sweep the test runs, in order."""
    sizes = []
    sweep = oracle._integrate

    def counted(rung, energy):
        sizes.append(len(rung.tv))
        return sweep(rung, energy)

    monkeypatch.setattr(oracle, "_integrate", counted)
    return sizes


def _rung_position(seen, rung):
    """Position, counted from the coarsest, of `rung` among the rung sizes in
    `seen`, the sizes so far in the order they were first met."""
    size = len(rung.tv)
    if size not in seen:
        seen.append(size)
    return seen.index(size)


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
        rung = oracle._grid(oracle._floats(HARMONIC), l, math.sqrt(2 * result.energy), 4000)
        assert oracle._integrate(rung, result.energy)[0] == n

    @pytest.mark.parametrize(
        "sweep, expected", PINNED_SWEEPS,
        ids=["near-level", "452-nodes", "rescaled", "start-past-origin", "below-potential"],
    )
    def test_sweep_is_pinned_bit_for_bit(self, sweep, expected):
        """E = 1e4 crosses 452 nodes, E = 1 in a box of 40 grows past
        _RESCALE_LIMIT, and l = 12 starts the sweep one point out (s = 1)."""
        potential, l, energy, r_max, grid_points = sweep
        rung = oracle._grid(oracle._floats(potential), l, r_max, grid_points)
        assert repr(oracle._integrate(rung, energy)) == expected

    def test_large_l_eigenfunction(self):
        # U ~ r^301 exp(-r^2 / 2) grows by ~1e400 up to its peak at sqrt(301),
        # past the float range, so the sweeps must rescale to find the level.
        state = make_state(0, 300)
        config = default_config(HARMONIC, state, grid_points=4000, tolerance=1e-11)
        result = solve_radial(HARMONIC, config)
        assert result.node_count == 0
        assert abs(result.energy - 301.5) <= result.residual_estimate
        rung = oracle._grid(oracle._floats(HARMONIC), 300, config.r_max, 4000)
        _, size = oracle._integrate(rung, config.bracket[0])
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
        # At the 1000-point minimum the 250-point rung cannot resolve the well
        # and is skipped, so the estimate is the distance to the 500-point
        # rung: a rung as fine as the configured grid would leave only the
        # 2 * tolerance floor.
        config = OracleConfig(
            r_max=30.0, grid_points=1000, target_state=make_state(0, 0),
            bracket=(0.0, 14.5), tolerance=1e-10,
        )
        result = solve_radial(HARMONIC, config)
        assert abs(result.energy - 1.5) <= result.residual_estimate

    def test_half_grid_level_outside_seed_bracket(self):
        # A coarse box step: the configured grid's level lies beyond the half
        # grid's energy + 2e-7 max(1, |E|), so its seed bracket steps up.  Only
        # the 1000- and 2000-point rungs solve, so no triple obeys the h^4 law
        # and the solve does not claim convergence.
        config = OracleConfig(
            r_max=52.0, grid_points=2000, target_state=make_state(0, 0),
            bracket=(0.0, 14.5), tolerance=1e-10,
        )
        result = solve_radial(HARMONIC, config)
        assert result.node_count == 0 and not result.converged
        assert result.residual_estimate > 1.5e-7
        assert abs(result.energy - 1.5) < result.residual_estimate
        # Pinned bit for bit: the solve must keep its floating-point operations in order.
        assert result.energy.hex() == "0x1.7fffffca5693ap+0"
        assert result.residual_estimate.hex() == "0x1.8b27dee000000p-23"

    def test_rung_that_cannot_resolve_the_well_is_not_swept(self, swept):
        """In a box of 52 the Numerov factor t = (h^2/12) 2m (V_eff - E) at
        E = 0 peaks at 9.7 on 250 points and at 2.4 on 500, where
        U = y/(1 - t) flips sign from step to step and counts spurious nodes.
        Those rungs are skipped without a sweep; the 1000- and 2000-point
        rungs solve, and two rungs make no triple, so the solve does not claim
        convergence."""
        config = OracleConfig(
            r_max=52.0, grid_points=2000, target_state=make_state(0, 0), bracket=(0.0, 14.5),
        )
        result = solve_radial(HARMONIC, config)
        assert set(swept) == {1000, 2000}
        assert result.node_count == 0 and not result.converged
        assert abs(result.energy - 1.5) <= result.residual_estimate


class TestLadder:
    """The ladder climbs from g/64, or the coarsest rung of at least 250
    points, to g, the configured grid, doubling the points on each rung."""

    @pytest.mark.parametrize("grid_points", [2000, 4000])
    @pytest.mark.parametrize("state", WEAK_STATES)
    def test_small_grid_weak_coupling(self, swept, grid_points, state):
        """Below the default grid: the eighth-size, configured and half-size
        grid search that these grids once ran swept up to 24.8 grid sizes."""
        config = default_config(WEAK, make_state(*state), grid_points=grid_points)
        result = solve_radial(WEAK, config)
        assert result.node_count == state[0] and result.converged
        assert abs(result.energy - _weak_reference(state)) <= result.residual_estimate <= 1e-8
        assert sum(swept) <= 12 * grid_points

    @pytest.mark.parametrize("grid_points", [2000, 4000])
    @pytest.mark.parametrize("state", HARMONIC_STATES)
    def test_small_grid_harmonic(self, grid_points, state):
        config = default_config(HARMONIC, make_state(*state), grid_points=grid_points)
        result = solve_radial(HARMONIC, config)
        assert result.node_count == state[0] and result.converged
        assert abs(result.energy - (2 * state[0] + state[1] + 1.5)) <= result.residual_estimate

    def test_coarse_failure_seeds_the_next_rung_from_its_own_wkb_level(self, monkeypatch):
        config = default_config(WEAK, make_state(1, 1), grid_points=4000)
        bisect, wkb = oracle._bisect_on_nodes, oracle._wkb_level
        calls, seen, levels = [], [], []

        def first_fails(rung, n, tolerance, limits, seed):
            calls.append((len(rung.tv), seed))
            if _rung_position(seen, rung) == 0:
                raise BracketingFailure("no level on the first rung")
            return bisect(rung, n, tolerance, limits, seed)

        def wkb_level(rung, n, upper):
            levels.append(wkb(rung, n, upper))
            return levels[-1]

        monkeypatch.setattr(oracle, "_bisect_on_nodes", first_fails)
        monkeypatch.setattr(oracle, "_wkb_level", wkb_level)
        result = solve_radial(WEAK, config)
        # Each of the first two rungs is seeded from its own WKB level +- 1e-2 max(omega, |E|).
        assert len(levels) == 2 and seen[1] == 2 * seen[0]
        widths = [1e-2 * max(1.0, abs(level)) for level in levels]
        assert calls[:2] == [
            (size, (level - width, level + width))
            for size, level, width in zip(seen, levels, widths)
        ]
        assert result.node_count == 1 and result.converged
        assert abs(result.energy - _weak_reference((1, 1))) <= result.residual_estimate

    @pytest.mark.parametrize("fails_at", [2000, 4000])
    def test_error_on_the_finest_rungs_is_the_solves_own(self, monkeypatch, fails_at):
        # The rungs below g/2 fail too, so no triple can stop the climb early.
        config = default_config(WEAK, make_state(1, 1), grid_points=4000)
        bisect = oracle._bisect_on_nodes

        def fine_fails(rung, *args):
            size = len(rung.tv)
            if size < 2000 or size == fails_at:
                raise NotConverged(f"no level on {size} points")
            return bisect(rung, *args)

        monkeypatch.setattr(oracle, "_bisect_on_nodes", fine_fails)
        with pytest.raises(NotConverged, match=f"no level on {fails_at} points"):
            solve_radial(WEAK, config)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_coarse_neighbour_level_is_not_taken(self, monkeypatch, shift):
        # The first rung returns the level below or above; the second rung's
        # node counts refuse the seed brackets around it.
        neighbour = make_state(1 + shift, 1)
        wrong = solve_radial(WEAK, default_config(WEAK, neighbour, grid_points=4000))
        config = default_config(WEAK, make_state(1, 1), grid_points=4000)
        bisect, seen = oracle._bisect_on_nodes, []

        def coarse_neighbour(rung, *args):
            if _rung_position(seen, rung) == 0:
                return wrong.energy, neighbour.n
            return bisect(rung, *args)

        monkeypatch.setattr(oracle, "_bisect_on_nodes", coarse_neighbour)
        result = solve_radial(WEAK, config)
        assert result.node_count == 1 and result.converged
        assert abs(result.energy - _weak_reference((1, 1))) <= result.residual_estimate


class TestFirstRung:
    """The first rung is seeded from its own Langer-corrected WKB level, the
    energy at which the WKB phase (_phase) on its grid, with 1/(8 m r^2)
    added to V_eff, reaches (n + 1/2) pi, +- 1e-2 max(omega, |E|), clipped
    to the configured bracket."""

    @pytest.mark.parametrize("state", HARMONIC_STATES)
    def test_harmonic_wkb_level_is_the_level(self, state):
        # The Langer-corrected WKB level of the oscillator is exact; the
        # 250-point sum misses it by far less than the seed's half width.
        config = default_config(HARMONIC, make_state(*state))
        rung = oracle._grid(oracle._floats(HARMONIC), state[1], config.r_max, 250)
        level = oracle._wkb_level(rung, state[0], config.bracket[1])
        assert abs(level - (2 * state[0] + state[1] + 1.5)) <= 2e-3 * level

    @pytest.mark.parametrize("upper", [0.25, 1.0, 1.49], ids=["below-the-potential", "below", "just-below"])
    def test_upper_below_the_level_is_returned(self, upper):
        """The least energy up to `upper` whose phase reaches the target is
        `upper` itself when the level 1.5 lies above it, and also where the
        Langer-corrected V_eff, least 0.5 near r = 0.71, does."""
        config = default_config(HARMONIC, make_state(0, 0))
        rung = oracle._grid(oracle._floats(HARMONIC), 0, config.r_max, 250)
        assert oracle._wkb_level(rung, 0, upper) == upper

    @pytest.mark.parametrize("bracket", [(0.5, 1.49), (1.51, 3.0)], ids=["below", "above"])
    def test_bracket_that_excludes_the_level_is_never_left(self, monkeypatch, bracket):
        """The seed lies at the level 1.5, outside the configured bracket: it
        is clipped to the bracket, and no sweep runs outside it."""
        energies = []
        sweep = oracle._integrate

        def recorded(rung, energy):
            energies.append(energy)
            return sweep(rung, energy)

        monkeypatch.setattr(oracle, "_integrate", recorded)
        config = default_config(HARMONIC, make_state(0, 0), grid_points=2000, bracket=bracket)
        with pytest.raises(BracketingFailure):
            solve_radial(HARMONIC, config)
        assert energies and all(bracket[0] <= energy <= bracket[1] for energy in energies)


_SCALED = st.builds(
    lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
    st.integers(1, 9999), st.integers(1, 9999), st.integers(-3, 3),
)


# RuntimeWarning only: numpy's overflow raises, while a DeprecationWarning
# that a plugin raises inside hypothesis' own reporting stays a warning, so a
# failing example is reported and later tests still run.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    mass=_SCALED,
    omega=_SCALED,
    couplings=st.lists(st.tuples(_SCALED, st.booleans()), max_size=4),
    n=st.integers(0, 6),
    l=st.sampled_from([0, 1, 2, 5, 12, 40]),
    grid_points=st.sampled_from([1000, 2000, 4000, 16000]),
)
def test_every_problem_ends_in_its_level_or_a_typed_error(mass, omega, couplings, n, l, grid_points):
    """The class of confining potentials the model accepts: m and omega of 1-4
    digit rationals times 10^(-3..3), up to four couplings of either sign with
    the last one positive.  Each default solve ends in a level with n nodes
    or in an OracleError or ValueError, never in another exception."""
    couplings = [v if positive else -v for v, positive in couplings]
    if couplings:
        couplings[-1] = abs(couplings[-1])
    potential = make_potential(mass, omega, couplings)
    try:
        result = solve_radial(potential, default_config(potential, make_state(n, l), grid_points=grid_points))
    except (OracleError, ValueError):
        return
    assert result.node_count == n


class TestRichardsonLadder:
    """On the default grid, R(b, c) from the first three successive rungs that
    obey the h^4 law with an estimate of at most 4 tolerances.  The estimate
    is |R(b, c) - R(a, b)| / 16: under Numerov's even error expansion
    E + A h^4 + B h^6 the error of R(b, c) is that difference over 63, so 16
    keeps a margin of 4.  A default solve sweeps 0.66-1.31 configured grids;
    with |R(b, c) - R(a, b)| itself as the estimate it swept up to 2.31."""

    @pytest.mark.parametrize("state", HARMONIC_STATES)
    def test_harmonic_exact_levels(self, swept, state):
        config = default_config(HARMONIC, make_state(*state))
        result = solve_radial(HARMONIC, config)
        exact = 2 * state[0] + state[1] + 1.5
        assert result.node_count == state[0]
        assert abs(result.energy - exact) <= result.residual_estimate <= 1e-11
        assert sum(swept) <= 1.5 * config.grid_points

    @pytest.mark.parametrize("grid_points", [1000, 2000])
    @pytest.mark.parametrize(
        "potential, state",
        [(HARMONIC, s) for s in HARMONIC_STATES] + [(WEAK, s) for s in WEAK_STATES],
    )
    def test_estimate_keeps_a_margin(self, potential, state, grid_points):
        """Below the default grid the ladder seldom meets 4 tolerances, so the
        estimate is R(b, c)'s own: at most half of it is ever spent (0.25 at
        most here).  Over 63, the bare h^6 term, 7 of these cases spend more
        than half, up to 0.99."""
        reference = (_weak_reference(state) if potential is WEAK
                     else 2 * state[0] + state[1] + 1.5)
        result = solve_radial(potential, default_config(potential, make_state(*state),
                                                        grid_points=grid_points))
        assert result.node_count == state[0] and result.converged
        assert abs(result.energy - reference) <= result.residual_estimate / 2

    @pytest.mark.parametrize("state", [(2, 1), (3, 0)])
    def test_wrong_sign_extrapolation_fails(self, monkeypatch, swept, state):
        """The companion of test_harmonic_exact_levels: with the sign of the
        h^4 correction flipped, R(b, c) - R(a, b) is 14 (c - b) instead of
        about 0, so no rung below the configured grid meets 4 tolerances and
        the solve sweeps the configured grid to the end."""
        monkeypatch.setattr(oracle, "_richardson", lambda coarse, fine: fine - (fine - coarse) / 15)
        config = default_config(HARMONIC, make_state(*state))
        result = solve_radial(HARMONIC, config)
        exact = 2 * state[0] + state[1] + 1.5
        assert not (abs(result.energy - exact) <= result.residual_estimate <= 1e-11
                    and sum(swept) <= 1.5 * config.grid_points)

    @pytest.mark.parametrize("state", [*WEAK_STATES, (5, 3)])
    def test_weak_coupling_reference(self, state):
        """At v_1 = 1/100 the exact [16/16] Pade level of E_1..E_34 is a
        float-precision reference: [17/16] rounds to the same float."""
        reference = _weak_reference(state)
        assert pade(_weak_series(state), 17, 16) == reference
        result = solve_radial(WEAK, default_config(WEAK, make_state(*state)))
        assert abs(result.energy - reference) <= result.residual_estimate <= 1e-11

    @pytest.mark.parametrize("fault", ["shift", "error"])
    @pytest.mark.parametrize("state", [(0, 0), (1, 2)])
    def test_no_h4_law_returns_the_configured_grid(self, monkeypatch, fault, state):
        """Every rung below the configured grid moves by 1e-9, up and down in
        turn, far off the h^4 law and far beyond the tolerance from its
        neighbours, or every rung below the half-size grid raises: no triple
        obeys the law, and the solve returns the configured grid's level,
        estimated by its distance to the half-size grid's."""
        config = default_config(WEAK, make_state(*state))
        g, bisect, seen = config.grid_points, oracle._bisect_on_nodes, []
        energies = {}

        def off_the_law(rung, *args):
            size, position = len(rung.tv), _rung_position(seen, rung)
            if size < g // 2 and fault == "error":
                raise NotConverged(f"no level on {size} points")
            level, nodes = bisect(rung, *args)
            shift = (-1) ** position * 1e-9 if size < g and fault == "shift" else 0.0
            energies[size] = level + shift
            return energies[size], nodes

        monkeypatch.setattr(oracle, "_bisect_on_nodes", off_the_law)
        result = solve_radial(WEAK, config)
        assert result.energy == energies[g] and result.node_count == state[0]
        assert result.residual_estimate == max(abs(energies[g] - energies[g // 2]), 2e-12)
        assert abs(result.energy - _weak_reference(state)) <= result.residual_estimate

    @pytest.mark.parametrize("signs", list(itertools.product((-1, 1), repeat=3)))
    def test_ladder_allows_for_where_each_rung_stopped(self, monkeypatch, swept, signs):
        """Each rung energy is the midpoint of a bracket no wider than the
        tolerance, so it may lie anywhere within half the tolerance of its
        grid's level.  At v_1 = 1/100, (0,0), the third to fifth rungs (1000,
        2000 and 4000 points) differ by 1.08e-10 and then only 6.75e-12.  The
        first two rungs fail, so the climb starts at the third, and moving the
        three by 0.45 tolerance gives ratios of 14.0-18.6: the ladder's level
        must still be taken there, before the configured grid, and be right."""
        config = default_config(WEAK, make_state(0, 0))
        shift = dict(zip((2, 3, 4), (0.45 * s * config.tolerance for s in signs)))
        bisect, seen = oracle._bisect_on_nodes, []

        def shifted(rung, *args):
            position = _rung_position(seen, rung)
            if position < 2:
                raise NotConverged(f"no level on rung {position}")
            energy, nodes = bisect(rung, *args)
            return energy + shift.get(position, 0.0), nodes

        monkeypatch.setattr(oracle, "_bisect_on_nodes", shifted)
        result = solve_radial(WEAK, config)
        assert config.grid_points not in swept
        assert abs(result.energy - _weak_reference((0, 0))) <= result.residual_estimate <= 1e-11

    @pytest.mark.parametrize(
        "problem, state",
        [((1, 1, [Fraction(1, 100)]), s) for s in [(0, 0), (1, 0), (0, 1), (1, 2)]]
        + [((Fraction(7, 4), Fraction(5, 3), [Fraction(1, 71)]), (2, 1))],
    )
    def test_points_budget(self, swept, problem, state):
        """The states of test_sweep_budget: the eighth, fine and half-size
        grids swept 7.9-10.4 grid sizes, a ladder from g/16 2.5-2.9, the
        ladder from g/64 0.67-2.25, and with the estimate over 16 it sweeps
        0.66-1.25."""
        potential = make_potential(*problem)
        config = default_config(potential, make_state(*state))
        solve_radial(potential, config)
        assert sum(swept) <= 4 * config.grid_points

    @pytest.mark.parametrize("state", [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1)])
    def test_unit_length_oscillator(self, swept, state):
        """m = 10^6, omega = 10^-6, v_1 = 10^-8 is v_1 = 1/100 in oscillator
        units, at energies ~1e-6.  The rungs agree to within the 1e-12
        tolerance, so their ratio is noise and the ladder's level is taken;
        a climb to the configured grid would sweep more than 4 grid sizes."""
        reference = 1e-6 * _weak_reference(state)
        potential = make_potential(10**6, Fraction(1, 10**6), [Fraction(1, 10**8)])
        config = default_config(potential, make_state(*state))
        result = solve_radial(potential, config)
        assert sum(swept) <= 4 * config.grid_points
        assert result.node_count == state[0] and result.converged
        assert abs(result.energy - reference) <= result.residual_estimate


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
        """On the default grid and on the 4000-point grid of the CLI tests."""
        potential = make_potential(*problem)
        for grid in ({}, {"grid_points": 4000}):
            result = solve_radial(potential, default_config(potential, make_state(*state), **grid))
            assert result.node_count == state[0]
            assert result.converged and result.residual_estimate <= 1e-11
            # 1e-11: the convergence level of the reference itself
            assert abs(result.energy - reference) <= result.residual_estimate + 1e-11

    @pytest.mark.parametrize(
        "problem, state",
        [((1, 1, [Fraction(1, 100)]), s) for s in [(0, 0), (1, 0), (0, 1), (1, 2)]]
        + [((Fraction(7, 4), Fraction(5, 3), [Fraction(1, 71)]), (2, 1))],
    )
    def test_sweep_budget(self, swept, problem, state):
        """The sweeps are the solver's whole cost; count the points they cover,
        not seconds.  Every rung together covers 0.48-1.06 configured grids,
        in 15-20 sweeps, 7-8 of them on the first rung, seeded from its WKB
        level; searched from the bracket, that rung took 16-21."""
        potential = make_potential(*problem)
        config = default_config(potential, make_state(*state))
        solve_radial(potential, config)
        assert sum(swept) <= 1.5 * config.grid_points
        assert swept.count(swept[0]) <= 10 and len(swept) <= 20

    @pytest.mark.parametrize("state", [(0, 0), (1, 2)])
    @pytest.mark.parametrize(
        "mass, omega",
        [(10**6, Fraction(1, 10**6)), (Fraction(1, 10**6), Fraction(1, 10**6)),
         (Fraction(7, 4), Fraction(5, 3)), (1, Fraction(1, 100)), (1, 10**4), (1, 10**6)],
        ids=["unit-length", "long", "bench", "soft", "stiff", "stiffer"],
    )
    def test_oscillator_unit_scaling_law(self, mass, omega, state):
        """E(m, omega, v) = omega E(1, 1, v~) with v_1 = v~_1 m^2 omega^3.

        The default box and bracket follow the oscillator length and omega,
        so a unit-length oscillator far from m = omega = 1 solves as well.
        At omega = 10^4 and 10^6 the levels lie above 8192, where 1e-12 is
        less than an ulp: the tolerance floor lets the bisection close.
        """
        unit = _solve(make_potential(1, 1, [Fraction(1, 100)]), *state, grid_points=4000)
        scaled = make_potential(mass, omega, [Fraction(1, 100) * mass**2 * omega**3])
        result = _solve(scaled, *state, grid_points=4000)
        w = float(omega)
        bound = result.residual_estimate + w * unit.residual_estimate
        assert abs(result.energy - w * unit.energy) <= bound

    @pytest.mark.parametrize(
        "problem, state, expected", PINNED_CONFIGS,
        ids=["harmonic", "weak-1-2", "negative-well", "bench-2-1", "weak-l40", "deep-l40"],
    )
    def test_config_is_pinned_bit_for_bit(self, problem, state, expected):
        config = default_config(make_potential(*problem), make_state(*state))
        assert (config.r_max.hex(), *(end.hex() for end in config.bracket)) == expected

    def test_well_far_inside_the_oscillator_length(self):
        """The oscillator length is 27021 and the coupling lengths 9.10 and
        6.01, so the scan starts at r = 0.006, not at 27.0, beyond the whole
        well (the box ends at 19.7).  Its least V_eff is the lower end; from
        a scan that started at 27.0 that end had 148 nodes.  The reference
        is the level of a solver that took the lower end from the grid, in a
        box of 29.97, with its own estimate of 3.0e-8."""
        potential = make_potential(
            Fraction(57, 4224500), Fraction(713, 7024000),
            [Fraction(-6723, 51380), Fraction(705, 16096)],
        )
        result = _solve(potential, 1, 40, grid_points=4000, tolerance=1e-12)
        assert result.node_count == 1 and result.converged
        assert abs(result.energy - 637487.4147932949) <= result.residual_estimate + 3.0e-8

    def test_pure_quartic_scaling_law(self):
        """As omega -> 0 the level of v r^4 (m = 1) is v^(1/3) times that of
        r^4, so v = 8 doubles it.  At omega = 1e-10 and 1e-30 the oscillator
        length is 1e5 and 1e15 coupling lengths; a scan from 1e-3 oscillator
        lengths missed the well, and at 1e-10 the solve named 837934
        grid_points.  omega^2 r^2 / 2 moves these levels by about 1e-20."""
        def level(omega, v):
            potential = make_potential(1, omega, [v])
            result = solve_radial(potential, default_config(potential, make_state(0, 0)))
            assert result.node_count == 0 and result.converged
            return result.energy, result.residual_estimate

        (soft, soft_error), (one, one_error), (eight, eight_error) = (
            level(Fraction(1, 10**10), 1), level(Fraction(1, 10**30), 1),
            level(Fraction(1, 10**30), 8),
        )
        assert abs(soft - one) <= soft_error + one_error
        assert abs(eight - 2 * one) <= eight_error + 2 * one_error

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

    def test_tolerance_below_the_floor_is_raised(self):
        """No bisection closes below an ulp of its energies: a tolerance under
        4 ulp of the larger bracket end is raised to that, and the estimate
        is at least twice the raised tolerance."""
        config = default_config(HARMONIC, make_state(0, 0), grid_points=1000, tolerance=1e-30)
        floor = 4 * math.ulp(max(abs(end) for end in config.bracket))
        result = solve_radial(HARMONIC, config)
        assert result.node_count == 0 and result.converged
        assert 2 * floor <= result.residual_estimate
        assert abs(result.energy - 1.5) <= result.residual_estimate

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
        "couplings, l, grid_points, r_max",
        [([], 1000, 16000, 78.7), ([], 400, 2000, 51.1), ([1], 1000, 16000, None)],
        ids=["overflow-l1000", "overflow-l400", "underflow-quartic-l1000"],
    )
    def test_start_value_outside_the_float_range(self, couplings, l, grid_points, r_max):
        # The sweep starts at r = 1.41, 2.91 and 0.163, where r^(l+1) overflows,
        # overflows and underflows to 0 (and at twice that on the half grid).
        potential = make_potential(1, 1, couplings)
        config = default_config(potential, make_state(0, l), grid_points=grid_points, r_max=r_max)
        with pytest.raises(ValueError, match="start value r\\^\\(l\\+1\\) is out of the float"):
            solve_radial(potential, config)

    @pytest.mark.parametrize("l, grid_points", [(400, 2000), (1000, 16000)])
    def test_start_value_fits_in_the_default_box(self, l, grid_points):
        """The default box ends 20 units of WKB decay past the turning point of
        an upper end near level 0, 25.2 and 36.8 here, so the half and the
        configured grid start at r = 2.87 and 1.43, and 1.32 and 0.66, where
        r^(l+1) fits: the oscillator's level comes out.  Every coarser rung
        overflows, two rungs make no triple, and the solve says so."""
        config = default_config(HARMONIC, make_state(0, l), grid_points=grid_points)
        result = solve_radial(HARMONIC, config)
        assert result.node_count == 0 and not result.converged
        assert abs(result.energy - (l + 1.5)) <= result.residual_estimate <= 1e-7

    @pytest.mark.parametrize("kwargs", INVALID_CONFIG_FIELDS)
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

    @pytest.mark.parametrize("kwargs", INVALID_CONFIG_FIELDS)
    def test_replaced_field_is_validated(self, kwargs):
        config = default_config(HARMONIC, make_state(0, 0), grid_points=2000)
        with pytest.raises(ValueError):
            config._replace(**kwargs)


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
