"""Independent numeric eigenvalue solver for the radial equation.

Solves  -U''/(2m) + [l(l+1)/(2m r^2) + V(r)] U = E U  (hbar = 1) on a uniform
grid by outward Numerov integration (in Henrici's summed form) with node
counting.  The interior node count of the outward solution is a monotone step
function of E that jumps by one exactly at each box eigenvalue, where the
boundary value u(r_max; E) changes sign.  Bisecting on "count > n" until the
bracket holds only that jump isolates the level with n radial nodes without
ever chasing a neighbor state; Illinois steps on u(r_max; E), with the node
count deciding which end moves, then converge on it.  Everything here is
floating point; it exists to validate the exact series from the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .model import PotentialSpec, QuantumState
from .resummation import SummationReport

_MAX_STEPS = 200
_RESCALE_LIMIT = 1e250
_LOG_RESCALE = math.log(_RESCALE_LIMIT)
_LN2 = math.log(2.0)
# WKB decay, integral of sqrt(2m (V_eff - E)) dr, that the default box adds
# beyond the outer turning point of the upper bracket energy.
_DECAY_MARGIN = 20.0
# Half width, relative to max(1, |E|), of the half-grid solve's first bracket.
_SEED_WIDTH = 1e-7


class OracleError(Exception):
    pass


class BracketingFailure(OracleError):
    """The energy bracket does not straddle the requested state."""


class NotConverged(OracleError):
    """Bisection stalled before reaching the requested tolerance."""


@dataclass(frozen=True)
class OracleConfig:
    r_max: float
    grid_points: int
    target_state: QuantumState
    bracket: tuple[float, float]
    tolerance: float = 1e-12

    def __post_init__(self):
        if not 0 < self.r_max < math.inf:
            raise ValueError("r_max must be positive and finite")
        if self.grid_points < 1000:
            raise ValueError("need at least 1000 grid points")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        lo, hi = self.bracket
        if not lo < hi:
            raise ValueError("bracket must satisfy lo < hi")


@dataclass(frozen=True)
class OracleResult:
    energy: float
    node_count: int
    residual_estimate: float
    converged: bool


@dataclass(frozen=True)
class ComparisonRecord:
    """Deviation of each partial sum (and the Pade value) from the solver energy."""

    deviations: tuple[float, ...]
    relative_deviations: tuple[float, ...]
    pade_deviation: float | None
    pade_relative_deviation: float | None
    best_order: int


def _v_eff(potential: PotentialSpec, l: int, r: np.ndarray) -> np.ndarray:
    """l(l+1)/(2m r^2) + V(r), the effective radial potential.

    Built in place: r, one scratch array and the result are the only arrays
    of grid size alive at once.
    """
    m = float(potential.mass)
    r2 = r * r
    v = (l * (l + 1) / (2.0 * m)) / r2
    r2 *= 0.5 * m * float(potential.omega) ** 2
    v += r2
    for i, vi in enumerate(potential.anharmonic, 1):
        np.power(r, 2 * i + 2, out=r2)
        r2 *= float(vi)
        v += r2
    return v


def _box_radius(potential: PotentialSpec, r, v, energy: float) -> float:
    """Outer turning point of `energy` plus a WKB decay of _DECAY_MARGIN.

    The decay is the trapezoid sum of sqrt(2m (V_eff - E)) over the scan r
    (v = V_eff on it) from the last classically allowed sample outward.
    """
    excess = 2.0 * float(potential.mass) * (v - energy)
    allowed = np.flatnonzero(excess < 0.0)
    if allowed.size == 0:
        raise BracketingFailure(
            f"upper bracket energy {energy} lies below the potential everywhere"
        )
    tail = allowed[-1]
    kappa = np.sqrt(np.maximum(excess[tail:], 0.0))
    decay = np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.diff(r[tail:]))
    beyond = np.flatnonzero(decay >= _DECAY_MARGIN)
    if beyond.size == 0:
        raise BracketingFailure(
            "potential never reaches the confinement level; "
            "refusing a non-confining potential"
        )
    return float(r[tail + 1 + beyond[0]])


def default_config(
    potential: PotentialSpec,
    state: QuantumState,
    grid_points: int = 16000,
    tolerance: float = 1e-12,
    r_max: float | None = None,
    bracket: tuple[float, float] | None = None,
) -> OracleConfig:
    """Box and bracket sized from the energy, so truncation is negligible.

    The upper bracket end starts at 3 e + 10, e = (2n + l + 3/2) omega the
    oscillator estimate of the state, and doubles while its WKB phase, the
    integral of sqrt(2m (E - V_eff)) dr, is below (n + 3/2) pi; level n lies
    near (n + 3/4) pi.  The box radius is the outer turning point of the
    upper bracket energy plus a WKB decay of exp(-_DECAY_MARGIN) beyond it,
    which every energy in the bracket exceeds.  Both integrals run over a
    scan of r in 1% steps from a thousandth of the oscillator length to 1e6.
    The lower end is the minimum of V_eff on the grid, where no solution has
    a node.  Raises BracketingFailure for potentials that do not confine
    within r = 1e6.
    """
    length = 1.0 / math.sqrt(float(potential.mass) * float(potential.omega))
    r = np.geomspace(1e-3 * length, 1e6, 2400)
    v = _v_eff(potential, state.l, r)
    upper = 3.0 * (2 * state.n + state.l + 1.5) * float(potential.omega) + 10.0
    if bracket is not None:
        _, upper = bracket
    while bracket is None:
        k = np.sqrt(np.maximum(2.0 * float(potential.mass) * (upper - v), 0.0))
        if 0.5 * np.dot(k[1:] + k[:-1], np.diff(r)) >= (state.n + 1.5) * math.pi:
            break
        upper *= 2.0
    if r_max is None:
        r_max = _box_radius(potential, r, v, float(upper))
    config = OracleConfig(
        r_max=float(r_max),
        grid_points=int(grid_points),
        target_state=state,
        bracket=(-math.inf, upper) if bracket is None else bracket,
        tolerance=float(tolerance),
    )
    if bracket is None:
        # The lower end is the minimum of V_eff on the grid, now validated.
        g = config.grid_points
        v = _v_eff(potential, state.l, np.arange(1, g + 1) * (config.r_max / g))
        config = replace(config, bracket=(float(v.min()), upper))
    return config


def _grid(potential: PotentialSpec, l: int, r_max: float, grid_points: int):
    """Step h, radii r_j = j h (j = 1..g), the energy-free part of the
    Numerov factor t_j = (h^2/12) 2m (V_eff(r_j) - E), as a list, and the
    sweep start s, the least index with tv < 1 at r_(s+3): near the origin
    t ~ l(l+1)/(12 j^2) exceeds 1 at r = 3h once l >= 10 and would flip the
    sign of U = y/(1 - t).  s = 0 for l <= 9 on the default grids."""
    h = r_max / grid_points
    r = np.arange(1, grid_points + 1) * h
    tv = _v_eff(potential, l, r)
    tv *= h * h / 6.0 * float(potential.mass)
    return h, r, tv.tolist(), int(np.argmax(tv[2:] < 1.0))


def _start(potential: PotentialSpec, state: QuantumState, energy: float, h: float, tv, s: int):
    """Energy part c of t_j = tv_j - c, and the summed-form state at r_(s+2).

    Returns (c, U(r_(s+1)), U(r_(s+2)), t, y, d) with y = (1 - t) U and
    d_j = y_j - y_(j-1).  The two values of U come from the small-r series
    r^(l+1) (1 + u1 r^2 + u2 r^4), accurate beyond the scheme order; they are
    Python floats, so that the sweep loops run on floats.
    """
    m, omega, l = float(potential.mass), float(potential.omega), state.l
    c = h * h / 6.0 * m * energy
    u1c = -m * energy / (2 * l + 3)
    u2c = (-2.0 * m * energy * u1c + m * m * omega * omega) / (8 * l + 20)
    r1 = (s + 1) * h
    u0, u1 = (x ** (l + 1) * (1.0 + u1c * x * x + u2c * x**4) for x in (r1, r1 + h))
    t = tv[s + 1] - c
    y = (1.0 - t) * u1
    return c, u0, u1, t, y, y - (1.0 - (tv[s] - c)) * u0


def _integrate(potential, state, energy, h, tv, s):
    """One outward Numerov sweep in summed form.

    Returns (interior node count, u(r_max), rescales): the boundary value is
    u(r_max) * _RESCALE_LIMIT**rescales.  The recurrence
    y_(j+1) - 2 y_j + y_(j-1) = 12 t_j U_j is summed through the differences
    d (Henrici), which keeps the round-off at O(eps) instead of O(eps/h^2).
    The solution is rescaled in the forbidden region to avoid overflow, which
    changes neither node locations nor the boundary sign.
    """
    c, _, u, t, y, d = _start(potential, state, energy, h, tv, s)
    nodes = rescales = 0
    sign = math.copysign(1.0, u)
    limit = _RESCALE_LIMIT
    for p in islice(tv, s + 2, None):
        d += 12.0 * t * u
        y += d
        t = p - c
        u = y / (1.0 - t)
        size = u * sign
        if size < 0.0:
            nodes += 1
            sign = -sign
        elif size > limit:
            u /= limit
            y /= limit
            d /= limit
            rescales += 1
    return nodes, u, rescales


def _log_size(u: float, rescales: int) -> float:
    """log |u * _RESCALE_LIMIT**rescales|."""
    return math.log(abs(u) or 5e-324) + rescales * _LOG_RESCALE


def _bisect_on_nodes(potential, state, bracket, r_max, grid_points, tolerance):
    """Shrink [lo, hi] around the energy where the node count jumps past n.

    First bisects on the node count until nodes(lo) = n and nodes(hi) = n + 1,
    which isolates the level.  Then takes Illinois steps on the boundary value
    u(r_max; E), whose zero is where the count jumps: regula falsi on
    |u| * _RESCALE_LIMIT**rescales, halving the value kept at one end each
    time the end that the last regula falsi step moved moves again.  The node
    count, not the sign, decides which end moves, and a plain bisection step
    is taken whenever the bracket has not halved over the last two steps.
    Returns (lo, hi, node count at lo).
    """
    n = state.n
    h, _, tv, s = _grid(potential, state.l, r_max, grid_points)
    lo, hi = bracket
    nodes_lo, u, k = _integrate(potential, state, lo, h, tv, s)
    size_lo = _log_size(u, k)
    nodes_hi, u, k = _integrate(potential, state, hi, h, tv, s)
    size_hi = _log_size(u, k)
    if nodes_lo > n:
        raise BracketingFailure(
            f"lower bracket energy {lo} already has {nodes_lo} nodes (want {n})"
        )
    if nodes_hi <= n:
        raise BracketingFailure(
            f"upper bracket energy {hi} shows only {nodes_hi} nodes; "
            f"no level with {n} nodes inside the bracket"
        )
    steps = 0
    widths = [math.inf, math.inf]  # bracket width two steps and one step back
    run = 0  # +1 (-1): the last regula falsi step moved hi (lo)
    while hi - lo > tolerance:
        if steps >= _MAX_STEPS:
            raise NotConverged(
                f"bracket width {hi - lo:.3e} after {steps} steps "
                f"(tolerance {tolerance:.3e})"
            )
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise NotConverged(
                f"bisection stalled at machine resolution, width {hi - lo:.3e} "
                f"> tolerance {tolerance:.3e}"
            )
        energy = mid
        falsi = nodes_lo == n and nodes_hi == n + 1 and hi - lo <= 0.5 * widths[0]
        if falsi:
            # |u(hi)| / |u(lo)|; the two values have opposite signs.
            ratio = math.exp(max(-700.0, min(700.0, size_hi - size_lo)))
            # Never closer than half the tolerance to an end, so that a point
            # converging on the level from one side closes the bracket.
            nudge = min(0.5 * tolerance, 0.25 * (hi - lo))
            energy = min(max(lo + (hi - lo) / (1.0 + ratio), lo + nudge), hi - nudge)
            if not lo < energy < hi:
                energy, falsi = mid, False
        widths = [widths[1], hi - lo]
        count, u, k = _integrate(potential, state, energy, h, tv, s)
        size = _log_size(u, k)
        if count > n:
            if run == 1:
                size_lo -= _LN2
            hi, nodes_hi, size_hi = energy, count, size
        else:
            if run == -1:
                size_hi -= _LN2
            lo, nodes_lo, size_lo = energy, count, size
        if falsi:
            run = 1 if count > n else -1
        steps += 1
    return lo, hi, nodes_lo


def solve_radial(potential: PotentialSpec, config: OracleConfig) -> OracleResult:
    """Eigenvalue with exactly n interior nodes and r^(l+1) origin behavior.

    Solves on the configured grid and once more on a half-resolution grid;
    the difference is a conservative error estimate for the returned
    (fine-grid) energy.  The half-grid solve starts from the fine energy
    +- _SEED_WIDTH max(1, |E|) and falls back to the configured bracket only
    when that does not straddle its level.
    """
    state = config.target_state
    lo, hi, node_count = _bisect_on_nodes(
        potential, state, config.bracket, config.r_max,
        config.grid_points, config.tolerance,
    )
    energy = 0.5 * (lo + hi)
    seed = _SEED_WIDTH * max(1.0, abs(energy))
    coarse_points = config.grid_points // 2
    try:
        coarse_lo, coarse_hi, _ = _bisect_on_nodes(
            potential, state, (energy - seed, energy + seed), config.r_max,
            coarse_points, config.tolerance,
        )
    except BracketingFailure:
        coarse_lo, coarse_hi, _ = _bisect_on_nodes(
            potential, state, config.bracket, config.r_max,
            coarse_points, config.tolerance,
        )
    coarse = 0.5 * (coarse_lo + coarse_hi)
    residual = max(abs(energy - coarse), 2.0 * config.tolerance)
    return OracleResult(
        energy=energy,
        node_count=node_count,
        residual_estimate=residual,
        converged=node_count == state.n,
    )


def wavefunction_samples(
    potential: PotentialSpec,
    state: QuantumState,
    energy: float,
    r_max: float,
    grid_points: int,
):
    """Outward-integrated radial function at a fixed energy, max-normalized.

    Returns (r, U) arrays on the interior grid; useful for inspecting the
    eigenfunction behind a converged solve_radial energy.  Uses the same
    grid, start values and summed-form update as the solver's sweep; the
    s points before the sweep start (see _grid) read 0.
    """
    h, r, tv, s = _grid(potential, state.l, r_max, grid_points)
    c, u0, u, t, y, d = _start(potential, state, energy, h, tv, s)
    values = [0.0] * s + [u0, u]
    for p in islice(tv, s + 2, None):
        d += 12.0 * t * u
        y += d
        t = p - c
        u = y / (1.0 - t)
        values.append(u)
    out = np.array(values)
    peak = np.max(np.abs(out))
    if peak > 0:
        out /= peak
    return r, out


def compare_with_series(
    oracle_result: OracleResult, report: SummationReport
) -> ComparisonRecord:
    """Per-order deviation of the summed series from the solver energy.

    best_order is the 1-based truncation with minimal absolute deviation --
    the optimal-truncation point once the asymptotic growth takes over.
    """
    energy = oracle_result.energy
    scale = max(1.0, abs(energy))
    deviations = tuple(abs(s - energy) for s in report.partial_sums)
    relative = tuple(d / scale for d in deviations)
    best = min(range(len(deviations)), key=deviations.__getitem__) + 1
    pade_dev = (
        None if report.pade_value is None else abs(report.pade_value - energy)
    )
    return ComparisonRecord(
        deviations=deviations,
        relative_deviations=relative,
        pade_deviation=pade_dev,
        pade_relative_deviation=None if pade_dev is None else pade_dev / scale,
        best_order=best,
    )
