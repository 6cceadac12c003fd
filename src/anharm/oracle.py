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
numpy is imported inside the functions that build arrays, so importing this
module, as `anharm` and `anharm.cli` do, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

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


def _check_bracket(lo: float, hi: float) -> None:
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"bracket must satisfy lo < hi, both finite, got {lo}, {hi}")


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
        _check_bracket(*self.bracket)


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


def _floats(potential: PotentialSpec):
    """(m, omega, m omega, couplings), the solver's one float view of the potential.
    ValueError for a mass, omega or mass * omega that is not a nonzero finite
    float, or a coupling that overflows; one that rounds to 0.0 is kept."""
    m, omega = potential.mass, potential.omega
    values = []
    for name, x in [("mass", m), ("omega", omega), ("mass * omega", m * omega),
                    *((f"v_{i}", v) for i, v in enumerate(potential.anharmonic, 1))]:
        try:
            values.append(float(x))
            fits = values[-1] != 0.0 or name.startswith("v_")
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError(f"{name} is out of the float range the solver works in")
    return values[0], values[1], values[2], values[3:]


def _v_eff(potential: PotentialSpec, l: int, r):
    """l(l+1)/(2m r^2) + V(r), the effective radial potential, on the array r.

    Built in place: r, one scratch array and the result are the only arrays
    of grid size alive at once.
    """
    import numpy as np

    m, omega, _, couplings = _floats(potential)
    r2 = r * r
    v = (l * (l + 1) / (2.0 * m)) / r2
    r2 *= 0.5 * m * omega ** 2
    v += r2
    for i, vi in enumerate(couplings, 1):
        if vi:  # a zero coupling adds nothing, where its power overflows too
            np.power(r, 2 * i + 2, out=r2)
            r2 *= vi
            v += r2
    return v


def default_config(
    potential: PotentialSpec,
    state: QuantumState,
    grid_points: int = 16000,
    tolerance: float = 1e-12,
    r_max: float | None = None,
    bracket: tuple[float, float] | None = None,
) -> OracleConfig:
    """Box and bracket sized from the energy, so truncation is negligible.

    The upper bracket end starts at 3 e + 10 omega, e = (2n + l + 3/2) omega
    the oscillator estimate, and doubles while its WKB phase, the integral of
    sqrt(2m (E - V_eff)) dr, is below (n + 3/2) pi; level n lies near
    (n + 3/4) pi.  The box radius is the outer turning point of the upper
    bracket energy plus a WKB decay of exp(-_DECAY_MARGIN), which every
    energy in the bracket exceeds.  Both read one scan of 2m (V_eff - E) in
    1% steps from 1e-3 to 1e6 oscillator lengths 1/sqrt(m omega).  The lower
    end is the minimum of V_eff on the grid, where no solution has a node.
    Raises BracketingFailure for potentials that do not confine within the
    scan, and ValueError for what _floats refuses and for a scan that sizes
    box or bracket with a NaN V_eff, or a V_eff above every finite upper end.
    """
    import numpy as np

    m, omega, mw, _ = _floats(potential)
    length = 1.0 / math.sqrt(mw)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.geomspace(1e-3 * length, 1e6 * length, 2400)
        v = _v_eff(potential, state.l, r)
        upper = (3.0 * (2 * state.n + state.l + 1.5) + 10.0) * omega
        if bracket is not None:
            _check_bracket(*bracket)  # before the box is sized from its upper end
            upper = float(bracket[1])
        if (bracket is None or r_max is None) and np.isnan(v).any():
            raise ValueError("V_eff on the scan is out of the float range the solver works in")
        while bracket is None:
            k = np.sqrt(np.maximum(2.0 * m * (upper - v), 0.0))
            phase = 0.5 * np.dot(k[1:] + k[:-1], np.diff(r))
            if phase >= (state.n + 1.5) * math.pi:
                break
            upper *= 2.0
            if math.isinf(upper):  # V_eff exceeds every finite upper end
                raise ValueError("V_eff on the scan is out of the float range the solver works in")
        excess = 2.0 * m * (v - upper)
        if r_max is None:
            allowed = np.flatnonzero(excess < 0.0)
            if allowed.size == 0:
                raise BracketingFailure(
                    f"upper bracket energy {upper} lies below the potential everywhere"
                )
            kappa = np.sqrt(np.maximum(excess[allowed[-1]:], 0.0))
            decay = np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.diff(r[allowed[-1]:]))
            beyond = np.flatnonzero(decay >= _DECAY_MARGIN)
            if beyond.size == 0:
                raise BracketingFailure(
                    "potential never reaches the confinement level; "
                    "refusing a non-confining potential"
                )
            r_max = r[allowed[-1] + 1 + beyond[0]]
    config = OracleConfig(
        float(r_max), int(grid_points), state, bracket or (float(v.min()), upper), float(tolerance)
    )
    if bracket is None:
        # The lower end moves from the scan's minimum of V_eff to the grid's.
        g = config.grid_points
        v = _v_eff(potential, state.l, np.arange(1, g + 1) * (config.r_max / g))
        config = replace(config, bracket=(float(v.min()), upper))
    return config


def _grid(potential: PotentialSpec, l: int, r_max: float, grid_points: int):
    """(h, tv, s): the step h, the energy-free part tv_j of the Numerov factor
    t_j = (h^2/12) 2m (V_eff(r_j) - E) at r_j = j h (j = 1..g), as a list, and
    the sweep start s, the least index with tv < 1 at r_(s+3): near the origin
    t ~ l(l+1)/(12 j^2) exceeds 1 at r = 3h once l >= 10 and would flip the
    sign of U = y/(1 - t).  s = 0 for l <= 9 on the default grids."""
    import numpy as np

    h = r_max / grid_points
    tv = _v_eff(potential, l, np.arange(1, grid_points + 1) * h)
    tv *= h * h / 6.0 * _floats(potential)[0]
    return h, tv.tolist(), int(np.argmax(tv[2:] < 1.0))


def _integrate(potential, state, energy, h, tv, s):
    """One outward Numerov sweep in summed form.

    Returns (interior node count, log |u(r_max)|), the log taken of the
    boundary value times _RESCALE_LIMIT**rescales.  The recurrence
    y_(j+1) - 2 y_j + y_(j-1) = 12 t_j U_j is summed through the differences
    d (Henrici), which keeps the round-off at O(eps) instead of O(eps/h^2).
    It starts from U = r^(l+1) (1 + u1 r^2 + u2 r^4) at r_(s+1) and r_(s+2).
    The solution is rescaled in the forbidden region to avoid overflow, which
    changes neither node locations nor the boundary sign.
    """
    m, omega, l = *_floats(potential)[:2], state.l
    c = h * h / 6.0 * m * energy
    u1c = -m * energy / (2 * l + 3)
    u2c = (-2.0 * m * energy * u1c + m * m * omega * omega) / (8 * l + 20)
    r1 = (s + 1) * h
    try:
        p0, p1 = r1 ** (l + 1), (r1 + h) ** (l + 1)
    except OverflowError:
        p0 = 0.0
    if p0 == 0.0:
        raise ValueError("start value r^(l+1) is out of the float range the solver works in")
    u0, u = (p * (1.0 + u1c * x * x + u2c * x**4) for p, x in ((p0, r1), (p1, r1 + h)))
    t = tv[s + 1] - c
    y = (1.0 - t) * u
    d = y - (1.0 - (tv[s] - c)) * u0
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
    return nodes, math.log(abs(u) or 5e-324) + rescales * _LOG_RESCALE


def _bisect_on_nodes(potential, config: OracleConfig, grid_points: int, bracket):
    """Shrink `bracket` around the energy where the node count jumps past n.

    Sweeps the config's state and box on `grid_points` points.  First bisects
    on the node count until nodes(lo) = n and nodes(hi) = n + 1, which
    isolates the level.  Then takes Illinois steps on the boundary value
    u(r_max; E), whose zero is where the count jumps: regula falsi on |u| via
    the log that _integrate returns, halving the value kept at one end each
    time the end that the last regula falsi step moved moves again.  The node
    count, not the sign, decides which end moves, and a plain bisection step
    is taken whenever the bracket has not halved over the last two steps.
    Returns (midpoint of the bracket at the config's tolerance, nodes at lo).
    """
    state, tolerance = config.target_state, config.tolerance
    n = state.n
    h, tv, s = _grid(potential, state.l, config.r_max, grid_points)
    lo, hi = bracket
    nodes_lo, size_lo = _integrate(potential, state, lo, h, tv, s)
    nodes_hi, size_hi = _integrate(potential, state, hi, h, tv, s)
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
        energy = mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise NotConverged(
                f"bisection stalled at machine resolution, width {hi - lo:.3e} "
                f"> tolerance {tolerance:.3e}"
            )
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
        count, size = _integrate(potential, state, energy, h, tv, s)
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
    return 0.5 * (lo + hi), nodes_lo


def solve_radial(potential: PotentialSpec, config: OracleConfig) -> OracleResult:
    """Eigenvalue with exactly n interior nodes and r^(l+1) origin behavior.

    Solves on the configured grid and once more on a half-resolution grid;
    the difference is a conservative error estimate for the returned
    (fine-grid) energy.  The half-grid solve starts from the fine energy
    +- _SEED_WIDTH max(1, |E|) and falls back to the configured bracket only
    when that does not straddle its level.
    """
    energy, node_count = _bisect_on_nodes(potential, config, config.grid_points, config.bracket)
    seed = _SEED_WIDTH * max(1.0, abs(energy))
    half = config.grid_points // 2
    try:
        coarse, _ = _bisect_on_nodes(potential, config, half, (energy - seed, energy + seed))
    except BracketingFailure:
        coarse, _ = _bisect_on_nodes(potential, config, half, config.bracket)
    return OracleResult(
        energy=energy,
        node_count=node_count,
        residual_estimate=max(abs(energy - coarse), 2.0 * config.tolerance),
        converged=node_count == config.target_state.n,
    )


def compare_with_series(
    oracle_result: OracleResult, report: SummationReport, pade_value: float | None = None
) -> ComparisonRecord:
    """Deviation of each partial sum, and of `pade_value`, from the solver energy.

    best_order is the 1-based truncation with minimal absolute deviation --
    the optimal-truncation point once the asymptotic growth takes over.
    """
    energy = oracle_result.energy
    scale = max(1.0, abs(energy))
    deviations = tuple(abs(s - energy) for s in report.partial_sums)
    pade_dev = None if pade_value is None else abs(pade_value - energy)
    return ComparisonRecord(
        deviations=deviations,
        relative_deviations=tuple(d / scale for d in deviations),
        pade_deviation=pade_dev,
        pade_relative_deviation=None if pade_dev is None else pade_dev / scale,
        best_order=min(range(len(deviations)), key=deviations.__getitem__) + 1,
    )
