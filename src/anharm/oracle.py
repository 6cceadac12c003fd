"""Independent numeric eigenvalue solver for the radial equation.

Solves  -U''/(2m) + [l(l+1)/(2m r^2) + V(r)] U = E U  (hbar = 1) on a uniform
grid by outward Numerov integration (in Henrici's summed form) with node
counting.  The interior node count of the outward solution is a monotone step
function of E that jumps by one exactly at each box eigenvalue, where the
boundary value u(r_max; E) changes sign.  Bisecting on "count > n" until the
bracket holds only that jump isolates the level with n radial nodes without
ever chasing a neighbor state; secant steps on u(r_max; E), with the node
count deciding which end moves, then converge on it.  A ladder of grids,
from 1/64 of the configured size (at least 250 points) up to all of it,
finds the level one rung from the next: the first rung is seeded at its own
Langer-corrected WKB level, by the WKB phase and Illinois steps that also
size the default bracket, the second from the first's energy and each
later one by the h^4 law's prediction.  Richardson extrapolation of
Numerov's h^4 error gives the energy; the h^6 term that extrapolation
leaves gives its error estimate, and the climb stops once that estimate is
within 4 tolerances.  Each rung is one _Rung record, built by _grid and
read by name: the potential's floats, l, the step h, the Numerov scale
k = (h^2/6) m, the energy-free factors tv, the sweep start s and the index
top of the largest tv.  Everything here is floating point; it exists to
validate the exact series from the outside.
numpy is imported inside the functions that build arrays, so importing this
module does not load it; the first solve does.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice

from .model import PotentialSpec, QuantumState

_MAX_STEPS = 200
_RESCALE_LIMIT = 1e250
_LOG_RESCALE = math.log(_RESCALE_LIMIT)
# WKB decay, integral of sqrt(2m (V_eff - E)) dr, that the default box adds
# beyond the outer turning point of the upper bracket energy.
_DECAY_MARGIN = 20.0
# The default upper bracket end lies within this fraction of its height above
# the least V_eff of the least energy whose WKB phase reaches (n + 3/2) pi.
_UPPER_SLACK = 1.0 / 32.0
# Half width, relative to max(omega, |E|), of the first bracket on a rung
# seeded from its own WKB level, and on the second rung, whose bracket runs up
# from the first rung's energy: a finer grid raises a Numerov level.
_WKB_WIDTH = 1e-2
_SEED_WIDTH = 1e-7
# Fewest points on the first rung: from 250 points on, successive differences
# of the rungs' levels shrink by 15.1-16.1, the h^4 law's 16.
_FIRST_RUNG = 250
# Numerov's error expansion is even, E(h) = E + A h^4 + B h^6 + ...  R(b, c)
# removes A and leaves -(16/5) B h^6; R(a, b) leaves 64 times that, so the
# error of R(b, c) is (R(b, c) - R(a, b)) / 63.  A divisor of 16 keeps a
# margin of 4 over that.
_H6_DIVISOR = 16.0


class OracleError(Exception):
    pass


class BracketingFailure(OracleError):
    """The energy bracket does not straddle the requested state."""


class NotConverged(OracleError):
    """The bracket was still wider than the tolerance after _MAX_STEPS steps."""


def _check_bracket(lo: float, hi: float) -> None:
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"bracket must satisfy lo < hi, both finite, got {lo}, {hi}")


class OracleConfig(namedtuple("OracleConfig", "r_max grid_points target_state bracket tolerance")):
    """Box, grid, state, (lo, hi) energy bracket and tolerance of one solve."""

    __slots__ = ()

    def __new__(cls, r_max, grid_points, target_state, bracket, tolerance=1e-12):
        if not 0 < r_max < math.inf:
            raise ValueError("r_max must be positive and finite")
        if grid_points < 1000:
            raise ValueError("need at least 1000 grid points")
        if not 0 < tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        _check_bracket(*bracket)
        return super().__new__(cls, r_max, grid_points, target_state, bracket, tolerance)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates


OracleResult = namedtuple("OracleResult", "energy node_count residual_estimate converged")


class ComparisonRecord(namedtuple(
    "ComparisonRecord",
    "deviations relative_deviations pade_deviation pade_relative_deviation best_order",
)):
    """Deviation of each partial sum (and the Pade value) from the solver energy."""

    __slots__ = ()


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


def _v_eff(floats, l: int, r):
    """l(l+1)/(2m r^2) + V(r), the effective radial potential, on the array r,
    from the potential's _floats.

    Built in place: r, one scratch array and the result are the only arrays
    of grid size alive at once.
    """
    import numpy as np

    m, omega, _, couplings = floats
    r2 = r * r
    v = (l * (l + 1) / (2.0 * m)) / r2
    r2 *= 0.5 * m * (omega * omega)
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
    sqrt(2m (E - V_eff)) dr (_phase), is below (n + 3/2) pi; level n lies
    near (n + 3/4) pi.  _illinois then pulls it down to within _UPPER_SLACK
    of its height above the least V_eff of the least energy whose phase
    reaches (n + 3/2) pi.  The box radius is the outer turning point of the
    upper bracket energy plus a WKB decay of exp(-_DECAY_MARGIN), which
    every energy in the bracket exceeds, so the box shrinks with the upper end.
    Both read one scan of 2m (V_eff - E) in 1% steps from 1e-3 to 1e6 times
    the shortest of the oscillator length 1/sqrt(m omega) and each nonzero
    coupling's length (m |v_i|)^(-1/(2i+4)), the size of a level held by
    that term alone, so the scan reaches a well far inside the oscillator
    length.  The lower end lies at or below the least V_eff, where no solution
    has a node: 2 v_k - max(v_(k-1), v_(k+1)) at the scan's least v_k, which
    bounds a quadratic minimum between scan points from below, or the least
    V_eff on the grid of a given r_max, if lower.
    Raises BracketingFailure for potentials that do not confine within the
    scan, and ValueError for what _floats refuses, for a scan that sizes box
    or bracket with a NaN V_eff, or a V_eff above every finite upper end
    (2 V_eff finite nowhere), and, with r_max given and no bracket, for a
    V_eff on its grid that is not finite or a grid that lies wholly at or
    above the upper end.
    """
    import numpy as np

    floats = _floats(potential)
    m, omega, mw, couplings = floats
    length = 1.0 / math.sqrt(mw)
    sized = r_max is None  # the box is sized from the scan
    # The shortest length, each coupling's taken in logs so that m |v_i|
    # neither overflows nor underflows.
    reach = min([length] + [
        math.exp(-(math.log(m) + math.log(abs(vi))) / (2 * i + 4))
        for i, vi in enumerate(couplings, 1) if vi
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.geomspace(1e-3 * reach, 1e6 * reach, 2400)
        v = _v_eff(floats, state.l, r)
        upper = (3.0 * (2 * state.n + state.l + 1.5) + 10.0) * omega
        if bracket is not None:
            _check_bracket(*bracket)  # before the box is sized from its upper end
            upper = float(bracket[1])
        # The upper end doubles, so it can pass V_eff only where 2 V_eff is finite.
        if (bracket is None or r_max is None) and (
            np.isnan(v).any() or not np.isfinite(2.0 * v).any()
        ):
            raise ValueError("V_eff on the scan is out of the float range the solver works in")
        target, bottom = (state.n + 1.5) * math.pi, float(v.min())
        # The scan's least V_eff can sit above the ground level of a well
        # narrower than its 1% steps; at a quadratic minimum between scan
        # points, 2 v_k - max(v_(k-1), v_(k+1)) lies at or below the true one.
        k = int(np.argmin(v))
        floor = 2.0 * bottom - float(v[max(k - 1, 0):k + 2].max())
        # low and high: the phase minus the target at below and at upper.
        below, low = bottom, -target
        high = _phase(m, r, v, upper) - target if bracket is None else 0.0
        while high < 0.0:
            below, low, upper = upper, high, 2.0 * upper
            if math.isinf(upper):  # V_eff exceeds every finite upper end
                raise ValueError("V_eff on the scan is out of the float range the solver works in")
            high = _phase(m, r, v, upper) - target
        if bracket is None:
            upper = _illinois(lambda e: _phase(m, r, v, e) - target, below, low, upper, high,
                              lambda e: _UPPER_SLACK * (e - bottom))
        excess = 2.0 * m * (v - upper)
        if sized:
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
        float(r_max), int(grid_points), state,
        bracket or (floor if math.isfinite(floor) else bottom, upper), float(tolerance),
    )
    if bracket is None and not sized:
        g = config.grid_points
        lowest = float(_on_grid(floats, state.l, config.r_max / g, g, 1.0).min())
        if lowest >= upper:
            raise ValueError(
                f"r_max {config.r_max} leaves no grid point below the upper bracket "
                f"energy {upper}: the lowest V_eff on the grid is {lowest}"
            )
        # A given box can reach past the scan, where V_eff may lie lower.
        config = config._replace(bracket=(min(lowest, config.bracket[0]), upper))
    return config


def _phase(m: float, r, v, energy: float) -> float:
    """The WKB phase, the integral of sqrt(2m (E - V_eff)) dr, by the trapezoid
    rule on (r, v), the scan or a rung, read only next to the points where V_eff < E."""
    import numpy as np

    inside = (v < energy).nonzero()[0]
    if inside.size == 0:
        return 0.0
    span = slice(max(inside[0] - 1, 0), inside[-1] + 2)
    r, k = r[span], np.sqrt(np.maximum(2.0 * m * (energy - v[span]), 0.0))
    return float(0.5 * np.dot(k[1:] + k[:-1], r[1:] - r[:-1]))


def _illinois(gap, below: float, low: float, upper: float, high: float, width) -> float:
    """Illinois steps (regula falsi that halves the value kept at an end that
    stays put twice in a row) on gap, from gap(below) = low < 0 and gap(upper)
    = high: they pull upper down to the least root of gap until upper - below
    <= width(upper), or until a step falls outside (below, upper), as where
    the potential does not confine.  An upper below the root is returned as is."""
    moved = 0
    while high >= 0.0 and upper - below > width(upper):
        middle = upper - high * (upper - below) / (high - low)
        if not below < middle < upper:
            break
        value = gap(middle)
        if value < 0.0:
            below, low = middle, value
            if moved < 0:
                high *= 0.5
            moved = -1
        else:
            upper, high = middle, value
            if moved > 0:
                low *= 0.5
            moved = 1
    return upper


def _on_grid(floats, l: int, h: float, grid_points: int, scale: float):
    """scale * V_eff(r_j) at r_j = j h (j = 1..grid_points), as an array.

    numpy's overflow stays silent, as on the scan; ValueError when a value
    is not finite, so no sweep runs on an inf or a NaN.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        v = _v_eff(floats, l, np.arange(1, grid_points + 1) * h)
        v *= scale
    if not np.isfinite(v).all():
        raise ValueError("V_eff on the grid is out of the float range the solver works in")
    return v


_Rung = namedtuple("_Rung", "floats l h k tv s top")


def _grid(floats, l: int, r_max: float, grid_points: int) -> _Rung:
    """The rung of grid_points steps h = r_max / grid_points for angular
    momentum l: the potential's floats and l as given, h, the Numerov scale
    k = (h^2/6) m, tv = k V_eff(r_j), the energy-free part of the Numerov
    factor t_j = (h^2/12) 2m (V_eff(r_j) - E) = tv_j - k E at r_j = j h
    (j = 1..g), as a list, the sweep start s, the least index with tv < 1 at
    r_(s+3): near the origin t ~ l(l+1)/(12 j^2) exceeds 1 at r = 3h once
    l >= 10 and would flip the sign of U = y/(1 - t), and top, the first
    index of the largest tv from s + 2 on, the points a sweep steps through.
    s = 0 for l <= 9 on the default grids."""
    import numpy as np

    h = r_max / grid_points
    k = h * h / 6.0 * floats[0]
    tv = _on_grid(floats, l, h, grid_points, k)
    s = int(np.argmax(tv[2:] < 1.0))
    return _Rung(floats, l, h, k, tv.tolist(), s, s + 2 + int(np.argmax(tv[s + 2:])))


def _integrate(rung: _Rung, energy: float):
    """One outward Numerov sweep in summed form, on the rung's tv from its
    start s, with t = tv - k E.

    Returns (interior node count, log |u(r_max)|), the log taken of the
    boundary value times _RESCALE_LIMIT**rescales.  The recurrence
    y_(j+1) - 2 y_j + y_(j-1) = 12 t_j U_j is summed through the differences
    d (Henrici), which keeps the round-off at O(eps) instead of O(eps/h^2).
    It starts from U = r^(l+1) (1 + u1 r^2 + u2 r^4) at r_(s+1) and r_(s+2),
    which is positive: the factor is a quadratic in m E r^2 with no real root,
    at least 1/6.  The sweep carries U times the sign of its latest value, so
    u stays >= 0: where u turns negative a node is counted and u, y and d
    change sign together.  Negation is exact and rounding is symmetric in
    sign, so every magnitude is that of U itself.  The solution is rescaled
    in the forbidden region to avoid overflow, which changes neither node
    locations nor the boundary sign.
    """
    (m, omega, _, _), l, h, tv, s = rung.floats, rung.l, rung.h, rung.tv, rung.s
    c = rung.k * energy
    u1c = -m * energy / (2 * l + 3)
    u2c = (-2.0 * m * energy * u1c + m * m * omega * omega) / (8 * l + 20)
    r1 = (s + 1) * h
    try:
        p0, p1 = r1 ** (l + 1), (r1 + h) ** (l + 1)
        u0, u = (p * (1.0 + u1c * x * x + u2c * x**4) for p, x in ((p0, r1), (p1, r1 + h)))
    except OverflowError:
        p0 = u0 = math.inf
    if p0 == 0.0 or not (math.isfinite(u0) and math.isfinite(u)):
        raise ValueError("start value r^(l+1) is out of the float range the solver works in")
    t = tv[s + 1] - c
    y = (1.0 - t) * u
    d = y - (1.0 - (tv[s] - c)) * u0
    nodes = rescales = 0
    limit = _RESCALE_LIMIT
    for p in islice(tv, s + 2, None):
        d += 12.0 * t * u
        y += d
        t = p - c
        u = y / (1.0 - t)
        if u < 0.0:
            nodes += 1
            u, y, d = -u, -y, -d
        elif u > limit:
            u /= limit
            y /= limit
            d /= limit
            rescales += 1
    return nodes, math.log(u or 5e-324) + rescales * _LOG_RESCALE


def _bisect_on_nodes(rung: _Rung, n: int, tolerance: float, limits, seed):
    """Shrink the bracket `seed` around the energy where the count jumps past n.

    Sweeps the rung (its floats, l, k, tv and s) by _integrate.  A bracket
    that misses the level steps toward it: its end on the level's side, with
    its node count and boundary value, becomes the far end of a bracket 16
    times as wide, so each step sweeps one new end.  No end passes `limits`,
    the configured bracket, and a miss there raises BracketingFailure.  Then it
    bisects on the node count until nodes(lo) = n and nodes(hi) = n + 1,
    which isolates the level, and closes the bracket with secant steps on
    the boundary value u(r_max; E), whose zero is where the count jumps,
    through the two latest points: u has the sign (-1)^nodes and the log
    size that _integrate returns.  The node count, not the sign, decides
    which end moves.  A step that lands within half the tolerance of an end
    is moved half the tolerance inside it, so that a point converging on the
    level from one side closes the bracket.  A step farther outside, one
    that two equal values leave undefined, and any step after three that did
    not halve the bracket, bisects instead: far from the level |u| can change
    so little from one point to the next that secant steps only creep.
    A midpoint is lo/2 + hi/2, finite wherever both ends are.
    Returns (midpoint of the bracket at the tolerance, nodes at lo).
    """
    floor, ceiling = limits

    def sweep(energy):
        return (energy, *_integrate(rung, energy))

    lo, hi = sweep(seed[0]), sweep(seed[1])
    while lo[1] > n:
        if lo[0] <= floor:
            raise BracketingFailure(
                f"lower bracket energy {lo[0]} already has {lo[1]} nodes (want {n})"
            )
        lo, hi = sweep(max(floor, lo[0] - 16.0 * (hi[0] - lo[0]))), lo
    while hi[1] <= n:
        if hi[0] >= ceiling:
            raise BracketingFailure(
                f"upper bracket energy {hi[0]} shows only {hi[1]} nodes; "
                f"no level with {n} nodes inside the bracket"
            )
        lo, hi = hi, sweep(min(ceiling, hi[0] + 16.0 * (hi[0] - lo[0])))
    prev, last = lo, hi
    half = 0.5 * tolerance
    steps = 0
    widths = [math.inf] * 3  # the bracket widths of the last three steps
    while hi[0] - lo[0] > tolerance:
        if steps >= _MAX_STEPS:
            raise NotConverged(
                f"bracket width {hi[0] - lo[0]:.3e} after {steps} steps "
                f"(tolerance {tolerance:.3e})"
            )
        energy = 0.5 * lo[0] + 0.5 * hi[0]
        if lo[1] == n and hi[1] == n + 1 and hi[0] - lo[0] <= 0.5 * widths[0]:
            # u(prev) / u(last)
            ratio = math.exp(max(-700.0, min(700.0, prev[2] - last[2])))
            if (prev[1] - last[1]) % 2:
                ratio = -ratio
            if ratio != 1.0:
                step = last[0] - (last[0] - prev[0]) / (1.0 - ratio)
                if lo[0] - half < step < hi[0] + half:
                    energy = min(max(step, lo[0] + half), hi[0] - half)
        widths = [*widths[1:], hi[0] - lo[0]]
        prev, last = last, sweep(energy)
        if last[1] > n:
            hi = last
        else:
            lo = last
        steps += 1
    return 0.5 * lo[0] + 0.5 * hi[0], lo[1]


def _wkb_level(rung: _Rung, n: int, upper: float) -> float:
    """The least energy, up to `upper`, at which the Langer-corrected WKB
    phase on the rung reaches (n + 1/2) pi: _phase on r_j = j h with V_eff =
    tv / k and 1/(8 m r^2) added, which raises l(l+1) to (l + 1/2)^2
    (Langer, Phys. Rev. 51 (1937) 669), by _illinois from the least such
    V_eff, where the phase is 0, to within 1e-6 max(omega, |E|)."""
    import numpy as np

    (m, omega, _, _), tv = rung.floats, rung.tv
    r = np.arange(1, len(tv) + 1) * rung.h
    v = np.array(tv, float) / rung.k + 1.0 / (8.0 * m * r * r)
    target = (n + 0.5) * math.pi
    gap = lambda e: _phase(m, r, v, e) - target
    return _illinois(gap, float(v.min()), -target, upper, gap(upper),
                     lambda e: 1e-6 * max(omega, abs(e)))


def _richardson(coarse: float, fine: float) -> float:
    """The level with the h^4 error of the energies on grids 2h and h removed."""
    return fine + (fine - coarse) / 15.0


def solve_radial(potential: PotentialSpec, config: OracleConfig) -> OracleResult:
    """Eigenvalue with exactly n interior nodes and r^(l+1) origin behavior.

    Rungs of g/64, g/32, ..., g = grid_points points, from the coarsest with
    at least _FIRST_RUNG points, solve in turn at the tolerance, raised to 4
    ulp of the larger bracket end when below it.  Each is seeded: the first
    at its own WKB level (_wkb_level) +- _WKB_WIDTH max(omega, |E|), the
    second from the first's energy E up to E + 2 _SEED_WIDTH max(omega, |E|)
    (at least 2 tolerances), since a finer grid raises a Numerov level, and
    each later one at the h^4 prediction c - (b - c) / 16 from the last two
    energies +- |b - c| / 32 plus 2 tolerances.  Every seed is clipped to the
    configured bracket, within which _bisect_on_nodes steps a seed that
    misses toward the level.  Three successive energies a, b, c obey the h^4
    law when they lie within 2 tolerances or a - b = 16 (b - c) to within
    |b - c| plus 17 tolerances (each energy lies anywhere within half the
    tolerance of its grid's level) and the newest rung counts n nodes.  Their level is R(b, c) (_richardson), with the
    estimate |R(b, c) - R(a, b)| / _H6_DIVISOR (R(b, c)'s own h^6 error with
    a margin of 4), at least 2 tolerances; the solve returns it once the
    estimate is at most 4 tolerances, or on the g rung whatever it is.  With
    no such triple on the g rung it returns the g energy, estimated by its
    distance to the g/2 energy, as not converged.  A rung below g/2 is
    skipped without a sweep where t = (h^2/12) 2m (V_eff - E) reaches 1 past
    the sweep start at the lowest energy it would search first; a skip or an
    error there drops the energies so far, and the next rung is seeded from
    its own WKB level.  Errors on g/2 and g are the solve's own; where t
    reaches 1 there too, an OracleError names the rung and the grid_points
    that would keep t below 1.
    """
    floats = _floats(potential)
    g, (n, l), (lo, hi) = config.grid_points, config.target_state, config.bracket
    tol = max(config.tolerance, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    energies = []
    for size in [g >> k for k in range(6, -1, -1) if g >> k >= _FIRST_RUNG]:
        try:
            rung = _grid(floats, l, config.r_max, size)
            if len(energies) > 1:
                b, c = energies[-2:]
                energy, width = c - (b - c) / 16.0, abs(b - c) / 32.0 + 2.0 * tol
            elif energies:
                width = max(_SEED_WIDTH * max(floats[1], abs(energies[0])), tol)
                energy = energies[0] + width
            else:
                energy = _wkb_level(rung, n, hi)
                width = _WKB_WIDTH * max(floats[1], abs(energy))
            energy = min(max(energy, lo), hi)
            seed = max(lo, energy - width), min(hi, energy + width)
            # Where t = tv - (h^2/6) m E reaches 1, U = y / (1 - t) flips sign.
            peak = rung.tv[rung.top] - rung.k * seed[0]
            if size < g // 2 and peak >= 1.0:
                energies = []
                continue
            energy, node_count = _bisect_on_nodes(rung, n, tol, config.bracket, seed)
        except (OracleError, ValueError) as exc:
            if size < g // 2:
                energies = []
                continue
            if isinstance(exc, OracleError) and peak >= 1.0:
                # At the peak's index j, t = (h^2/6) m (V - E) + l(l+1)/(12 j^2)
                # falls as h^2 in its first part only.
                j = rung.top + 1
                fixed = l * (l + 1) / (12.0 * j * j)
                fixed = fixed if fixed < 1.0 else 0.0
                needed = math.floor(size * math.sqrt((peak - fixed) / (1.0 - fixed))) + 1
                raise OracleError(
                    f"the {size}-point rung cannot count nodes: the Numerov factor t "
                    f"peaks at {peak:.3g} past the sweep start; about "
                    f"{needed * (g // size)} grid_points would keep it below 1"
                ) from exc
            raise
        energies.append(energy)
        if len(energies) < 3 or node_count != n:
            continue
        a, b, c = energies[-3:]
        # The h^4 law, up to |b - c| (110 default solves, 11 potentials with the
        # negative well and v_1 = 1000, gave ratios of 15.74-16.22) and the
        # rungs' own errors: |d_a| + 17 |d_b| + 16 |d_c| <= 17 tol.
        if (max(a, b, c) - min(a, b, c) <= 2.0 * tol
                or abs(a - b - 16.0 * (b - c)) <= abs(b - c) + 17.0 * tol):
            level = _richardson(b, c)
            estimate = max(abs(level - _richardson(a, b)) / _H6_DIVISOR, 2.0 * tol)
            if estimate <= 4.0 * tol or size == g:
                return OracleResult(level, node_count, estimate, converged=True)
    estimate = max(abs(energy - energies[-2]), 2.0 * tol)
    return OracleResult(energy, node_count, estimate, converged=False)


def compare_with_series(
    oracle_result: OracleResult, report, pade_value: float | None = None
) -> ComparisonRecord:
    """Deviation of each partial sum of `report`, a resummation.SummationReport,
    and of `pade_value`, from the solver energy.

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
