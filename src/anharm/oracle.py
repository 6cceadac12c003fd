"""Independent numeric eigenvalue solver for the radial equation.

Solves  -U''/(2m) + [l(l+1)/(2m r^2) + V(r)] U = E U  (hbar = 1) on a uniform
grid by outward Numerov integration with node counting and energy bisection.
The interior node count of the outward solution is a monotone step function
of E that jumps by one exactly at each box eigenvalue, so bisecting on
"count > n" converges to the level with n radial nodes without ever chasing a
neighbor state.  Everything here is floating point; it exists to validate the
exact series from the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PotentialSpec, QuantumState
from .resummation import SummationReport

_MAX_BISECTIONS = 200
_RESCALE_LIMIT = 1e250


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
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")
        if self.grid_points < 1000:
            raise ValueError("need at least 1000 grid points")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
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

    oracle_energy: float
    deviations: tuple[float, ...]
    relative_deviations: tuple[float, ...]
    pade_deviation: float | None
    pade_relative_deviation: float | None
    best_order: int


def _potential_floats(potential: PotentialSpec):
    m = float(potential.mass)
    omega = float(potential.omega)
    vs = [float(v) for v in potential.anharmonic]
    return m, omega, vs


def _potential_values(potential: PotentialSpec, r: np.ndarray) -> np.ndarray:
    m, omega, vs = _potential_floats(potential)
    v = 0.5 * m * omega * omega * r * r
    for i, vi in enumerate(vs, 1):
        v = v + vi * r ** (2 * i + 2)
    return v


def first_order_energy(potential: PotentialSpec, state: QuantumState) -> float:
    """Oscillator estimate (2n + l + 3/2) omega used for box and bracket sizing."""
    return (2 * state.n + state.l + 1.5) * float(potential.omega)


def default_config(
    potential: PotentialSpec,
    state: QuantumState,
    grid_points: int = 16000,
    tolerance: float = 1e-12,
    r_max: float | None = None,
    bracket: tuple[float, float] | None = None,
) -> OracleConfig:
    """Sized so boundary truncation is negligible against the tolerance.

    The box radius is pushed out until V(r_max) clears the oscillator energy
    estimate by 25 quanta, which suppresses the tail leakage far below any
    achievable grid accuracy.  Raises BracketingFailure for potentials that
    never reach that level (non-confining float coefficients).
    """
    e_top = first_order_energy(potential, state)
    if r_max is None:
        target = e_top + 25.0 * float(potential.omega)
        r = 1.0
        while float(_potential_values(potential, np.array([r]))[0]) < target:
            r *= 1.0625
            if r > 1e6:
                raise BracketingFailure(
                    "potential never reaches the confinement level; "
                    "refusing a non-confining potential"
                )
        r_max = r
    if bracket is None:
        bracket = (0.0, 3.0 * e_top + 10.0)
    return OracleConfig(
        r_max=float(r_max),
        grid_points=int(grid_points),
        target_state=state,
        bracket=bracket,
        tolerance=float(tolerance),
    )


def _numerov_setup(potential, state, energy, r_max, grid_points):
    """Grid r, Numerov factors t (as a list) and the first two values of U.

    The first two values come from the small-r power series
    r^(l+1) (1 + u1 r^2 + u2 r^4), accurate beyond the scheme order.
    """
    m, omega, _ = _potential_floats(potential)
    l = state.l
    g = int(grid_points)
    h = r_max / g
    r = np.arange(1, g + 1) * h
    base = l * (l + 1) / (r * r) + 2.0 * m * _potential_values(potential, r)
    t = (h * h / 12.0) * (base - 2.0 * m * energy)
    u1c = -m * energy / (2 * l + 3)
    u2c = (-2.0 * m * energy * u1c + m * m * omega * omega) / (8 * l + 20)
    # Python floats, so that the sweep loops run on floats, not numpy scalars.
    u0, u1 = (float(x ** (l + 1) * (1.0 + u1c * x * x + u2c * x**4)) for x in r[:2])
    return r, t.tolist(), u0, u1


def _integrate(potential, state, energy, r_max, grid_points):
    """Outward Numerov sweep; returns (interior node count, boundary value).

    The solution is rescaled in the forbidden region to avoid overflow (which
    changes neither node locations nor the boundary sign).
    """
    _, tl, u_prev, u_cur = _numerov_setup(potential, state, energy, r_max, grid_points)
    nodes = 0
    sign = math.copysign(1.0, u_cur)
    for j in range(1, len(tl) - 1):
        u_next = ((2.0 + 10.0 * tl[j]) * u_cur - (1.0 - tl[j - 1]) * u_prev) / (
            1.0 - tl[j + 1]
        )
        u_prev, u_cur = u_cur, u_next
        s = math.copysign(1.0, u_cur)
        if s != sign:
            nodes += 1
            sign = s
        if abs(u_cur) > _RESCALE_LIMIT:
            u_prev /= _RESCALE_LIMIT
            u_cur /= _RESCALE_LIMIT
    return nodes, u_cur


def _bisect_on_nodes(potential, state, bracket, r_max, grid_points, tolerance):
    """Shrink [lo, hi] around the energy where the node count jumps past n."""
    n = state.n
    lo, hi = bracket
    nodes_lo, _ = _integrate(potential, state, lo, r_max, grid_points)
    nodes_hi, _ = _integrate(potential, state, hi, r_max, grid_points)
    if nodes_lo > n:
        raise BracketingFailure(
            f"lower bracket energy {lo} already has {nodes_lo} nodes (want {n})"
        )
    if nodes_hi <= n:
        raise BracketingFailure(
            f"upper bracket energy {hi} shows only {nodes_hi} nodes; "
            f"no level with {n} nodes inside the bracket"
        )
    iterations = 0
    while hi - lo > tolerance:
        if iterations >= _MAX_BISECTIONS:
            raise NotConverged(
                f"bracket width {hi - lo:.3e} after {iterations} bisections "
                f"(tolerance {tolerance:.3e})"
            )
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise NotConverged(
                f"bisection stalled at machine resolution, width {hi - lo:.3e} "
                f"> tolerance {tolerance:.3e}"
            )
        count, _ = _integrate(potential, state, mid, r_max, grid_points)
        if count > n:
            hi = mid
        else:
            lo = mid
        iterations += 1
    return lo, hi


def solve_radial(potential: PotentialSpec, config: OracleConfig) -> OracleResult:
    """Eigenvalue with exactly n interior nodes and r^(l+1) origin behavior.

    Solves on the configured grid and once more on a half-resolution grid;
    the difference is a conservative error estimate for the returned
    (fine-grid) energy.
    """
    state = config.target_state
    lo, hi = _bisect_on_nodes(
        potential, state, config.bracket, config.r_max,
        config.grid_points, config.tolerance,
    )
    energy = 0.5 * (lo + hi)
    coarse_lo, coarse_hi = _bisect_on_nodes(
        potential, state, config.bracket, config.r_max,
        max(1000, config.grid_points // 2), config.tolerance,
    )
    coarse = 0.5 * (coarse_lo + coarse_hi)
    residual = max(abs(energy - coarse), 2.0 * config.tolerance)
    node_count, _ = _integrate(
        potential, state, lo, config.r_max, config.grid_points
    )
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
    eigenfunction behind a converged solve_radial energy.
    """
    r, tl, u0, u1 = _numerov_setup(potential, state, energy, r_max, grid_points)
    u = [u0, u1] + [0.0] * (len(tl) - 2)
    for j in range(1, len(tl) - 1):
        u[j + 1] = ((2.0 + 10.0 * tl[j]) * u[j] - (1.0 - tl[j - 1]) * u[j - 1]) / (
            1.0 - tl[j + 1]
        )
    out = np.array(u)
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
        oracle_energy=energy,
        deviations=deviations,
        relative_deviations=relative,
        pade_deviation=pade_dev,
        pade_relative_deviation=None if pade_dev is None else pade_dev / scale,
        best_order=best,
    )
