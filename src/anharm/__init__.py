"""Exact-rational perturbation series for spherical anharmonic oscillator spectra.

The package computes arbitrary-order energy corrections for the bound states
of V(r) = m w^2 r^2 / 2 + sum_i v_i r^(2i+2) from exact recursion relations on
the wavefunction log-derivative, reconstructs harmonic-oscillator
wavefunction factors, resums the (asymptotic) series with Pade approximants,
and cross-checks everything against an independent numeric radial solver.

The names below are the library entry points and one base error per CLI exit
code; everything else is reached through its module (`anharm.engine`,
`anharm.wavefunction`, ...).
"""

from .engine import EngineError, compute_series
from .model import (
    EnergySeries,
    PotentialSpec,
    ProblemSpecError,
    QuantumState,
    make_potential,
    make_state,
)
from .oracle import OracleError, compare_with_series, default_config, solve_radial
from .resummation import divergence_diagnostics, pade, partial_sums

__version__ = "0.1.0"

__all__ = [
    "EnergySeries",
    "EngineError",
    "OracleError",
    "PotentialSpec",
    "ProblemSpecError",
    "QuantumState",
    "compare_with_series",
    "compute_series",
    "default_config",
    "divergence_diagnostics",
    "make_potential",
    "make_state",
    "pade",
    "partial_sums",
    "solve_radial",
]
