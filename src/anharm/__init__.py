"""Exact-rational perturbation series for spherical anharmonic oscillator spectra.

The package computes arbitrary-order energy corrections for the bound states
of V(r) = m w^2 r^2 / 2 + sum_i v_i r^(2i+2) from exact recursion relations on
the wavefunction log-derivative, reconstructs harmonic-oscillator
wavefunction factors, resums the (asymptotic) series with Pade approximants,
and cross-checks everything against an independent numeric radial solver.

The names below are the library entry points and one base error per CLI exit
code; everything else is reached through its module (`anharm.engine`,
`anharm.wavefunction`, ...).  The names in `_LAZY`, those of `oracle` and
`resummation`, load their module on first access (PEP 562 `__getattr__`) and
are the module's own objects: the solver is the largest module, and
`anharm compute` and `anharm check-harmonic` never run it, nor does
`check-harmonic` run the resummation.
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

__version__ = "0.1.0"

_LAZY = {
    "OracleError": "oracle",
    "compare_with_series": "oracle",
    "default_config": "oracle",
    "solve_radial": "oracle",
    "divergence_diagnostics": "resummation",
    "pade": "resummation",
    "partial_sums": "resummation",
}

__all__ = [
    "EnergySeries",
    "EngineError",
    "PotentialSpec",
    "ProblemSpecError",
    "QuantumState",
    "compute_series",
    "make_potential",
    "make_state",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
