import importlib
import inspect
import re
import typing
from pathlib import Path

import anharm
from anharm.cli import _OPTIONS
from anharm.engine import compute_series
from anharm.model import make_potential, make_state

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # The blocks build on one another, as a reader would run them in order.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_public_names_resolve():
    for name in anharm.__all__:
        assert getattr(anharm, name) is not None, name


def test_annotations_resolve():
    # typing.get_type_hints evaluates each annotation in its module, so a name
    # the module never imports fails here rather than in a user's tooling.
    for name in ["model", "engine", "resummation", "wavefunction", "oracle"]:
        module = importlib.import_module(f"anharm.{name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                typing.get_type_hints(value)
                for member in vars(value).values():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        typing.get_type_hints(member)
            elif inspect.isfunction(value):
                typing.get_type_hints(value)


def test_readme_config_table_matches_the_cli():
    rows = re.findall(r"^\| `([\w.]+)` \| `(--[\w-]+)` \|$", README.read_text(), re.MULTILINE)
    assert rows == [(key, flag) for key, flag, *_ in _OPTIONS]


def test_public_surface():
    # A new public name is a deliberate edit here: the library keeps only what
    # a command, the benchmark or a paper identity uses.
    modules = {
        "model": ["EnergySeries", "NegativeQuantumNumber", "NonPositiveFrequency",
                  "NonPositiveMass", "PotentialSpec", "ProblemSpecError", "QuantumState",
                  "format_rational", "make_potential", "make_state", "parse_rational"],
        "engine": ["CoefficientTable", "DEFAULT_MAX_ORDER", "EngineError", "OrderTooLarge",
                   "compute_series"],
        "resummation": ["ResummationError", "SingularPadeSystem", "SummationReport",
                        "divergence_diagnostics", "pade", "partial_sums"],
        "wavefunction": ["harmonic_d_coefficients", "node_polynomial"],
        "oracle": ["BracketingFailure", "ComparisonRecord", "NotConverged", "OracleConfig",
                   "OracleError", "OracleResult", "compare_with_series", "default_config",
                   "solve_radial"],
    }
    for name, expected in modules.items():
        module = importlib.import_module(f"anharm.{name}")
        defined = [
            key for key, value in vars(module).items()
            if not key.startswith("_") and not inspect.ismodule(value)
            and getattr(value, "__module__", module.__name__) == module.__name__
        ]
        assert sorted(defined) == expected, name

    def public(obj, base):
        return sorted({key for key in dir(obj) if not key.startswith("_")} - set(dir(base)))

    potential, state = make_potential(1, 1, ["1/100"]), make_state(0, 0)
    table, series = compute_series(potential, state, 2)
    assert public(potential, tuple) == ["anharmonic", "is_harmonic", "mass", "omega"]
    assert public(state, tuple) == ["centrifugal", "l", "n", "principal"]
    assert public(series, tuple) == ["corrections", "order"]
    assert public(table, object) == ["order", "potential", "row", "state"]
