"""Command-line front end.

Subcommands: `compute` (exact correction series + partial sums),
`check-harmonic` (exactness sweep over harmonic states), `validate`
(series vs independent radial solver).  `compute` and `validate` share one
runner, `--sweep` included.  `--pade-num`/`--pade-den` add the Pade value,
computed exact and rounded once.  Exact rationals are serialized as "p/q"
strings, floats as plain JSON numbers with 17 significant digits, so
identical configs produce byte-identical output.

Exit codes: 0 success, 1 check failure, 2 config error (invalid solver options
included), 3 engine or resummation error (an exactly singular Pade system
included), 4 solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction

from . import engine, oracle, resummation, wavefunction
from .model import (
    ProblemSpecError,
    QuantumState,
    format_rational,
    make_potential,
    make_state,
    parse_rational,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ENGINE = 3
EXIT_ORACLE = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_float(x: float) -> str:
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(key)}: {_dumps(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_dumps(value, indent + 1)}" for value in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".anharm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config assembly


# Each config section's keys, as _build_job reads them.
_SECTION_KEYS = {
    "potential": ("mass", "omega", "v"),
    "state": ("n", "l"),
    "pade": ("num_degree", "den_degree"),
    "oracle": ("grid_points", "tolerance", "r_max", "bracket"),
}

# Config values that _build_job's int() or str() would take but the flag refuses.
_INTEGER = (lambda value: not isinstance(value, (bool, float)), "an integer")
# float() takes a bool; a bracket is checked entry by entry.
_NUMBER = (
    lambda value: bool not in map(type, value if isinstance(value, list) else [value]),
    "a number",
)
_VALUE_RULES = {
    "order": _INTEGER, "state.n": _INTEGER, "state.l": _INTEGER,
    "pade.num_degree": _INTEGER, "pade.den_degree": _INTEGER, "oracle.grid_points": _INTEGER,
    "oracle.tolerance": _NUMBER, "oracle.r_max": _NUMBER, "oracle.bracket": _NUMBER,
    "potential.v": (lambda value: isinstance(value, list), "a list"),
    "format": (lambda value: value in ("json", "csv"), "'json' or 'csv'"),
    "output": (lambda value: isinstance(value, str), "a path"),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = [key for key in doc if key not in ("order", "format", "output", *_SECTION_KEYS)]
    for section, keys in _SECTION_KEYS.items():
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
        unknown += [f"{section}.{key}" for key in doc.get(section, {}) if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    values = {**doc, **{f"{s}.{k}": v for s in _SECTION_KEYS for k, v in doc.get(s, {}).items()}}
    for key, (valid, kind) in _VALUE_RULES.items():
        if values.get(key) is not None and not valid(values[key]):
            raise ConfigError(f"config key {key!r} must be {kind}, got {values[key]!r}")
    return doc


def _pick(cli_value, file_value, default):
    if cli_value is not None:
        return cli_value
    if file_value is not None:
        return file_value
    return default


@dataclasses.dataclass
class Job:
    """One problem and its output.  `solver` holds only the solver options
    the user gave, as keyword arguments of `oracle.default_config`."""

    potential: object
    state: QuantumState
    order: int
    fmt: str
    output: str | None
    pade_degrees: tuple[int, int] | None
    solver: dict


def _parse_state_pair(text: str) -> tuple[int, int]:
    try:
        n_str, l_str = text.split(",")
        return int(n_str), int(l_str)
    except ValueError as exc:
        raise ConfigError(f"state must look like 'n,l', got {text!r}") from exc


def _build_job(args) -> tuple[Job, list[tuple[int, int]]]:
    file_doc = _load_config_file(args.config) if args.config else {}
    pot_doc, state_doc, pade_doc, oracle_doc = (file_doc.get(s, {}) for s in _SECTION_KEYS)

    mass = _pick(args.mass, pot_doc.get("mass"), "1")
    omega = _pick(args.omega, pot_doc.get("omega"), "1")
    v_list = _pick(args.v, pot_doc.get("v"), [])
    pade_num = _pick(args.pade_num, pade_doc.get("num_degree"), None)
    pade_den = _pick(args.pade_den, pade_doc.get("den_degree"), None)
    try:
        potential = make_potential(
            parse_rational(str(mass)),
            parse_rational(str(omega)),
            [parse_rational(str(v)) for v in v_list],
        )
        n = int(_pick(args.n, state_doc.get("n"), 0))
        l = int(_pick(args.l, state_doc.get("l"), 0))
        state = make_state(n, l)
        order = int(_pick(args.order, file_doc.get("order"), 8))
        if (pade_num is None) != (pade_den is None):
            raise ConfigError("--pade-num and --pade-den must be given together")
        degrees = None if pade_num is None else (int(pade_num), int(pade_den))
    except (ConfigError, ProblemSpecError):
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    options = _SECTION_KEYS["oracle"]
    picked = {key: _pick(getattr(args, key), oracle_doc.get(key), None) for key in options}
    job = Job(
        potential=potential,
        state=state,
        order=order,
        fmt=_pick(args.format, file_doc.get("format"), "json"),
        output=_pick(args.output, file_doc.get("output"), None),
        pade_degrees=degrees,
        solver={key: value for key, value in picked.items() if value is not None},
    )
    sweep = [_parse_state_pair(s) for s in args.sweep] if args.sweep else []
    return job, sweep


# ---------------------------------------------------------------------------
# subcommands


def _run(job: Job, validate: bool) -> str:
    """One problem as a JSON document or as CSV with one row per order.

    `validate` adds the radial solver's energy and the deviation of each
    partial sum (and of the Pade value) from it.
    """
    _, series = engine.compute_series(job.potential, job.state, job.order)
    pade_value = None if job.pade_degrees is None else resummation.pade(series, *job.pade_degrees)
    report = dataclasses.replace(resummation.divergence_diagnostics(series), pade_value=pade_value)
    doc = {
        "potential": {
            "mass": format_rational(job.potential.mass),
            "omega": format_rational(job.potential.omega),
            "v": [format_rational(v) for v in job.potential.anharmonic],
        },
        "state": {"n": job.state.n, "l": job.state.l},
        "order": series.order,
        "corrections": [format_rational(c) for c in series],
        "partial_sums": report.partial_sums,
    }
    if report.pade_value is not None:
        num, den = job.pade_degrees
        doc["pade"] = {"num_degree": num, "den_degree": den, "value": report.pade_value}
    header = ["order", "correction", "partial_sum"]
    columns = [
        [str(k) for k in range(1, series.order + 1)],
        doc["corrections"],
        [_format_float(s) for s in report.partial_sums],
    ]
    if validate:
        try:
            config = oracle.default_config(job.potential, job.state, **job.solver)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        result = oracle.solve_radial(job.potential, config)
        record = oracle.compare_with_series(result, report)
        doc["oracle"] = {
            "energy": result.energy,
            "residual": result.residual_estimate,
            "converged": result.converged,
        }
        doc["comparison"] = {
            "deviations": record.deviations,
            "relative_deviations": record.relative_deviations,
            "pade_deviation": record.pade_deviation,
            "pade_relative_deviation": record.pade_relative_deviation,
            "best_order": record.best_order,
        }
        pade_text = "" if report.pade_value is None else _format_float(report.pade_value)
        header += ["abs_deviation", "rel_deviation", "oracle_energy", "pade_value", "best_order"]
        columns += [
            [_format_float(d) for d in record.deviations],
            [_format_float(d) for d in record.relative_deviations],
            [_format_float(result.energy)] * series.order,
            [pade_text] * series.order,
            [str(record.best_order)] * series.order,
        ]
    if job.fmt == "csv":
        return "\n".join(",".join(row) for row in [header, *zip(*columns)]) + "\n"
    return _dumps(doc) + "\n"


def _check_state(n: int, l: int, order: int) -> str | None:
    """One harmonic state; returns a failure locator or None."""
    state = make_state(n, l)
    table, series = engine.compute_series(make_potential(1, 1), state, order)
    exact = [Fraction(2 * n + l) + Fraction(3, 2)] + [0] * (order - 1)
    for k, (e_k, want) in enumerate(zip(series, exact), 1):
        if e_k != want:
            return f"(n={n}, l={l}, k={k}): E_{k} = {e_k} != {want}"
    d = wavefunction.harmonic_d_coefficients(state, max(order, n + 1, 2))
    for k in range(1, order + 1):
        if table.entry(k, 0) != d[k]:
            return f"(n={n}, l={l}, k={k}): C[k][0] = {table.entry(k, 0)} != d_k = {d[k]}"
        for i in range(1, table.imax + 1):
            if table.entry(k, i) != 0:
                return f"(n={n}, l={l}, k={k}): C[k][{i}] != 0"
    poly = wavefunction.node_polynomial(state, d)
    for m in range(1, n + 1):
        expected = Fraction(m) * (Fraction(m) + l + Fraction(1, 2)) / (m - n - 1)
        if poly[m - 1] / poly[m] != expected:
            return f"(n={n}, l={l}, m={m}): polynomial ratio != {expected}"
    return None


def _run_check_harmonic(max_n: int, max_l: int, order: int) -> int:
    if max_n < 0 or max_l < 0:
        raise ConfigError("bounds must be >= 0")
    if order < 2:
        raise ConfigError("order must be >= 2")
    for n in range(max_n + 1):
        for l in range(max_l + 1):
            failure = _check_state(n, l, order)
            if failure is not None:
                print(f"FAIL {failure}")
                return EXIT_CHECK_FAILED
    print(
        f"checked {(max_n + 1) * (max_l + 1)} harmonic states (n <= {max_n}, l <= {max_l}) "
        f"through order {order}: all exact checks passed"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mass", help="particle mass, rational (default 1)")
    parser.add_argument("--omega", help="oscillator frequency, rational (default 1)")
    parser.add_argument(
        "--v", nargs="*",
        help="anharmonic coefficients v_1 v_2 ... of r^4, r^6, ... (rationals)",
    )
    parser.add_argument("--n", type=int, help="radial quantum number (default 0)")
    parser.add_argument("--l", type=int, help="orbital quantum number (default 0)")
    parser.add_argument("--order", type=int, help="expansion order K (default 8)")
    parser.add_argument("--format", choices=["json", "csv"], help="output format")
    parser.add_argument("--output", help="output path (directory with --sweep)")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument(
        "--sweep", nargs="+", metavar="N,L",
        help="run several states, one after another, e.g. --sweep 0,0 1,0",
    )
    parser.add_argument("--pade-num", type=int, help="Pade numerator degree")
    parser.add_argument("--pade-den", type=int, help="Pade denominator degree")
    parser.add_argument("--grid-points", type=int, help="solver grid points")
    parser.add_argument("--r-max", type=float, help="solver box radius")
    parser.add_argument("--tolerance", type=float, help="solver energy tolerance")
    parser.add_argument(
        "--bracket", nargs=2, type=float, metavar=("LO", "HI"),
        help="solver energy search interval",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a negative rational such as -1/50 as a value, not as an option.

    argparse already does so for "-2" and "-0.5"; this widens its
    negative-number pattern to "p/q" so that a negative coupling can follow
    another value of --v.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="anharm",
        description="Exact perturbation series for spherical anharmonic oscillators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="exact corrections and partial sums")
    _add_problem_flags(compute)

    validate = sub.add_parser("validate", help="series vs numeric radial solver")
    _add_problem_flags(validate)

    check = sub.add_parser("check-harmonic", help="harmonic exactness sweep")
    check.add_argument("--max-n", type=int, default=10)
    check.add_argument("--max-l", type=int, default=10)
    check.add_argument("--order", type=int, default=15)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check-harmonic":
            return _run_check_harmonic(args.max_n, args.max_l, args.order)
        job, sweep = _build_job(args)
        states = [make_state(n, l) for n, l in sweep] or [job.state]
        texts = [_run(dataclasses.replace(job, state=s), args.command == "validate") for s in states]
        if job.output is None:
            sys.stdout.write("".join(texts))
        elif not sweep:
            _write_atomic(job.output, texts[0])
        else:
            os.makedirs(job.output, exist_ok=True)
            for state, text in zip(states, texts):
                name = f"state_n{state.n}_l{state.l}.{job.fmt}"
                _write_atomic(os.path.join(job.output, name), text)
        return EXIT_OK
    except (ConfigError, ProblemSpecError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (engine.EngineError, resummation.ResummationError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except oracle.OracleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
