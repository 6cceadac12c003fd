"""Command-line front end.

Subcommands: `compute` (exact correction series + partial sums),
`check-harmonic` (exactness sweep over harmonic states), `validate`
(series vs independent radial solver).  `compute` and `validate` share one
runner, `--sweep` included, and one option table, `_OPTIONS`, which holds
each problem option's config key, flag, default and help; the solver rows
are `validate`'s alone.  `--pade-num`/`--pade-den` add the Pade value,
computed exact and rounded once.  Exact rationals are serialized as "p/q"
strings, floats as plain JSON numbers with 17 significant digits, so
identical configs produce byte-identical output.

Each subcommand imports only the modules it runs, so a fresh process
compiles no more than it needs: `compute` loads `model`, `engine` and
`resummation`; `check-harmonic` loads `model`, `engine` and `wavefunction`;
`validate` loads what `compute` does plus the solver, `oracle`, which
imports numpy when it solves.  `tempfile` is imported only to write an
`--output` file.

Exit codes: 0 success, 1 check failure, 2 config error (invalid solver options,
a non-finite --bracket end, an order or Pade degrees the library refuses and
an unwritable --output included), 3 engine or resummation error (an order
beyond the cap and an exactly singular Pade system included), 4 solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import engine
from .model import ProblemSpecError, format_rational, make_potential, make_state

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
    if isinstance(obj, dict) and obj:
        items = ",\n".join(
            f'{pad}  {json.dumps(key)}: {_dumps(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = ",\n".join(f"{pad}  {_dumps(value, indent + 1)}" for value in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, float):
        return _format_float(obj)
    return json.dumps(obj)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    return _format_float(x) if isinstance(x, float) else str(x)


def _write_atomic(path: str, text: str) -> None:
    import tempfile

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


# One row per problem option, in --help order: its config key ("section.name"
# inside a section), its flag, what a refused config value must be, and the
# flag's argparse keywords, its default included.  The solver rows come last;
# `compute` takes every row before them.
_OPTIONS = (
    ("potential.mass", "--mass", "a rational",
     dict(default="1", help="particle mass, rational (default %(default)s)")),
    ("potential.omega", "--omega", "a rational",
     dict(default="1", help="oscillator frequency, rational (default %(default)s)")),
    ("potential.v", "--v", "a list of rationals", dict(
        nargs="*", default=[],
        help="anharmonic coefficients v_1 v_2 ... of r^4, r^6, ... (rationals)",
    )),
    ("state.n", "--n", "an integer",
     dict(type=int, default=0, help="radial quantum number (default %(default)s)")),
    ("state.l", "--l", "an integer",
     dict(type=int, default=0, help="orbital quantum number (default %(default)s)")),
    ("order", "--order", "an integer",
     dict(type=int, default=8, help="expansion order K (default %(default)s)")),
    ("format", "--format", "'json' or 'csv'",
     dict(choices=["json", "csv"], default="json", help="output format")),
    ("output", "--output", "a path", dict(help="output path (directory with --sweep)")),
    ("pade.num_degree", "--pade-num", "an integer", dict(type=int, help="Pade numerator degree")),
    ("pade.den_degree", "--pade-den", "an integer", dict(type=int, help="Pade denominator degree")),
    ("oracle.grid_points", "--grid-points", "an integer", dict(type=int, help="solver grid points")),
    ("oracle.r_max", "--r-max", "a number", dict(type=float, help="solver box radius")),
    ("oracle.tolerance", "--tolerance", "a number",
     dict(type=float, help="solver energy tolerance")),
    ("oracle.bracket", "--bracket", "a number", dict(
        nargs=2, type=float, metavar=("LO", "HI"), help="solver energy search interval",
    )),
)
_SOLVER_OPTIONS = [key.split(".")[1] for key, *_ in _OPTIONS if key.startswith("oracle.")]
_COMMAND_OPTIONS = {"compute": _OPTIONS[: -len(_SOLVER_OPTIONS)], "validate": _OPTIONS}


def _read_as_flag(value, row: tuple):
    """A config value as the row's flag reads its text: each item through the
    flag's type, in the flag's count and within its choices; ConfigError if
    the flag would refuse it.  A JSON number stands for its text where the
    flag converts it and for the potential's rationals, which make_potential
    parses; a JSON bool never does."""
    key, _, kind, kwargs = row
    nargs = kwargs.get("nargs")
    items = value if nargs else [value]
    numbers = (int, float) if "type" in kwargs or key.startswith("potential.") else ()
    try:
        if not isinstance(items, list) or isinstance(nargs, int) and len(items) != nargs:
            raise ValueError
        if any(isinstance(x, bool) or not isinstance(x, (str, *numbers)) for x in items):
            raise ValueError
        read = [kwargs.get("type", str)(str(item)) for item in items]
        if any(x not in kwargs.get("choices", read) for x in read):
            raise ValueError
    except ValueError:
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}") from None
    return read if nargs else read[0]


def _load_config_file(path: str, command: str) -> dict:
    """The file's option values by config key, read as their flags read them;
    a key the command has no flag for is unknown."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    rows = {tuple(row[0].split(".")): row for row in _COMMAND_OPTIONS[command]}
    sections = {key.split(".")[0] for key, *_ in _OPTIONS if "." in key}
    pairs = []
    for name, entry in doc.items():
        if name not in sections:
            pairs.append(((name,), entry))
        elif isinstance(entry, dict):
            pairs += [((name, key), value) for key, value in entry.items()]
        else:
            raise ConfigError(f"config section {name!r} must be a JSON object")
    unknown = [".".join(path) for path, _ in pairs if path not in rows]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    # JSON null leaves the option at its flag's default.
    return {rows[p][0]: _read_as_flag(v, rows[p]) for p, v in pairs if v is not None}


def _parse_state_pair(text: str) -> tuple[int, int]:
    try:
        n_str, l_str = text.split(",")
        return int(n_str), int(l_str)
    except ValueError as exc:
        raise ConfigError(f"state must look like 'n,l', got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _run(args, potential, state, validate: bool) -> str:
    """One problem as a JSON document or as CSV with one row per order.

    `validate` adds the radial solver's energy and the deviation of each
    partial sum (and of the Pade value) from it.
    """
    from . import resummation

    _, series = engine.compute_series(potential, state, args.order)
    pade_value = None
    if args.pade_num is not None:
        pade_value = resummation.pade(series, args.pade_num, args.pade_den)
    report = resummation.divergence_diagnostics(series)
    doc = {
        "potential": {
            "mass": format_rational(potential.mass),
            "omega": format_rational(potential.omega),
            "v": [format_rational(v) for v in potential.anharmonic],
        },
        "state": {"n": state.n, "l": state.l},
        "order": series.order,
        "corrections": [format_rational(c) for c in series],
        "partial_sums": report.partial_sums,
    }
    if pade_value is not None:
        doc["pade"] = {"num_degree": args.pade_num, "den_degree": args.pade_den, "value": pade_value}
    columns = {
        "order": range(1, series.order + 1),
        "correction": doc["corrections"],
        "partial_sum": report.partial_sums,
    }
    if validate:
        from . import oracle

        solver = {k: getattr(args, k) for k in _SOLVER_OPTIONS if getattr(args, k) is not None}
        result = oracle.solve_radial(potential, oracle.default_config(potential, state, **solver))
        record = oracle.compare_with_series(result, report, pade_value)
        doc["oracle"] = {
            "energy": result.energy,
            "residual": result.residual_estimate,
            "converged": result.converged,
        }
        doc["comparison"] = record._asdict()
        columns.update({
            "abs_deviation": record.deviations,
            "rel_deviation": record.relative_deviations,
            "oracle_energy": [result.energy] * series.order,
            "pade_value": [pade_value] * series.order,
            "best_order": [record.best_order] * series.order,
        })
    if args.format == "csv":
        rows = [columns, *zip(*columns.values())]
        return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    return _dumps(doc) + "\n"


def _check_state(n: int, l: int, order: int) -> str | None:
    """One harmonic state; returns a failure locator or None."""
    state = make_state(n, l)
    table, series = engine.compute_series(make_potential(1, 1), state, order)
    exact = [Fraction(2 * n + l) + Fraction(3, 2)] + [0] * (order - 1)
    for k, (e_k, want) in enumerate(zip(series, exact), 1):
        if e_k != want:
            return f"(n={n}, l={l}, k={k}): E_{k} = {e_k} != {want}"
    from . import wavefunction

    d = wavefunction.harmonic_d_coefficients(state, max(order, n + 1, 2))
    for k in range(1, order + 1):
        head, *tail = table.row(k)
        if head != d[k]:
            return f"(n={n}, l={l}, k={k}): C[k][0] = {head} != d_k = {d[k]}"
        if any(tail):
            i = next(i for i, entry in enumerate(tail, 1) if entry)
            return f"(n={n}, l={l}, k={k}): C[k][{i}] != 0"
    poly = wavefunction.node_polynomial(state, d)
    for m in range(1, n + 1):
        # p_(m-1)/p_m = m (2m + 2l + 1) / (2 (m - n - 1)), cross-multiplied.
        num, den = m * (2 * m + 2 * l + 1), 2 * (m - n - 1)
        lower, upper = poly[m - 1], poly[m]
        if lower.numerator * upper.denominator * den != upper.numerator * lower.denominator * num:
            return f"(n={n}, l={l}, m={m}): polynomial ratio != {Fraction(num, den)}"
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


def _add_problem_flags(parser: argparse.ArgumentParser, command: str, defaults: dict) -> None:
    """The command's rows as flags; `defaults`, by config key, replaces a row's default."""
    for key, flag, _, kwargs in _COMMAND_OPTIONS[command]:
        if flag == "--pade-num":  # --config and --sweep come before the Pade flags in --help
            parser.add_argument("--config", help="JSON config file; flags override it")
            parser.add_argument(
                "--sweep", nargs="+", metavar="N,L",
                help="run several states, one after another, e.g. --sweep 0,0 1,0",
            )
        action = parser.add_argument(flag, **kwargs)
        action.default = defaults.get(key, action.default)


class _ArgumentParser(argparse.ArgumentParser):
    """Reads every negative value that a flag's type reads as a value, not as
    an option: a rational such as -1/50, so that a negative coupling can
    follow another value of --v, and a float such as -1e9, -2.5e-3, -inf or
    -nan (any case), so that --bracket -inf 5 meets the bracket check.

    argparse alone does so only for "-2" and "-0.5".  Subparsers inherit the
    class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )


def _build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="anharm",
        description="Exact perturbation series for spherical anharmonic oscillators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("compute", "exact corrections and partial sums"),
        ("validate", "series vs numeric radial solver"),
    ):
        _add_problem_flags(sub.add_parser(command, help=help_text), command, defaults or {})

    check = sub.add_parser("check-harmonic", help="harmonic exactness sweep")
    check.add_argument("--max-n", type=int, default=10)
    check.add_argument("--max-l", type=int, default=10)
    check.add_argument("--order", type=int, default=15)
    return parser


def _loaded(module: str, name: str) -> tuple:
    """(anharm.<module>.<name>,) once that module is loaded, else (): nothing
    can have raised its errors before.  An except clause evaluates this only
    when an error reaches it, so the success path never imports the module."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return (getattr(loaded, name),) if loaded else ()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check-harmonic":
            return _run_check_harmonic(args.max_n, args.max_l, args.order)
        if args.config:
            # Config values become the flags' defaults, so a flag given in argv wins.
            values = _load_config_file(args.config, args.command)
            args = _build_parser(values).parse_args(argv)
        if (args.pade_num is None) != (args.pade_den is None):
            raise ConfigError("--pade-num and --pade-den must be given together")
        sweep = [_parse_state_pair(s) for s in args.sweep or []]
        potential = make_potential(args.mass, args.omega, args.v)
        state = make_state(args.n, args.l)
        states = [make_state(n, l) for n, l in sweep] or [state]
        try:
            texts = [_run(args, potential, s, args.command == "validate") for s in states]
        except ValueError as exc:  # an argument the library refuses
            raise ConfigError(str(exc)) from exc
        if args.output is None:
            sys.stdout.write("".join(texts))
            return EXIT_OK
        try:
            if not args.sweep:
                _write_atomic(args.output, texts[0])
            else:
                os.makedirs(args.output, exist_ok=True)
                for s, text in zip(states, texts):
                    name = f"state_n{s.n}_l{s.l}.{args.format}"
                    _write_atomic(os.path.join(args.output, name), text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.output!r}: {exc.strerror}") from exc
        return EXIT_OK
    except (ConfigError, ProblemSpecError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (engine.EngineError, *_loaded("resummation", "ResummationError")) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except _loaded("oracle", "OracleError") as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
