"""Golden outputs: CLI transcripts, a --sweep directory, exact E_k at K = 32 and 64,
and the `--help` of `compute` and `validate`.

`tests/test_golden.py` renders every case again and compares it byte for byte
with the files under `tests/golden/`.  A CLI transcript holds the argv, the
config file when the case has one, the exit code, stdout and stderr; a
`--sweep` case adds the files it wrote, and a help text is the stdout of
`anharm COMMAND --help` at 80 columns.  The solver cases use a 4000-point
grid to stay cheap.  The history of re-recordings is in CHANGES.md.

`render_cli` and `render_help` take a runner, `run(argv, env)` returning
(exit code, stdout, stderr) of `anharm ARGV` with `env` added to the
environment.  The default, `run_in_process`, calls `anharm.cli.main`, which
is what `python -m anharm` calls; `tests/test_golden.py` also replays the
cases through the `anharm` console script, and `tests/test_cli.py` in
interpreters that cannot import the modules a command does not run.  This
module imports nothing that loads `dataclasses`, so it runs in those too.

Rewrite the files only for a change that is meant to alter output:

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from anharm.cli import main
from anharm.engine import compute_series
from anharm.model import format_rational, make_potential, make_state

GOLDEN_DIR = Path(__file__).parent / "golden"

# "{out}" stands for a fresh output directory, "{config}" for a file holding
# the case's entry in CONFIG_FILES.
CLI_CASES = {
    "compute_pade_json": [
        "compute", "--v", "1/100", "--order", "8", "--pade-num", "3", "--pade-den", "3",
    ],
    "compute_csv": [
        "compute", "--mass", "3/2", "--omega", "2", "--v", "1/10", "1/50",
        "--n", "1", "--l", "2", "--order", "10", "--format", "csv",
    ],
    "validate_pade_json": [
        "validate", "--v", "1/10", "--order", "7", "--pade-num", "3", "--pade-den", "3",
        "--grid-points", "4000", "--tolerance", "1e-10",
    ],
    "validate_csv": [
        "validate", "--v", "1/100", "--n", "1", "--l", "1", "--order", "6",
        "--format", "csv", "--grid-points", "4000", "--tolerance", "1e-10",
    ],
    "validate_short_csv": [
        "validate", "--v", "1/100", "--order", "4", "--pade-num", "1", "--pade-den", "2",
        "--grid-points", "4000", "--tolerance", "1e-10", "--format", "csv",
    ],
    "validate_config": ["validate", "--config", "{config}"],
    "sweep": [
        "compute", "--v", "1/100", "1/1000", "--order", "6",
        "--sweep", "0,0", "1,0", "2,1", "0,3", "--output", "{out}",
    ],
    "check_harmonic": ["check-harmonic"],
    "error_config": ["compute", "--pade-num", "3"],
    "error_engine": ["compute", "--order", "65"],
    "error_pade": ["compute", "--order", "5", "--pade-num", "1", "--pade-den", "1"],
}

HELP_COMMANDS = ("compute", "validate")

# Every solver option, numbers given as strings where the file format allows.
CONFIG_FILES = {
    "validate_config": {
        "potential": {"v": ["1/100"]},
        "order": 5,
        "oracle": {"grid_points": "4000", "tolerance": "1e-10", "r_max": 8, "bracket": [0, 5]},
    },
}

_QUARTIC = ("1", "1", ["1/100"])
_THREE_COUPLINGS = ("7/4", "5/3", ["1/2", "-1/3", "1/5"])
# The quartic in physical units: one coupling off m = omega = 1, whose scaled
# coupling is not an integer power.
_PHYSICAL_QUARTIC = ("7/4", "5/3", ["3/7"])
SERIES_CASES = {
    f"{label}_n{n}_l{l}": (spec, n, l)
    for label, spec in (
        ("quartic", _QUARTIC),
        ("three_couplings", _THREE_COUPLINGS),
        ("physical_quartic", _PHYSICAL_QUARTIC),
    )
    for n, l in ((0, 0), (1, 2))
}
SERIES_ORDER = 32
# Deep series: the quartic's ground and one excited state, one ground state off m = omega = 1.
SERIES_K64_CASES = {
    "quartic_n1_l2": (_QUARTIC, 1, 2),
    "three_couplings_n0_l0": (_THREE_COUPLINGS, 0, 0),
    "quartic_n0_l0": (_QUARTIC, 0, 0),
}


def run_in_process(argv: list[str], env: dict[str, str]) -> tuple[int, str, str]:
    """`anharm.cli.main(argv)` in this interpreter, with `env` set meanwhile."""
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's --help and usage errors
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    return code, stdout.getvalue(), stderr.getvalue()


def render_cli(name: str, run=run_in_process) -> dict[str, str]:
    """Transcript of one CLI case, plus every file it wrote, by golden path."""
    argv = CLI_CASES[name]
    config = json.dumps(CONFIG_FILES[name]) + "\n" if name in CONFIG_FILES else ""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        config_path = Path(tmp) / "config.json"
        config_path.write_text(config)
        code, stdout, stderr = run([
            arg.replace("{out}", str(out_dir)).replace("{config}", str(config_path))
            for arg in argv
        ], {})
        files = {
            f"{name}/{path.name}": path.read_text()
            for path in sorted(out_dir.iterdir())
        } if out_dir.exists() else {}
    transcript = (
        f"$ anharm {' '.join(argv)}\n"
        + (f"--- config\n{config}" if config else "")
        + f"exit {code}\n"
        f"--- stdout\n{stdout}"
        f"--- stderr\n{stderr}"
    )
    return {f"{name}.txt": transcript, **files}


def render_help(command: str, run=run_in_process) -> dict[str, str]:
    """`anharm COMMAND --help` at 80 columns."""
    return {f"help_{command}.txt": run([command, "--help"], {"COLUMNS": "80"})[1]}


def render_series(name: str, order: int = SERIES_ORDER) -> dict[str, str]:
    """E_1..E_order of one problem as "p/q" strings."""
    cases = {SERIES_ORDER: SERIES_CASES, 64: SERIES_K64_CASES}[order]
    (mass, omega, couplings), n, l = cases[name]
    potential = make_potential(Fraction(mass), Fraction(omega), [Fraction(v) for v in couplings])
    _, series = compute_series(potential, make_state(n, l), order)
    doc = {
        "mass": mass, "omega": omega, "v": couplings, "n": n, "l": l,
        "corrections": [format_rational(c) for c in series],
    }
    return {f"series_k{order}/{name}.json": json.dumps(doc, indent=1) + "\n"}


def main_write() -> None:
    rendered = {}
    for name in CLI_CASES:
        rendered.update(render_cli(name))
    for command in HELP_COMMANDS:
        rendered.update(render_help(command))
    for name in SERIES_CASES:
        rendered.update(render_series(name))
    for name in SERIES_K64_CASES:
        rendered.update(render_series(name, 64))
    for rel, text in rendered.items():
        path = GOLDEN_DIR / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main_write()
