"""Golden outputs: CLI transcripts, a --sweep directory, exact E_k at K = 32 and 64,
and the `--help` of `compute` and `validate`.

`tests/test_golden.py` renders every case again and compares it byte for byte
with the files under `tests/golden/`.  The files were recorded before the
exact engine was reduced to a single fill loop, the K = 64 series before it
moved from `Fraction` cells to integers in oscillator units, and
`validate_short_csv` and `validate_config` before `compute` and `validate`
came to share one runner.  The four `validate_*` transcripts carry solver
energies; they were re-recorded when the solver moved to the summed-form
sweep, the Illinois stop and the energy-sized box, and again when it came to
find the level on an eighth-size grid and converge on the configured grid
from that seed (each energy moved by less than the tolerance), and once more
when one ladder of grids, 1/16 of the configured size up to all of it,
replaced that path (each energy moved by at most 7.6e-12 and came closer to
its reference), and again when that ladder came to start at 250 points, seed
each rung from the h^4 law and stop once its estimate met 4 tolerances (each
energy moved by at most 5.4e-11, within the 1e-10 tolerance).
`compute_pade_json`, `validate_short_csv` and `error_pade` were re-recorded when `pade` moved to exact arithmetic, rounded once; the
harmonic `[1/1]` case replaced the `[8/8]` quartic in `error_pade`, which
exact arithmetic solves.
`series_k64/quartic_n0_l0.json`, the quartic ground state, was added from
the engine as it stood before each convolution was bounded by the rows'
first nonzero columns too; no other file was re-recorded then.  Rewrite the
files only for a change that is meant to alter output:

    PYTHONPATH=src python tests/golden_cases.py

CLI cases run in-process through `anharm.cli.main`, which is what
`python -m anharm` calls.  Each transcript holds the argv, the config file
when the case has one, the exit code, stdout and stderr.  The solver cases use
a 4000-point grid to stay cheap, so their ladders climb from 250 points.
The help texts are rendered at 80 columns; `help_validate.txt` was recorded
before the defaults moved into the option table, `help_compute.txt` after
`compute` dropped the solver flags.
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
from unittest import mock

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
SERIES_CASES = {
    f"{label}_n{n}_l{l}": (spec, n, l)
    for label, spec in (("quartic", _QUARTIC), ("three_couplings", _THREE_COUPLINGS))
    for n, l in ((0, 0), (1, 2))
}
SERIES_ORDER = 32
# Deep series: the quartic's ground and one excited state, one ground state off m = omega = 1.
SERIES_K64_CASES = {
    "quartic_n1_l2": (_QUARTIC, 1, 2),
    "three_couplings_n0_l0": (_THREE_COUPLINGS, 0, 0),
    "quartic_n0_l0": (_QUARTIC, 0, 0),
}


def render_cli(name: str) -> dict[str, str]:
    """Transcript of one CLI case, plus every file it wrote, by golden path."""
    argv = CLI_CASES[name]
    config = json.dumps(CONFIG_FILES[name]) + "\n" if name in CONFIG_FILES else ""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        config_path = Path(tmp) / "config.json"
        config_path.write_text(config)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([
                arg.replace("{out}", str(out_dir)).replace("{config}", str(config_path))
                for arg in argv
            ])
        files = {
            f"{name}/{path.name}": path.read_text()
            for path in sorted(out_dir.iterdir())
        } if out_dir.exists() else {}
    transcript = (
        f"$ anharm {' '.join(argv)}\n"
        + (f"--- config\n{config}" if config else "")
        + f"exit {code}\n"
        f"--- stdout\n{stdout.getvalue()}"
        f"--- stderr\n{stderr.getvalue()}"
    )
    return {f"{name}.txt": transcript, **files}


def render_help(command: str) -> dict[str, str]:
    """`anharm COMMAND --help` at 80 columns."""
    stdout = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(stdout):
        with contextlib.suppress(SystemExit):
            main([command, "--help"])
    return {f"help_{command}.txt": stdout.getvalue()}


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
