"""Golden outputs: CLI transcripts, a --sweep directory and exact E_k at K = 32.

`tests/test_golden.py` renders every case again and compares it byte for byte
with the files under `tests/golden/`.  The files were recorded before the
exact engine was reduced to a single fill loop; rewrite them only for a change
that is meant to alter output:

    PYTHONPATH=src python tests/golden_cases.py

CLI cases run in-process through `anharm.cli.main`, which is what
`python -m anharm` calls.  Each transcript holds the argv, the exit code,
stdout and stderr.  The solver cases use a 4000-point grid to stay cheap.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from anharm.cli import main
from anharm.engine import compute_series
from anharm.model import format_rational, make_potential, make_state

GOLDEN_DIR = Path(__file__).parent / "golden"

# "{out}" stands for a fresh output directory.
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
    "sweep": [
        "compute", "--v", "1/100", "1/1000", "--order", "6",
        "--sweep", "0,0", "1,0", "2,1", "0,3", "--output", "{out}",
    ],
    "check_harmonic": ["check-harmonic"],
    "error_config": ["compute", "--pade-num", "3"],
    "error_engine": ["compute", "--order", "65"],
}

_QUARTIC = ("1", "1", ["1/100"])
_THREE_COUPLINGS = ("7/4", "5/3", ["1/2", "-1/3", "1/5"])
SERIES_CASES = {
    f"{label}_n{n}_l{l}": (spec, n, l)
    for label, spec in (("quartic", _QUARTIC), ("three_couplings", _THREE_COUPLINGS))
    for n, l in ((0, 0), (1, 2))
}
SERIES_ORDER = 32


def render_cli(name: str) -> dict[str, str]:
    """Transcript of one CLI case, plus every file it wrote, by golden path."""
    argv = CLI_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.replace("{out}", str(out_dir)) for arg in argv])
        files = {
            f"{name}/{path.name}": path.read_text()
            for path in sorted(out_dir.iterdir())
        } if out_dir.exists() else {}
    transcript = (
        f"$ anharm {' '.join(argv)}\n"
        f"exit {code}\n"
        f"--- stdout\n{stdout.getvalue()}"
        f"--- stderr\n{stderr.getvalue()}"
    )
    return {f"{name}.txt": transcript, **files}


def render_series(name: str) -> dict[str, str]:
    """E_1..E_32 of one problem as "p/q" strings."""
    (mass, omega, couplings), n, l = SERIES_CASES[name]
    potential = make_potential(Fraction(mass), Fraction(omega), [Fraction(v) for v in couplings])
    _, series = compute_series(potential, make_state(n, l), SERIES_ORDER)
    doc = {
        "mass": mass, "omega": omega, "v": couplings, "n": n, "l": l,
        "corrections": [format_rational(c) for c in series],
    }
    return {f"series_k{SERIES_ORDER}/{name}.json": json.dumps(doc, indent=1) + "\n"}


def main_write() -> None:
    rendered = {}
    for name in CLI_CASES:
        rendered.update(render_cli(name))
    for name in SERIES_CASES:
        rendered.update(render_series(name))
    for rel, text in rendered.items():
        path = GOLDEN_DIR / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main_write()
