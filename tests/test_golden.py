import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from golden_cases import (
    CLI_CASES, GOLDEN_DIR, HELP_COMMANDS, SERIES_CASES, SERIES_K64_CASES,
    render_cli, render_help, render_series, run_in_process,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_matches_golden(rendered):
    for rel, text in rendered.items():
        assert text.encode() == (GOLDEN_DIR / rel).read_bytes(), rel


def run_console_script(argv, env):
    """`anharm ARGV` through the console script on PATH, importing this checkout's `src`."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["anharm", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process_and_console_script(names):
    """Each case run by `cli.main` in this interpreter, and again, with
    `-console_script` added to its id, by the installed `anharm` in a
    process of its own (skipped when no `anharm` is on PATH)."""
    on_path = pytest.mark.skipif(shutil.which("anharm") is None, reason="no anharm console script on PATH")
    return [pytest.param(name, run_in_process, id=name) for name in names] + [
        pytest.param(name, run_console_script, id=f"{name}-console_script", marks=on_path)
        for name in names
    ]


@pytest.mark.parametrize("name, run", in_process_and_console_script(sorted(CLI_CASES)))
def test_cli_matches_golden(name, run):
    rendered = render_cli(name, run)
    written = {p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.glob(f"{name}/*")}
    assert written <= set(rendered), "an output file of the golden run is missing"
    assert_matches_golden(rendered)


@pytest.mark.parametrize("command, run", in_process_and_console_script(HELP_COMMANDS))
def test_help_matches_golden(command, run):
    assert_matches_golden(render_help(command, run))


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_exact_series_matches_golden(name):
    assert_matches_golden(render_series(name))


@pytest.mark.parametrize("name", sorted(SERIES_K64_CASES))
def test_exact_series_k64_matches_golden(name):
    """The engine's E_1..E_64, and the same through `anharm compute`, whose
    top order runs the divergence diagnostics on all 64."""
    assert_matches_golden(render_series(name, 64))
    (mass, omega, couplings), n, l = SERIES_K64_CASES[name]
    code, stdout, _ = run_in_process([
        "compute", "--mass", mass, "--omega", omega, "--v", *couplings,
        "--n", str(n), "--l", str(l), "--order", "64",
    ], {})
    golden = json.loads((GOLDEN_DIR / f"series_k64/{name}.json").read_text())
    assert code == 0 and json.loads(stdout)["corrections"] == golden["corrections"]
