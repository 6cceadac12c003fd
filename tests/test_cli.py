import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import anharm.engine
from anharm.cli import main
from anharm.engine import compute_series
from anharm.model import EnergySeries, make_potential, make_state

QUARTIC_ARGS = [
    "compute", "--mass", "1", "--omega", "1", "--v", "1/100",
    "--n", "0", "--l", "0", "--order", "5", "--format", "json",
]

EXPECTED_QUARTIC_CORRECTIONS = [
    "3/2", "3/80", "-33/16000", "783/3200000", "-104097/2560000000",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_quartic_json(self, capsys):
        code, out, _ = run_cli(capsys, QUARTIC_ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["corrections"] == EXPECTED_QUARTIC_CORRECTIONS
        assert doc["potential"] == {"mass": "1", "omega": "1", "v": ["1/100"]}
        assert doc["state"] == {"n": 0, "l": 0}
        assert len(doc["partial_sums"]) == 5
        assert doc["partial_sums"][0] == 1.5

    def test_harmonic_scaled_frequency(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["compute", "--mass", "1", "--omega", "2", "--n", "1", "--l", "1", "--order", "3"],
        )
        assert code == 0
        assert json.loads(out)["corrections"] == ["9", "0", "0"]

    def test_zero_frequency_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, ["compute", "--omega", "0", "--order", "3"])
        assert code == 2
        assert "NonPositiveFrequency" in err

    def test_order_beyond_cap_is_engine_error(self, capsys):
        code, _, err = run_cli(capsys, ["compute", "--order", "100"])
        assert code == 3
        assert "OrderTooLarge" in err

    def test_corrections_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, QUARTIC_ARGS)
        doc = json.loads(out)
        parsed = [Fraction(c) for c in doc["corrections"]]
        _, series = compute_series(
            make_potential(1, 1, [Fraction(1, 100)]), make_state(0, 0), 5
        )
        assert parsed == list(series)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, QUARTIC_ARGS)
        _, second, _ = run_cli(capsys, QUARTIC_ARGS)
        assert first == second

    def test_decimal_coupling_is_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, ["compute", "--v", "0.01", "--order", "2", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["corrections"] == ["3/2", "3/80"]

    def test_csv_rows_per_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["compute", "--v", "1/100", "--order", "3", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order,correction,partial_sum"
        assert len(lines) == 4
        assert lines[1].startswith("1,3/2,")

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        _, stdout_text, _ = run_cli(capsys, QUARTIC_ARGS)
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, QUARTIC_ARGS + ["--output", str(target)])
        assert code == 0 and out == ""
        assert target.read_text() == stdout_text

    def test_pade_block(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "compute", "--v", "1/10", "--order", "7",
                "--pade-num", "3", "--pade-den", "3",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pade"]["num_degree"] == 3
        assert doc["pade"]["den_degree"] == 3
        assert abs(doc["pade"]["value"] - 1.768855) < 1e-5

    def test_pade_flags_must_pair(self, capsys):
        code, _, err = run_cli(capsys, ["compute", "--v", "1/10", "--pade-num", "2"])
        assert code == 2
        assert "together" in err

    def test_pade_zero_coupling_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["compute", "--order", "5", "--pade-num", "1", "--pade-den", "1"],
        )
        assert code == 2
        assert "coupling" in err


class TestConfigFile:
    def test_config_document(self, tmp_path, capsys):
        config = tmp_path / "job.json"
        config.write_text(
            json.dumps(
                {
                    "potential": {"mass": "1", "omega": "1", "v": ["1/100"]},
                    "state": {"n": 0, "l": 0},
                    "order": 5,
                    "format": "json",
                }
            )
        )
        code, out, _ = run_cli(capsys, ["compute", "--config", str(config)])
        assert code == 0
        assert json.loads(out)["corrections"] == EXPECTED_QUARTIC_CORRECTIONS

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"order": 5, "potential": {"v": ["1/100"]}}))
        code, out, _ = run_cli(
            capsys, ["compute", "--config", str(config), "--order", "2"]
        )
        assert code == 0
        assert json.loads(out)["order"] == 2

    def test_negative_couplings_on_command_line(self, tmp_path, capsys):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"potential": {"v": ["1/10", "-1/50"]}, "order": 3}))
        from_file = run_cli(capsys, ["compute", "--config", str(config)])
        from_flags = run_cli(capsys, ["compute", "--v", "1/10", "-1/50", "--order", "3"])
        assert from_flags == from_file
        assert from_file[0] == 0
        assert json.loads(from_file[1])["potential"]["v"] == ["1/10", "-1/50"]

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{")
        code, _, err = run_cli(capsys, ["compute", "--config", str(config)])
        assert code == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"potential": []}, "'potential' must be a JSON object"),
            ({"pade": {"num_degree": "x", "den_degree": 1}}, "invalid literal for int()"),
            ({"state": {"n": [1]}}, "int() argument must be"),
            ({"oracle": {"bracket": 5}}, "cannot unpack"),
        ],
        ids=["potential-list", "pade-degree-text", "state-list", "bracket-number"],
    )
    def test_malformed_section_is_config_error(self, tmp_path, capsys, doc, message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["validate", "--order", "3", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError:") and message in err


class TestSweep:
    def test_sweep_writes_one_file_per_state(self, tmp_path, capsys):
        outdir = tmp_path / "runs"
        code, _, _ = run_cli(
            capsys,
            [
                "compute", "--v", "1/100", "--order", "4",
                "--sweep", "0,0", "1,0", "--output", str(outdir),
            ],
        )
        assert code == 0
        for n, l in [(0, 0), (1, 0)]:
            path = outdir / f"state_n{n}_l{l}.json"
            doc = json.loads(path.read_text())
            assert doc["state"] == {"n": n, "l": l}
            _, series = compute_series(
                make_potential(1, 1, [Fraction(1, 100)]), make_state(n, l), 4
            )
            assert [Fraction(c) for c in doc["corrections"]] == list(series)

    def test_sweep_to_stdout_keeps_order(self, capsys):
        code, out, _ = run_cli(
            capsys, ["compute", "--order", "2", "--sweep", "0,0", "0,1"]
        )
        assert code == 0
        docs = [json.loads(chunk + "}") for chunk in out.split("}\n") if chunk.strip()]
        assert [d["state"]["l"] for d in docs] == [0, 1]

    def test_bad_state_pair(self, capsys):
        code, _, err = run_cli(capsys, ["compute", "--sweep", "1-2"])
        assert code == 2


class TestValidate:
    def test_harmonic_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["validate", "--order", "6", "--grid-points", "2000"],
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["oracle"]["energy"] - 1.5) < 1e-9
        assert doc["oracle"]["converged"] is True
        assert all(d < 1e-9 for d in doc["comparison"]["deviations"])

    def test_quartic_with_pade(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "validate", "--v", "1/10", "--order", "7",
                "--grid-points", "4000",
                "--pade-num", "3", "--pade-den", "3",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["comparison"]["pade_deviation"] < 1e-2
        assert doc["comparison"]["best_order"] <= 7

    def test_csv_flattens_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["validate", "--order", "3", "--grid-points", "2000", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("order,correction,partial_sum,abs_deviation")
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-points", "500"], "need at least 1000 grid points"),
            (["--tolerance", "0"], "tolerance must be positive"),
            (["--r-max", "-1"], "r_max must be positive"),
            (["--bracket", "2", "1"], "bracket must satisfy lo < hi"),
            (["--config", "{config}"], "invalid literal for int()"),
        ],
        ids=["grid-points", "tolerance", "r-max", "bracket", "config-grid-points"],
    )
    def test_invalid_solver_option_is_config_error(self, tmp_path, capsys, flags, message):
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"oracle": {"grid_points": "abc"}}))
        argv = ["validate", "--order", "3"] + [f.replace("{config}", str(config)) for f in flags]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError:") and message in err

    def test_oracle_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["validate", "--order", "3", "--grid-points", "2000", "--bracket", "0", "0.5"],
        )
        assert code == 4
        assert "BracketingFailure" in err


class TestCheckHarmonic:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check-harmonic", "--max-n", "3", "--max-l", "3", "--order", "6"]
        )
        assert code == 0
        assert "all exact checks passed" in out

    def test_corrupted_engine_is_located(self, capsys, monkeypatch):
        real = anharm.engine.compute_series

        def broken(potential, state, order, max_order=64):
            table, series = real(potential, state, order, max_order)
            tampered = list(series)
            if state.n == 1 and state.l == 2:
                tampered[2] += 1
            return table, EnergySeries(tuple(tampered))

        monkeypatch.setattr(anharm.engine, "compute_series", broken)
        code, out, _ = run_cli(
            capsys, ["check-harmonic", "--max-n", "2", "--max-l", "2", "--order", "5"]
        )
        assert code == 1
        assert "FAIL (n=1, l=2, k=3)" in out

    def test_negative_bounds_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["check-harmonic", "--max-n", "-1"])
        assert code == 2


def test_module_entry_point():
    src = str(Path(anharm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "anharm", "compute", "--order", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["corrections"] == ["3/2", "0"]
