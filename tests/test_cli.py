import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import anharm.engine
import anharm.wavefunction
from anharm.cli import _OPTIONS, main
from anharm.engine import compute_series
from anharm.model import EnergySeries, make_potential, make_state

QUARTIC_ARGS = [
    "compute", "--mass", "1", "--omega", "1", "--v", "1/100",
    "--n", "0", "--l", "0", "--order", "5", "--format", "json",
]

EXPECTED_QUARTIC_CORRECTIONS = [
    "3/2", "3/80", "-33/16000", "783/3200000", "-104097/2560000000",
]


# One value per option of the cli table, as the words that follow its flag.
OPTION_TEXTS = {
    "potential.mass": ["7/4"],
    "potential.omega": ["5/3"],
    "potential.v": ["1/10", "-1/50"],
    "state.n": ["1"],
    "state.l": ["2"],
    "order": ["5"],
    "format": ["csv"],
    "pade.num_degree": ["2"],
    "pade.den_degree": ["1"],
    "oracle.grid_points": ["3000"],
    "oracle.r_max": ["9"],
    "oracle.tolerance": ["1e-9"],
    "oracle.bracket": ["0", "5"],
}


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

    def test_pade_singular_system_is_resummation_error(self, capsys):
        # harmonic: E_2 = E_3 = 0, so the [1/1] denominator system is 0 * b_1 = 0
        code, out, err = run_cli(
            capsys,
            ["compute", "--order", "5", "--pade-num", "1", "--pade-den", "1"],
        )
        assert code == 3 and out == ""
        assert "SingularPadeSystem" in err

    def test_pade_with_zero_first_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["compute", "--v", "0", "1/10", "--order", "7", "--pade-num", "2", "--pade-den", "2"],
        )
        assert code == 0
        assert json.loads(out)["pade"]["value"] == 1.6984877126654063


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
            (
                {"pade": {"num_degree": "x", "den_degree": 1}},
                "config key 'pade.num_degree' must be an integer, got 'x'",
            ),
            ({"state": {"n": [1]}}, "config key 'state.n' must be an integer, got [1]"),
            ({"oracle": {"bracket": 5}}, "config key 'oracle.bracket' must be a number, got 5"),
            (
                {"potential": {"v": ["1/100"]}, "order": 3, "oracle": {"grid_point": "abc"}},
                "unknown config key 'oracle.grid_point'",
            ),
            ({"pade": {"num_degre": 1, "den_degree": 1}}, "unknown config key 'pade.num_degre'"),
            ({"pade": {"coupling_index": 1}}, "unknown config key 'pade.coupling_index'"),
            ({"orders": 3}, "unknown config key 'orders'"),
            ({"order": 3, "potential": {"v": "12"}}, "config key 'potential.v' must be a list"),
            ({"order": 3.9}, "config key 'order' must be an integer, got 3.9"),
            ({"state": {"n": 1.5}}, "config key 'state.n' must be an integer, got 1.5"),
            ({"format": "xml"}, "config key 'format' must be 'json' or 'csv', got 'xml'"),
            ({"output": 5}, "config key 'output' must be a path, got 5"),
            ({"oracle": {"tolerance": True}}, "config key 'oracle.tolerance' must be a number"),
            ({"oracle": {"r_max": True}}, "config key 'oracle.r_max' must be a number"),
            (
                {"oracle": {"bracket": [0, True]}},
                "config key 'oracle.bracket' must be a number, got [0, True]",
            ),
            ({"oracle": {"bracket": ["a", 5]}}, "config key 'oracle.bracket' must be a number"),
            ({"oracle": {"bracket": [0, 5, 7]}}, "config key 'oracle.bracket' must be a number"),
        ],
        ids=[
            "potential-list", "pade-degree-text", "state-list", "bracket-number",
            "unknown-oracle-key", "unknown-pade-key", "stale-pade-key", "unknown-top-key",
            "v-text", "float-order", "float-state", "unknown-format", "output-number",
            "bool-tolerance", "bool-r-max", "bool-bracket-end", "bracket-text-entry",
            "bracket-three-entries",
        ],
    )
    def test_malformed_section_is_config_error(self, tmp_path, capsys, doc, message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["validate", "--order", "3", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError:") and message in err

    @pytest.mark.parametrize("row", _OPTIONS, ids=[row[0] for row in _OPTIONS])
    def test_config_value_and_flag_give_the_same_output(self, tmp_path, capsys, row):
        """Every option of the table, once from the config file as text and once
        from its flag, over a problem that sets the other options by flag."""
        key, flag, _, kwargs = row
        texts = [str(tmp_path / "out.json")] if key == "output" else OPTION_TEXTS[key]
        command = "validate" if key.startswith("oracle.") else "compute"
        others = {"--v": ["1/10"], "--order": ["6"], "--pade-num": ["1"], "--pade-den": ["2"]}
        if command == "validate":
            others["--grid-points"] = ["4000"]
        others.pop(flag, None)
        argv = [command, *(word for name, words in others.items() for word in (name, *words))]
        section, _, name = key.rpartition(".")
        value = texts if "nargs" in kwargs else texts[0]
        config = tmp_path / "job.json"
        config.write_text(json.dumps({section: {name: value}} if section else {name: value}))

        def run(extra):
            code, out, err = run_cli(capsys, [*argv, *extra])
            if key == "output":
                out = (tmp_path / "out.json").read_text()
                os.unlink(tmp_path / "out.json")
            return code, out, err

        from_file = run(["--config", str(config)])
        assert from_file[0] == 0 and from_file[1]
        assert from_file == run([flag, *texts])


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

    def test_csv_sweep_files_match_single_state_stdout(self, tmp_path, capsys):
        outdir = tmp_path / "runs"
        flags = ["compute", "--v", "1/100", "--order", "4", "--format", "csv"]
        code, _, _ = run_cli(capsys, [*flags, "--sweep", "0,0", "1,0", "--output", str(outdir)])
        assert code == 0
        assert sorted(os.listdir(outdir)) == ["state_n0_l0.csv", "state_n1_l0.csv"]
        for n in (0, 1):
            single = run_cli(capsys, [*flags, "--n", str(n)])
            assert single[0] == 0
            assert (outdir / f"state_n{n}_l0.csv").read_text() == single[1]

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
            (["--config", "{config}"], "config key 'oracle.grid_points' must be an integer"),
            (["--tolerance", "nan"], "tolerance must be positive and finite"),
            (["--tolerance", "inf"], "tolerance must be positive and finite"),
            (["--r-max", "inf"], "r_max must be positive and finite"),
        ],
        ids=[
            "grid-points", "tolerance", "r-max", "bracket", "config-grid-points",
            "tolerance-nan", "tolerance-inf", "r-max-inf",
        ],
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
        """A tampered E_k, table head column or node polynomial is reported at
        the first state and index where it goes wrong."""
        real_series = anharm.engine.compute_series
        real_poly = anharm.wavefunction.node_polynomial

        def tampered_energy(potential, state, order, max_order=64):
            table, series = real_series(potential, state, order, max_order)
            tampered = list(series)
            if state.n == 1 and state.l == 2:
                tampered[2] += 1
            return table, EnergySeries(tuple(tampered))

        class ShiftedHead:
            """The table with C[2][0] off by one."""

            def __init__(self, table):
                self.table, self.imax = table, table.imax

            def entry(self, k, i):
                return self.table.entry(k, i) + ((k, i) == (2, 0))

        def tampered_head(potential, state, order, max_order=64):
            table, series = real_series(potential, state, order, max_order)
            return (ShiftedHead(table) if (state.n, state.l) == (1, 2) else table), series

        def tampered_poly(state, d):
            poly = real_poly(state, d)
            if (state.n, state.l) == (2, 1):
                poly = (2 * poly[0], *poly[1:])
            return poly

        cases = [
            (anharm.engine, "compute_series", tampered_energy, "FAIL (n=1, l=2, k=3): E_3 = "),
            (anharm.engine, "compute_series", tampered_head, "FAIL (n=1, l=2, k=2): C[k][0] = "),
            (anharm.wavefunction, "node_polynomial", tampered_poly,
             "FAIL (n=2, l=1, m=1): polynomial ratio"),
        ]
        for module, name, fake, located in cases:
            monkeypatch.setattr(module, name, fake)
            code, out, _ = run_cli(
                capsys, ["check-harmonic", "--max-n", "2", "--max-l", "2", "--order", "5"]
            )
            monkeypatch.undo()
            assert code == 1
            assert out.startswith(located)

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
