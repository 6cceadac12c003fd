import contextlib
import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import anharm.engine
import anharm.wavefunction
from anharm.cli import _OPTIONS, _build_parser, main
from anharm.engine import compute_series
from anharm.model import EnergySeries, make_potential, make_state
from golden_cases import GOLDEN_DIR

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


@contextlib.contextmanager
def within_seconds(seconds):
    """Raise TimeoutError in the block once it has run `seconds` (SIGALRM)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--order", "0"], "order must be >= 1"),
            (["--order", "3", "--pade-num", "-1", "--pade-den", "1"],
             "Pade degrees must be non-negative"),
            (["--order", "3", "--pade-num", "2", "--pade-den", "2"],
             "[2/2] needs 5 coefficients"),
        ],
        ids=["order-0", "pade-negative", "pade-too-deep"],
    )
    def test_refused_argument_is_config_error(self, capsys, flags, message):
        code, out, err = run_cli(capsys, ["compute"] + flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: ConfigError: {message}")

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

    def test_output_in_missing_directory_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.json"
        code, out, err = run_cli(capsys, ["compute", "--order", "2", "--output", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError:") and repr(str(target)) in err
        assert ".anharm-" not in err

    def test_failed_replace_leaves_the_target_alone(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "out.json"
        target.write_bytes(b"earlier run\n")

        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run_cli(capsys, QUARTIC_ARGS + ["--output", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: ConfigError: cannot write output {str(target)!r}")
        assert target.read_bytes() == b"earlier run\n"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_solver_flags_are_not_compute_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compute", "--order", "2", "--tolerance", "0"])
        assert exit_info.value.code == 2 and capsys.readouterr().out == ""

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
        # The v_1 = 1 quartic is a Stieltjes series, so its [8/8] lies below
        # the level 2.737892268 (test_acceptance's criterion 8), here by 0.026.
        argv = ["compute", "--v", "1", "--order", "17", "--pade-num", "8", "--pade-den", "8"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and 2.71 < json.loads(out)["pade"]["value"] < 2.737892268

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

    @pytest.mark.parametrize(
        "flag, doc",
        [
            (["--order", "8"], {"order": 5}),
            (["--n", "0"], {"state": {"n": 1}}),
            (["--format", "json"], {"format": "csv"}),
        ],
        ids=["order", "state-n", "format"],
    )
    def test_flag_at_its_default_overrides_config(self, tmp_path, capsys, flag, doc):
        config = tmp_path / "job.json"
        config.write_text(json.dumps(doc))
        argv = ["compute", "--v", "1/10"]
        without_config = run_cli(capsys, [*argv, *flag])
        assert without_config[0] == 0
        assert run_cli(capsys, [*argv, *flag, "--config", str(config)]) == without_config
        assert run_cli(capsys, [*argv, "--config", str(config)]) != without_config

    def test_solver_keys_are_validate_only(self, tmp_path, capsys):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"oracle": {"tolerance": "1e-9"}}))
        argv = ["--order", "3", "--config", str(config)]
        code, out, err = run_cli(capsys, ["compute", *argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError:")
        assert "unknown config key 'oracle.tolerance'" in err
        code, out, _ = run_cli(capsys, ["validate", *argv, "--grid-points", "2000"])
        assert code == 0 and json.loads(out)["oracle"]["converged"] is True

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
            ([1], "config file must hold a JSON object"),
        ],
        ids=[
            "potential-list", "pade-degree-text", "state-list", "bracket-number",
            "unknown-oracle-key", "unknown-pade-key", "stale-pade-key", "unknown-top-key",
            "v-text", "float-order", "float-state", "unknown-format", "output-number",
            "bool-tolerance", "bool-r-max", "bool-bracket-end", "bracket-text-entry",
            "bracket-three-entries", "top-level-array",
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

    def test_output_onto_a_file_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "afile"
        target.write_text("")
        code, out, err = run_cli(
            capsys, ["compute", "--order", "2", "--sweep", "0,0", "--output", str(target)]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError:") and repr(str(target)) in err

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

    def test_stiff_oscillator_meets_the_tolerance_floor(self, capsys):
        # The level 15000 lies above 8192, where the default 1e-12 is less
        # than an ulp; the solver raises the tolerance to what floats resolve.
        code, out, _ = run_cli(capsys, ["validate", "--omega", "10000", "--order", "2"])
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["converged"] is True
        assert abs(oracle["energy"] - 15000) <= oracle["residual"]

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--bracket", "0", "inf"],
            ["--bracket", "0", "inf", "--r-max", "10"],
            ["--config", "{config}"],
            ["--bracket", "-inf", "5"],
        ],
        ids=["upper-inf", "upper-inf-with-box", "config-lower-inf", "lower-inf"],
    )
    def test_non_finite_bracket_end_is_config_error(self, tmp_path, capsys, flags):
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"oracle": {"bracket": ["-inf", "5"]}}))
        argv = ["validate", "--order", "3"] + [f.replace("{config}", str(config)) for f in flags]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError: bracket must satisfy lo < hi")

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--mass", "1e-400"], "mass"),
            (["--omega", "1e-400"], "omega"),
            (["--omega", "1e400"], "omega"),
            (["--v", "1e400"], "v_1"),
            (["--mass", "1e-200", "--omega", "1e-200"], "mass * omega"),
            (["--mass", "1e200", "--omega", "1e200"], "mass * omega"),
            # v_25 r^52 and v_26 r^54 both overflow at the far end of the scan,
            # r = 1e6, where V_eff is then -inf + inf.
            (["--v", *["0"] * 24, "-1", "1"], "V_eff on the scan"),
            # The level of 1e300 r^4 at m = 1e-320, about (v / m^2)^(1/3) =
            # 1e313, lies above every float: the upper end doubles to inf.
            (["--mass", "1e-320", "--omega", "1e100", "--v", "1e300"], "V_eff on the scan"),
            # The sweep on the half grid starts about l/sqrt(12) grid steps
            # out, at r = 10.6 and 11.5 (oscillator length 4), where r^(l+1)
            # overflows.
            (["--l", "1000"], "start value r^(l+1)"),
            (["--l", "400", "--omega", "1/16"], "start value r^(l+1)"),
        ],
        ids=[
            "mass-underflow", "omega-underflow", "omega-overflow", "coupling-overflow",
            "product-underflow", "product-overflow", "nan-at-the-scan-end", "doubling-overflow",
            "start-l1000", "start-l400",
        ],
    )
    def test_parameter_outside_the_float_range_is_config_error(self, capsys, flags, name):
        argv = ["validate", "--order", "2", "--grid-points", "2000", *flags]
        # The bracket doubling once spun forever on the overflowing scans:
        # a refusal that takes 20 s fails instead of stalling the run.
        with within_seconds(20):
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        # Named, without the 400-digit rational.
        assert err == f"error: ConfigError: {name} is out of the float range the solver works in\n"
        # The exact series needs no float.
        assert run_cli(capsys, ["compute", "--order", "2", *flags])[0] == 0

    @pytest.mark.parametrize(
        "couplings, k",
        [(["0", "1"], 6), (["-1", "1"], 6), (["1"], 4)],
        ids=["sextic", "sextic-minus-quartic", "quartic"],
    )
    def test_tiny_mass_level_obeys_the_scaling_law(self, capsys, couplings, k):
        """At m = omega = 1e-80 the level of r^k is m^(-k/(k+2)) times its
        level at m = 1, about 2.6e60 and 5.2e53.  A scan from 1e-3 oscillator
        lengths (1e77) overflowed; one from 1e-3 coupling lengths (1e7, 1e10)
        reaches the well.  -r^4 at r ~ 1e10, and omega^2 r^2 / 2, shift these
        levels by 1e-20 of themselves or less."""
        def level(mass, omega, couplings):
            argv = ["validate", "--order", "2", "--grid-points", "2000", "--mass", mass]
            code, out, err = run_cli(capsys, [*argv, "--omega", omega, "--v", *couplings])
            assert (code, err) == (0, "")
            result = json.loads(out)["oracle"]
            assert result["converged"]
            return result["energy"], result["residual"]

        with within_seconds(20):
            energy, error = level("1e-80", "1e-80", couplings)
        unit, unit_error = level("1", "1e-30", ["0"] * (k // 2 - 2) + ["1"])
        scale = 1e-80 ** (-k / (k + 2))
        assert abs(energy - scale * unit) <= error + scale * unit_error

    @pytest.mark.parametrize(
        "couplings, flags, message",
        [
            (["-1", "1"], [], "lies below the potential everywhere"),
            # With the box given as well the scan sizes nothing, and the
            # solver reports the bracket.
            (["-1", "1"], ["--r-max", "10"], "shows only 0 nodes"),
            (["1"], [], "lies below the potential everywhere"),
        ],
        ids=["scan-sizes-the-box", "box-given", "scan-above-floats"],
    )
    def test_user_bracket_on_an_overflowing_scan(self, capsys, couplings, flags, message):
        """m = omega = 1e-80: a scan from 1e-3 oscillator lengths overflowed
        (V_eff inf - inf, or at least 1e308 wherever finite).  From 1e-3
        coupling lengths it reaches the well, whose level, 2.6e60 or 5.2e53,
        lies far above the bracket (0, 5)."""
        argv = ["validate", "--order", "2", "--grid-points", "2000", "--mass", "1e-80"]
        argv += ["--omega", "1e-80", "--v", *couplings, "--bracket", "0", "5", *flags]
        result = run_cli(capsys, argv)
        assert result[:2] == (4, "")
        assert result[2].startswith(f"error: BracketingFailure: upper bracket energy 5.0 {message}")
        assert result[2].count("\n") == 1

    @pytest.mark.parametrize(
        "problem, solver, name",
        [
            # r^4 overflows on every point of the box's grid.
            (["--v", "1"], ["--r-max", "1e100", "--bracket", "0", "5"], "V_eff on the grid"),
            (["--v", "1"], ["--r-max", "1e100"], "V_eff on the grid"),
            # V_eff is finite on the grid, but x^4 in the start series at
            # r = 5e77 is not.
            (["--mass", "1e-10", "--omega", "1e-10"], ["--r-max", "1e81", "--bracket", "0", "5"],
             "start value r^(l+1)"),
        ],
        ids=["grid-overflow-bracket", "grid-overflow", "start-series-overflow"],
    )
    def test_solver_option_outside_the_float_range_is_config_error(
        self, capsys, problem, solver, name
    ):
        # Apart from test_parameter_outside_the_float_range_is_config_error:
        # `compute` refuses the solver flags, so it runs on the problem alone.
        argv = ["validate", "--order", "2", "--grid-points", "2000", *problem, *solver]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: ConfigError: {name} is out of the float range the solver works in\n"
        assert run_cli(capsys, ["compute", "--order", "2", *problem])[0] == 0

    def test_box_beyond_the_upper_turning_point_names_r_max(self, capsys):
        # The grid's lowest V_eff, 1.25e193 at r = 5e96, lies above the
        # default upper bracket end 14.5: the message is about --r-max, not
        # about a bracket the user never gave.
        argv = ["validate", "--order", "2", "--grid-points", "2000", "--r-max", "1e100"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "r_max" in err or "r-max" in err
        assert "bracket must satisfy" not in err

    def test_power_that_overflows_on_the_scan_is_silent(self, capsys):
        # v_25 r^52 overflows at the far end of the scan, where V_eff is inf
        # and the potential still confines: the solve succeeds, warning-free.
        argv = ["validate", "--order", "2", "--grid-points", "2000", "--v", *["0"] * 24, "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["oracle"]["converged"] is True

    @pytest.mark.parametrize("text", ["-2", "-0.5", "-1e9", "-2.5e-3", "-inf", "-Infinity", "-NaN"])
    def test_negative_float_forms_are_values(self, text):
        args = _build_parser().parse_args(["validate", "--bracket", text, "5"])
        assert repr(args.bracket) == repr([float(text), 5.0])

    def test_exponent_form_negative_is_a_value(self, capsys):
        argv = ["validate", "--grid-points", "4000", "--bracket"]
        exponent = run_cli(capsys, [*argv, "-1e3", "5"])
        assert exponent[0] == 0
        assert exponent == run_cli(capsys, [*argv, "-1000", "5"])

    def test_oracle_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["validate", "--order", "3", "--grid-points", "2000", "--bracket", "0", "0.5"],
        )
        assert code == 4
        assert "BracketingFailure" in err

    def solve_at_the_named_grid(self, capsys, quartic):
        """Solves 1/2 r^2 - 9 r^4 + quartic r^6, l = 1, at the grid that the
        default grid's OracleError names: its two finest rungs only, and two
        rungs make no triple, so the level comes without a claim of
        convergence."""
        argv = ["validate", "--v", "-9", quartic, "--l", "1", "--order", "2"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: OracleError: the 8000-point rung cannot count nodes")
        needed = int(err.split("about ")[1].split()[0])
        assert 21000 < needed < 22000 and "grid_points" in err
        code, out, _ = run_cli(capsys, [*argv, "--grid-points", str(needed)])
        solved = json.loads(out)["oracle"]
        assert code == 0 and solved["converged"] is False
        return solved

    def test_deep_well_names_the_grid_it_needs(self, capsys):
        # From the bracket's lower end, -1.08e6, the Numerov factor t on the
        # 8000-point rung peaks at 1.79 near the origin, so the sweep counts
        # spurious nodes; the error names the grid, not the bracket.  The
        # level is -1079596.0911600 at 32000 and 64000 points.
        solved = self.solve_at_the_named_grid(capsys, "1/100")
        assert abs(solved["energy"] + 1079596.09116) <= solved["residual"]

    def test_well_narrower_than_the_scan_steps_solves(self, capsys):
        # The scan's nearest point to the minimum of V_eff at r = 24.5 lies
        # 0.42% of r away and 232 above it, and the ground level lies 104
        # above it: a lower end at the scan's least V_eff already counts a
        # node.  The level is -1086806.9180867 at 44000 and 64000 points.
        solved = self.solve_at_the_named_grid(capsys, "3/301")
        assert abs(solved["energy"] + 1086806.91808667) <= solved["residual"]

    def test_grid_that_misses_the_well_keeps_the_scans_lower_end(self, capsys):
        # The 1000-point grid's lowest V_eff, -8663811.40, lies above the
        # upper bracket end, -8663829.118.  The bracket's lower end comes
        # from the scan, below its minimum -8663829.131, whatever the grid,
        # and the box was sized from the scan, so the solver names the grid it
        # needs, not r_max.
        argv = ["validate", "--mass", "7814000/19", "--omega", "7/6000", "--v", "-56375/608",
                "982/8411", "--n", "5", "--l", "2", "--grid-points", "1000", "--order", "2"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: OracleError: the 500-point rung cannot count nodes")
        assert "grid_points" in err and err.count("\n") == 1


class TestCheckHarmonic:
    def test_order_below_two_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, ["check-harmonic", "--order", "1"])
        assert (code, out) == (2, "")
        assert err == "error: ConfigError: order must be >= 2\n"

    def test_small_grid_passes(self, capsys):
        for bound, order in (("3", "6"), ("4", "40")):
            code, out, _ = run_cli(
                capsys, ["check-harmonic", "--max-n", bound, "--max-l", bound, "--order", order]
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
                self.table = table

            def row(self, k):
                head, *tail = self.table.row(k)
                return (head + (k == 2), *tail)

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

    def test_nonzero_tail_entry_is_located(self, capsys, monkeypatch):
        """A nonzero C[k][i] past the head column is reported at its column."""
        real_series = anharm.engine.compute_series

        class TailEntry:
            """The table with C[3][2] set to 1."""

            def __init__(self, table):
                self.table = table

            def row(self, k):
                row = self.table.row(k)
                return (*row[:2], Fraction(1), *row[3:]) if k == 3 else row

        def tampered_tail(potential, state, order, max_order=64):
            table, series = real_series(potential, state, order, max_order)
            return (TailEntry(table) if (state.n, state.l) == (1, 1) else table), series

        monkeypatch.setattr(anharm.engine, "compute_series", tampered_tail)
        code, out, _ = run_cli(
            capsys, ["check-harmonic", "--max-n", "2", "--max-l", "2", "--order", "5"]
        )
        assert (code, out) == (1, "FAIL (n=1, l=1, k=3): C[k][2] != 0\n")

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


def _fresh_python(*args):
    """A new interpreter on this checkout's `src`, the tests' directory on its path."""
    src = str(Path(anharm.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


def _assert_golden_without(modules, names):
    """CLI cases `names` render their golden files byte for byte through
    `render_cli` in a fresh interpreter in which `modules` cannot be imported."""
    script = f"""
        import json, sys
        for module in {list(modules)!r}:
            sys.modules[module] = None
        from golden_cases import render_cli

        rendered = {{}}
        for name in {list(names)!r}:
            rendered.update(render_cli(name))
        print(json.dumps(rendered))
    """
    proc = _fresh_python("-c", textwrap.dedent(script))
    assert proc.returncode == 0, proc.stderr
    rendered = json.loads(proc.stdout)
    assert all(f"{name}.txt" in rendered for name in names)
    for rel, text in rendered.items():
        assert text.encode() == (GOLDEN_DIR / rel).read_bytes(), rel


def test_commands_without_the_solver_run_without_numpy(monkeypatch):
    """compute and check-harmonic never load numpy: with numpy unimportable,
    their golden cases render byte for byte, and only the solver fails."""
    names = ["compute_pade_json", "compute_csv", "sweep", "check_harmonic"]
    _assert_golden_without(["numpy"], names)
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        anharm.default_config(anharm.make_potential(1, 1), anharm.make_state(0, 0))


def test_cold_start_needs_no_dataclasses():
    """Start-up loads neither `dataclasses` nor `inspect`, and each subcommand
    loads only the modules it runs: `import anharm.cli` leaves the solver,
    the resummation, the wavefunction module, numpy and `tempfile` unloaded,
    and `import anharm.oracle` then leaves the resummation unloaded still.
    With `dataclasses` unimportable, and with the modules a subcommand does
    not run unimportable too, compute (a success, an engine error and a
    resummation error), check-harmonic and validate render their golden
    transcripts byte for byte through `golden_cases.render_cli`, each in a
    fresh interpreter.  The lazy public names resolve to their modules' own
    objects."""
    unloaded = {"dataclasses", "inspect", "numpy", "tempfile", "anharm.oracle",
                "anharm.resummation", "anharm.wavefunction"}
    loaded = f"""
        import sys
        import anharm.cli
        print(sorted({unloaded!r} & set(sys.modules)))
        import anharm.oracle
        print("anharm.resummation" in sys.modules)
        import anharm
        star = {{}}
        exec("from anharm import *", star)
        from anharm import engine, model, oracle, resummation
        homes = [vars(module) for module in (engine, model, oracle, resummation)]
        print(all(
            star[name] is getattr(anharm, name) is next(h[name] for h in homes if name in h)
            for name in anharm.__all__
        ), anharm.solve_radial is oracle.solve_radial, anharm.OracleError is oracle.OracleError)
    """
    proc = _fresh_python("-S", "-c", textwrap.dedent(loaded))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\nTrue True True\n"
    blocked = {
        ("compute_pade_json", "error_engine", "error_pade"):
            ["anharm.oracle", "anharm.wavefunction"],
        ("check_harmonic",): ["anharm.oracle", "anharm.resummation"],
        ("validate_short_csv",): ["anharm.wavefunction"],
    }
    for names, modules in blocked.items():
        _assert_golden_without(["dataclasses", *modules], names)
