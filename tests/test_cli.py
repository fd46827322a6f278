"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voltmask.attack
import voltmask.cli
from voltmask import BatteryState, TimeSeries, save_csv, simulate, synthetic_profile
from voltmask.cli import _write_csv, main
from voltmask.ecm import _ocv_array, dump_params, load_params, state_matrices
from voltmask.scenario import load_scenario, prepare

ATTACK_HEADER = [
    "t",
    "u_nom",
    "u_a",
    "i_applied",
    "soc_nominal",
    "soc_attacked",
    "y_nom",
    "y_plant",
    "y_a",
    "y_measured",
]

SUMMARY_KEYS = {
    "attack_energy_A2s",
    "final_soc_attacked",
    "final_soc_nominal",
    "i_max_violated",
    "k_a",
    "ka_warning",
    "residual_max_V",
    "residual_rms_V",
    "soc_violation_attacked",
    "soc_violation_nominal",
}


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


def small_scenario(tmp_path, params_path, **overrides):
    raw = {
        "params_file": str(params_path),
        "dt": 1.0,
        "x0": {"soc": 0.7, "vc": 0.0},
        "profile": {
            "kind": "sin_mix",
            "amplitude": 2.0,
            "bias": 1.0,
            "duration": 300.0,
            "seed": 11,
        },
        "reference": {"soc_target": 0.6, "shape": "linear_ramp"},
        "weights": {"q1": [1e7, 0.0], "q2": [2e5, 0.0], "r": 1.0},
        "k_a": -0.05,
        "ka_values": [-0.1, 0.0, 0.1],
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestScenarioCommand:
    def test_writes_all_artifacts(self, tmp_path, params_path, capsys):
        config = small_scenario(tmp_path, params_path)
        out = tmp_path / "out"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 0

        header, data = read_rows(out / "attack.csv")
        assert header == ATTACK_HEADER
        assert data.shape == (301, 10)
        cols = {name: data[:, j] for j, name in enumerate(header)}
        np.testing.assert_array_equal(cols["i_applied"], cols["u_nom"] + cols["u_a"])
        np.testing.assert_array_equal(cols["y_measured"], cols["y_plant"] + cols["y_a"])

        ric_header, ric = read_rows(out / "riccati.csv")
        assert ric_header == ["t", "s11", "s12", "s22", "v1", "v2"]
        assert ric.shape == (301, 6)
        assert ric[-1, 1] == 1e7  # terminal condition lands in the file exactly

        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS
        assert summary["k_a"] == -0.05
        captured = capsys.readouterr()
        assert "final soc nominal" in captured.out

    def test_byte_identical_reruns(self, tmp_path, params_path):
        config = small_scenario(
            tmp_path,
            params_path,
            plant_overrides={"r0_ohm": 0.0162156, "noise_std": 0.001, "seed": 3},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scenario", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["scenario", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("attack.csv", "riccati.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_flag_overrides_noise_draw(self, tmp_path, params_path):
        config = small_scenario(
            tmp_path, params_path, plant_overrides={"noise_std": 0.001, "seed": 3}
        )
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["scenario", "--config", str(config), "--out", str(out1), "--seed", "9"])
        main(["scenario", "--config", str(config), "--out", str(out2), "--seed", "9"])
        main(["scenario", "--config", str(config), "--out", str(out3)])
        assert (out1 / "attack.csv").read_bytes() == (out2 / "attack.csv").read_bytes()
        assert (out1 / "attack.csv").read_bytes() != (out3 / "attack.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["sin_mix", "pulse_train", "constant"])
    def test_csv_profile_gives_the_synthetic_outputs(
        self, tmp_path, scenario_dir, params_path, kind
    ):
        # save_csv then load_csv gives the profile back bit for bit at dt = 1,
        # so a config that reads it from a file must write the same bytes
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        raw["profile"]["kind"] = kind
        synthetic = tmp_path / "synthetic.json"
        synthetic.write_text(json.dumps(raw))
        save_csv(prepare(load_scenario(synthetic)).u_nom, tmp_path / "u_nom.csv")
        raw["profile"] = {"csv": "u_nom.csv"}
        from_file = tmp_path / "from_file.json"
        from_file.write_text(json.dumps(raw))

        out1, out2 = tmp_path / "synthetic", tmp_path / "from_file"
        assert main(["scenario", "--config", str(synthetic), "--out", str(out1)]) == 0
        assert main(["scenario", "--config", str(from_file), "--out", str(out2)]) == 0
        for name in ("attack.csv", "riccati.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


    def test_outputs_do_not_depend_on_the_profile_start(self, tmp_path, params_path, capsys):
        # one profile at dt = 0.1 s written from t0 = 0 and from a Unix time,
        # where t0 + k*dt is inexact: only the t columns may differ; from
        # t0 = 1.7e9 s, the span of 2999 samples rounds to just under 2998 steps
        config = small_scenario(tmp_path, params_path, dt=0.1)
        samples = prepare(load_scenario(config)).u_nom.samples[:2999]
        outs = []
        for t0 in (0.0, 1.7e9):
            save_csv(TimeSeries(t0, 0.1, samples), tmp_path / f"u_{t0}.csv")
            config = small_scenario(tmp_path, params_path, dt=0.1, profile={"csv": f"u_{t0}.csv"})
            outs.append(tmp_path / f"out_{t0}")
            assert main(["scenario", "--config", str(config), "--out", str(outs[-1])]) == 0
        assert len(set(capsys.readouterr().out.splitlines())) == 1
        start, shifted = outs
        assert (start / "summary.json").read_bytes() == (shifted / "summary.json").read_bytes()
        for name in ("attack.csv", "riccati.csv"):
            header, want = read_rows(start / name)
            _, got = read_rows(shifted / name)
            # every sample of the profile loads back from either start
            assert header[0] == "t" and got.shape == want.shape == (samples.size, len(header))
            assert got[:, 1:].tobytes() == want[:, 1:].tobytes(), name
            np.testing.assert_array_equal(got[:, 0], 1.7e9 + 0.1 * np.arange(len(got)))


class TestSimulateCommand:
    def test_writes_nominal_trace(self, tmp_path, params_path, capsys):
        config = small_scenario(tmp_path, params_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        header, data = read_rows(out / "nominal.csv")
        assert header == ["t", "i", "soc", "vc", "v"]
        assert data.shape == (301, 5)
        assert data[0, 2] == 0.7
        assert "final soc" in capsys.readouterr().out

    def test_runaway_soc_prints_a_short_line(self, tmp_path, scenario_dir, params_path, capsys):
        # a capacity of 1e-300 A*s takes the SoC to about -4.3e303, which
        # fixed point would print with more than 300 digits
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        raw["plant_overrides"] = {"capacity_As": 1e-300}
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out == "final soc -4.296600e+303 (soc_violation=True)\n"


class TestSweepCommand:
    def test_sweep_outputs_and_argmin(self, tmp_path, params_path, capsys):
        config = small_scenario(
            tmp_path, params_path, plant_overrides={"r0_ohm": 0.0162156}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        header, data = read_rows(out / "sweep.csv")
        assert header == ["k_a", "residual_rms_V"]
        np.testing.assert_array_equal(data[:, 0], [-0.1, 0.0, 0.1])
        assert "argmin k_a" in capsys.readouterr().out

    def test_ka_flag_overrides_config(self, tmp_path, params_path):
        config = small_scenario(tmp_path, params_path)
        out = tmp_path / "out"
        # the = form lets the gain list start with a minus sign
        assert main(["sweep", "--config", str(config), "--out", str(out), "--ka=-0.2,0.2"]) == 0
        _, data = read_rows(out / "sweep.csv")
        np.testing.assert_array_equal(data[:, 0], [-0.2, 0.2])

    def test_sweep_reruns_match_bytes(self, tmp_path, params_path):
        config = small_scenario(
            tmp_path,
            params_path,
            plant_overrides={"r0_ohm": 0.0162156, "noise_std": 0.001, "seed": 5},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_row_at_k_a_is_the_scenario_residual(self, tmp_path, scenario_dir, params_path):
        # every gain is scored on the scenario's own noise draw
        raw = json.loads((scenario_dir / "tc1_mismatch.json").read_text())
        raw["params_file"] = str(params_path)
        raw["plant_overrides"].update(noise_std=1e-3, seed=7)
        config = tmp_path / "noisy.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scenario", "--config", str(config), "--out", str(out)]) == 0
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        _, rows = read_rows(out / "sweep.csv")
        assert raw["k_a"] in rows[:, 0]
        at_k_a = rows[rows[:, 0] == raw["k_a"], 1][0]
        assert repr(float(at_k_a)) == repr(summary["residual_rms_V"])

    def test_no_gains_anywhere_is_a_config_error(self, tmp_path, params_path, capsys):
        config = small_scenario(tmp_path, params_path, ka_values=[])
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "no gains to sweep" in capsys.readouterr().err

    def test_malformed_ka_flag(self, tmp_path, params_path, capsys):
        config = small_scenario(tmp_path, params_path)
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"), "--ka", "abc"])
        assert code == 2
        assert "--ka" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["scenario", "--config", str(missing), "--out", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_invalid_json_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["scenario", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_divergent_sweep_is_a_runtime_error(self, tmp_path, params_path, capsys):
        config = small_scenario(
            tmp_path,
            params_path,
            weights={"q1": [1e19, 0.0], "q2": [0.0, 0.0], "r": 1e-12},
        )
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_profile_csv_header_is_named(self, tmp_path, params_path, capsys):
        (tmp_path / "drive.csv").write_text("t,i\n0,1\n300,1\n")
        config = small_scenario(tmp_path, params_path, profile={"csv": "drive.csv"})
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "expected header 'time_s,value'" in err

    def test_oversized_grid_is_a_config_error(self, tmp_path, params_path, capsys):
        config = small_scenario(tmp_path, params_path, dt=1e-9)
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: profile: dt 1e-09 over 300.0 s gives ")
        assert "samples" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("duration", -5.0, "duration -5.0 is shorter than dt 1.0"),
            (
                "kind",
                "foo",
                "unknown profile kind 'foo'; expected constant, sin_mix, or pulse_train",
            ),
        ],
    )
    def test_bad_synthetic_profile_names_the_config(
        self, tmp_path, params_path, capsys, field, value, message
    ):
        profile = {"kind": "sin_mix", "amplitude": 2.0, "bias": 1.0, "duration": 300.0, "seed": 11}
        config = small_scenario(tmp_path, params_path, profile={**profile, field: value})
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {config}: profile: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_overflowing_synthetic_profile_is_named(
        self, tmp_path, scenario_dir, params_path, capsys
    ):
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        raw["profile"] = {
            "kind": "sin_mix",
            "amplitude": 1e308,
            "bias": 1e308,
            "duration": 2000.0,
            "seed": 3,
        }
        config = tmp_path / "tc1_overflow.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {config}: profile: sin_mix profile is not finite: "
            "amplitude 1e+308 and bias 1e+308 overflow\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_overflowing_profile_names_the_forcing(
        self, tmp_path, scenario_dir, params_path, capsys
    ):
        # the shipped weights with one profile sample of 1e308 A: S stays
        # finite and V overflows, so the forcing is named, not the weights
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        u_nom = prepare(load_scenario(scenario_dir / "tc1.json")).u_nom
        samples = u_nom.samples.copy()
        samples[100] = 1e308
        save_csv(u_nom.with_samples(samples), tmp_path / "huge.csv")
        config = tmp_path / "tc1_huge.json"
        config.write_text(json.dumps({**raw, "profile": {"csv": "huge.csv"}}))
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "runtime error: riccati sweep: the forcing overflowed at t=100.0 "
            "(profile or reference too large)\n"
        )
        assert list(out.iterdir()) == []

    @staticmethod
    def tc1_with_weights(tmp_path, scenario_dir, params_path, q1, q2):
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        raw["weights"] = {"q1": [q1, 0.0], "q2": [q2, 0.0], "r": 1.0}
        path = tmp_path / "tc1_stiff.json"
        path.write_text(json.dumps(raw))
        return path

    # On tc1 (Q = 14322 A s, dt = 1 s) q1 is the stationary S of the SoC
    # channel and q2 = (q1 / Q)**2 as the sweep rounds it, so S stays put
    # and the closed loop has h*lambda = sqrt(q2) / Q: stable for the RK4
    # sweep (up to about 2.785) but not for the zero-order hold (above 2).
    @pytest.mark.filterwarnings("error")
    def test_unstable_rollout_is_a_runtime_error(
        self, tmp_path, scenario_dir, params_path, capsys
    ):
        # h*lambda = 2.5: the rollout would overflow u_a to inf before the
        # horizon ends; the zero-order-hold check stops the run before it
        config = self.tc1_with_weights(
            tmp_path, scenario_dir, params_path, 512799210.0, 1281998025.0
        )
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: zero-order-hold closed loop is unstable")
        assert "spectral radius 1.5 > 1" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_summary_value_is_a_runtime_error(
        self, tmp_path, scenario_dir, params_path, capsys
    ):
        # h*lambda = 2.2: the rollout would stay finite (SoC near 6.5e151)
        # and the attack energy overflow; the zero-order-hold check stops
        # the run before either
        config = self.tc1_with_weights(
            tmp_path, scenario_dir, params_path, 451263304.8, 992779270.5600001
        )
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("runtime error: zero-order-hold closed loop is unstable")
        assert captured.out == ""
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        ("field", "value"), [("ocv", [1, 2]), ("capacity_As", True)]
    )
    def test_malformed_cell_file_names_the_field(
        self, tmp_path, params_path, capsys, field, value
    ):
        cell = json.loads(params_path.read_text())
        cell[field] = value
        bad_cell = tmp_path / "cell.json"
        bad_cell.write_text(json.dumps(cell))
        config = small_scenario(tmp_path, bad_cell)
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(field) in err

    def test_directory_as_config(self, tmp_path, scenario_dir, capsys):
        assert main(["scenario", "--config", str(scenario_dir), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(scenario_dir) in err

    def test_existing_file_as_out(self, tmp_path, scenario_dir, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        config = str(scenario_dir / "tc1.json")
        assert main(["scenario", "--config", config, "--out", str(afile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(afile) in err

    def test_out_below_a_file(self, tmp_path, scenario_dir, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        config = str(scenario_dir / "tc1.json")
        assert main(["scenario", "--config", config, "--out", str(afile / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(afile / "sub") in err

    @pytest.mark.parametrize(
        ("command", "config"),
        [
            ("scenario", "tc1_mismatch"),
            ("simulate", "tc1_mismatch"),
            ("sweep", "noise_free"),
            ("scenario", "noisy"),
        ],
    )
    def test_negative_seed_flag_is_named(
        self, tmp_path, scenario_dir, params_path, capsys, command, config
    ):
        if config == "tc1_mismatch":
            path = scenario_dir / "tc1_mismatch.json"
        else:
            noise = {"noise_std": 0.001, "seed": 3} if config == "noisy" else {}
            path = small_scenario(tmp_path, params_path, plant_overrides=noise)
        out = tmp_path / "o"
        argv = [command, "--config", str(path), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed must be a whole number, got -1")
        assert list(out.iterdir()) == []

    def test_out_of_range_x0_soc_default_is_named(self, tmp_path, params_path, capsys):
        config = small_scenario(tmp_path, params_path, x0={"soc": 1.5, "vc": 0.0})
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: reference: field 'soc_start' is absent")
        assert "x0.soc" in err and "1.5" in err

    def test_out_of_range_soc_target_is_named(self, tmp_path, params_path, capsys):
        reference = {"soc_target": 1.2, "shape": "linear_ramp"}
        config = small_scenario(tmp_path, params_path, reference=reference)
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"config error: {config}: reference: soc_target must lie in [0, 1], got 1.2\n"
        )

    def test_json_nested_too_deep(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["scenario", "--config", str(deep), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err and str(deep) in err

    # -- the stage rule: what fails while the inputs are read is exit 2,
    # what fails in the run on them is exit 3, whatever the exception type

    @pytest.mark.parametrize("error", [ValueError("bad value"), OSError("disk full")])
    def test_run_stage_error_is_a_runtime_error(
        self, tmp_path, params_path, capsys, monkeypatch, error
    ):
        def failing_run(prep):
            raise error

        monkeypatch.setattr(voltmask.cli, "run_scenario", failing_run)
        config = small_scenario(tmp_path, params_path)
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"runtime error: {error}\n"
        assert list(out.iterdir()) == []

    def test_load_stage_os_error_is_a_config_error(self, tmp_path, params_path, capsys):
        # the profile path exists but is a directory
        (tmp_path / "drive.csv").mkdir()
        config = small_scenario(tmp_path, params_path, profile={"csv": "drive.csv"})
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "drive.csv" in err

    @pytest.mark.parametrize("command", ["scenario", "sweep"])
    def test_gain_of_one_is_named_before_any_riccati_step(
        self, tmp_path, scenario_dir, params_path, capsys, monkeypatch, command
    ):
        steps = []
        sweep = voltmask.attack._sweep_backward
        monkeypatch.setattr(
            voltmask.attack, "_sweep_backward", lambda *args: steps.append(1) or sweep(*args)
        )
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        raw["k_a"] = 1
        config = tmp_path / "tc1_ka1.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: field 'k_a'") and "singular" in err
        assert steps == []
        assert list(out.iterdir()) == []

    def test_gain_of_one_in_ka_values_is_named(self, tmp_path, params_path, capsys):
        config = small_scenario(tmp_path, params_path, ka_values=[0.0, 1.0])
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: field 'ka_values'")

    @pytest.mark.parametrize("ka", ["0,1", "-0.5, 1.0", "nan", "1e999"])
    def test_ka_flag_of_one_or_not_finite_is_named(self, tmp_path, params_path, capsys, ka):
        config = small_scenario(tmp_path, params_path)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out), f"--ka={ka}"]) == 2
        assert capsys.readouterr().err.startswith("config error: --ka must be")
        assert list(out.iterdir()) == []

    def test_gain_near_one_exits_0_with_the_warning(self, tmp_path, params_path):
        # the noise gain 1 / |1 - k_a| is 1e9
        config = small_scenario(tmp_path, params_path, k_a=0.999999999)
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scenario", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["ka_warning"] is True

    def test_csv_profile_under_one_step_is_named(self, tmp_path, params_path, capsys):
        (tmp_path / "drive.csv").write_text("time_s,value\n0,1\n0.5,1\n")
        config = small_scenario(tmp_path, params_path, profile={"csv": "drive.csv"})
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {tmp_path / 'drive.csv'}: rows span 0.5 s")
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_sweep_leaving_the_psd_cone_is_a_runtime_error(self, tmp_path, params_path, capsys):
        # RK4 past its limit on a 4 A s cell: S11 runs 16, -5.33, -15.3, -9.3e3,
        # -3.4e45 and stays finite
        cell = json.loads(params_path.read_text())
        cell.update(capacity_As=4.0, r0_ohm=0.03125, r1_ohm=0.03125, c1_farad=50.0)
        (tmp_path / "cell4.json").write_text(json.dumps(cell))
        config = small_scenario(
            tmp_path,
            tmp_path / "cell4.json",
            profile={"kind": "constant", "amplitude": 0.0, "bias": 0.0, "duration": 4.0,
                     "seed": 0},
            weights={"q1": [16.0, 0.0], "q2": [0.0, 0.0], "r": 0.5},
        )
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "runtime error: riccati sweep left the positive semidefinite cone at t=3.0: "
            "s11 = -5.333333333333332 (weights too stiff for this grid step)\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("command", "h_lambda"), [("scenario", 2.05), ("scenario", 2.3), ("sweep", 2.3)]
    )
    def test_unstable_zero_order_hold_loop_writes_nothing(
        self, tmp_path, scenario_dir, params_path, capsys, command, h_lambda
    ):
        # q2 = (h*lambda * Q)**2 as rounded: without the zero-order-hold
        # check, 2.05 exits 0 with a SoC of 7.8e35, a 2.3 sweep writes inf
        # rows, and a 2.3 scenario leaves attack.csv and riccati.csv behind
        q = 14322.0
        config = self.tc1_with_weights(
            tmp_path, scenario_dir, params_path, h_lambda * q * q, (h_lambda * q) ** 2
        )
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("runtime error: zero-order-hold closed loop is unstable")
        rho = float(re.search(r"spectral radius (\S+) > 1", captured.err).group(1))
        assert rho == pytest.approx(h_lambda - 1.0, rel=1e-12)
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @staticmethod
    def tc1_with_capacity(tmp_path, scenario_dir, params_path, capacity):
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        raw["plant_overrides"] = {"capacity_As": capacity}
        path = tmp_path / "tc1_capacity.json"
        path.write_text(json.dumps(raw))
        return path

    # A plant of 1e-300 A s moves its SoC by about 1e300 per step: the
    # voltages stay finite and the residual's sum of squares overflows.
    @pytest.mark.filterwarnings("error")
    def test_non_finite_sweep_residual_is_named_and_writes_nothing(
        self, tmp_path, scenario_dir, params_path, capsys
    ):
        config = self.tc1_with_capacity(tmp_path, scenario_dir, params_path, 1e-300)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "runtime error: sweep.csv: residual_rms_V at k_a = -0.1 is not finite (inf)\n"
        )
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_non_finite_scenario_residual_writes_nothing(
        self, tmp_path, scenario_dir, params_path, capsys
    ):
        config = self.tc1_with_capacity(tmp_path, scenario_dir, params_path, 1e-300)
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "runtime error: summary.json: field 'residual_rms_V' is not finite (inf)\n"
        )
        assert captured.out == ""
        assert list(out.iterdir()) == []

    # At 1e-302 A s the plant's voltage is about -1e303 V one step in, and
    # the correction's 1 / (1 - k_a) = 1e9 carries it past the largest
    # float.  At 2e-304 A s and k_a = 0.5 the correction, about the plant
    # voltage, stays finite and its sum with the plant voltage overflows.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("command", "capacity", "k_a", "message"),
        [
            ("scenario", 1e-302, 0.999999999,
             "masking correction is not finite at t=1.0 (-inf V, k_a = 0.999999999)"),
            ("sweep", 1e-302, 0.999999999,
             "sweep.csv: residual_rms_V at k_a = -0.1 is not finite (inf)"),
            ("scenario", 2e-304, 0.5,
             "measured voltage is not finite at t=1890.0 (-inf V, k_a = 0.5)"),
        ],
        ids=["correction", "sweep", "measured"],
    )
    def test_overflowing_masking_correction_is_named(
        self, tmp_path, scenario_dir, params_path, capsys, command, capacity, k_a, message
    ):
        config = self.tc1_with_capacity(tmp_path, scenario_dir, params_path, capacity)
        raw = json.loads(config.read_text())
        raw["k_a"] = k_a
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "sweep":
            argv.append("--ka=-0.1,0.999999999")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"runtime error: {message}\n"
        assert captured.out == ""
        assert list(out.iterdir()) == []

    # At 1e-306 A s the SoC reaches about 1e307 and the OCV extrapolation
    # overflows the terminal voltage.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["simulate", "scenario", "sweep"])
    def test_overflowing_terminal_voltage_is_named(
        self, tmp_path, scenario_dir, params_path, capsys, command
    ):
        config = self.tc1_with_capacity(tmp_path, scenario_dir, params_path, 1e-306)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"runtime error: terminal voltage is not finite at t=\d+\.0 \(-inf V\)\n",
            captured.err,
        )
        assert captured.out == ""
        assert list(out.iterdir()) == []

    # A noise_std of 1e308 overflows the draw itself; at 1e300 the draw and
    # the voltages stay finite and the residual's sum of squares overflows.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("command", "noise_std", "message"),
        [
            ("scenario", 1e308, "noisy plant voltage is not finite at t=12.0 "
                                "(-inf V, noise_std = 1e+308)"),
            ("sweep", 1e308, "noisy plant voltage is not finite at t=12.0 "
                             "(-inf V, noise_std = 1e+308)"),
            ("scenario", 1e300, "summary.json: field 'residual_rms_V' is not finite (inf)"),
            ("sweep", 1e300, "sweep.csv: residual_rms_V at k_a = -0.1 is not finite (inf)"),
        ],
        ids=["scenario-1e308", "sweep-1e308", "scenario-1e300", "sweep-1e300"],
    )
    def test_overflowing_noise_is_named(
        self, tmp_path, scenario_dir, params_path, capsys, command, noise_std, message
    ):
        raw = json.loads((scenario_dir / "tc1.json").read_text())
        raw["params_file"] = str(params_path)
        raw["plant_overrides"] = {"noise_std": noise_std}
        config = tmp_path / "tc1_noisy.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"runtime error: {message}\n"
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_csv_cell_over_the_field_limit_is_named(self, tmp_path, params_path, capsys):
        (tmp_path / "drive.csv").write_text(f"time_s,value\n0,1\n300,{'9' * 140_000}\n")
        config = small_scenario(tmp_path, params_path, profile={"csv": "drive.csv"})
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {tmp_path / 'drive.csv'}: line 3: "
            "field larger than field limit (131072)\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("amp", "volts", "message"),
        [
            # the charge voltage falls as the SoC rises and the discharge
            # voltage rises, so the projection pools the whole curve and
            # the pool's sum overflows
            (0.2, (8e307, 4e307), "the ocv curve overflows: sweep voltages reach 8e+307 V"),
            # the average of the two sweeps overflows
            (0.2, (1.7e308, 1.7e308), "the ocv curve overflows: sweep voltages reach 1.7e+308 V"),
            # the coulomb count overflows, and its NaN step is named
            (1e308, None, "charge sweep SoC not strictly increasing at sample 3"),
        ],
        ids=["pool", "average", "count"],
    )
    def test_overflowing_ocv_extraction_is_named(
        self, tmp_path, params_path, cell, capsys, amp, volts, message
    ):
        # sweeps at +-amp A whose voltages are the cell's at +-0.2 A, or, when
        # volts is given, run from its first to its last value on charge
        # and back on discharge
        dt = 30.0
        n = int(cell.capacity_q / 0.2 / dt) + 1
        ocv = {"dt": dt}
        for name, sign, soc0 in (("charge", -1.0, 0.0), ("discharge", 1.0, 1.0)):
            current = TimeSeries(0.0, dt, np.full(n, sign * 0.2))
            voltage = simulate(cell, BatteryState(soc0, 0.0), current).voltage
            if volts is not None:
                ends = volts if name == "charge" else volts[::-1]
                voltage = voltage.with_samples(np.linspace(*ends, n))
            save_csv(current.with_samples(np.full(n, sign * amp)), tmp_path / f"{name}_i.csv")
            save_csv(voltage, tmp_path / f"{name}_v.csv")
            ocv |= {f"{name}_current_csv": f"{name}_i.csv", f"{name}_voltage_csv": f"{name}_v.csv"}
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), "ocv": ocv}))
        out = tmp_path / "o"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"runtime error: {message}\n"
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_missing_fit_record_is_named_by_its_field(self, tmp_path, params_path, capsys):
        rc = {"current_csv": "missing_i.csv", "voltage_csv": "missing_v.csv", "dt": 1.0}
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), "rc": rc}))
        out = tmp_path / "o"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: {config}: rc: current_csv not found: {tmp_path / 'missing_i.csv'}\n"
        )
        assert captured.out == ""
        assert list(out.iterdir()) == []

    # a path field that names a directory, or a start cell that is missing
    @pytest.mark.parametrize(
        ("command", "fields", "label", "target"),
        [
            ("scenario", None, "--config", "folder"),
            ("scenario", {"params_file": "folder"}, "params_file", "folder"),
            ("scenario", {"profile": {"csv": "folder"}}, "profile csv", "folder"),
            ("fit", {"initial_params_file": "folder"}, "initial_params_file", "folder"),
            ("fit", {"initial_params_file": "absent.json"}, "initial_params_file", "absent.json"),
            ("fit", {}, "rc: current_csv", "folder"),
        ],
        ids=["config", "params_file", "profile-csv", "initial_params_file", "missing-start-cell",
             "fit-record"],
    )
    def test_path_that_is_no_file_is_named_by_its_field(
        self, tmp_path, params_path, capsys, command, fields, label, target
    ):
        (tmp_path / "folder").mkdir()
        path = tmp_path / target
        kind = "is a directory" if path.exists() else "not found"
        if command == "scenario":
            config = small_scenario(tmp_path, params_path, **fields) if fields else path
        else:
            config = tmp_path / "fit.json"
            rc = {"current_csv": "folder", "voltage_csv": "v.csv", "dt": 1.0}
            raw = {"initial_params_file": str(params_path), "rc": rc, **fields}
            config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        if fields is None:
            assert captured.err == f"config error: {path}: is a directory\n"
        else:
            assert captured.err == f"config error: {config}: {label} {kind}: {path}\n"
        assert captured.out == ""
        assert list(out.iterdir()) == []

    # load_scenario reads every field before it loads the cell file, and
    # --seed is checked after load_scenario returns
    @pytest.mark.parametrize(
        ("fields", "argv", "message"),
        [
            ({"dt": -1.0}, [], "{config}: field 'dt' must be positive, got -1.0"),
            ({}, ["--seed", "-1"], "{cell}: missing key 'r1_ohm'"),
        ],
        ids=["field-before-cell", "cell-before-seed"],
    )
    def test_error_order_of_field_cell_file_and_seed(
        self, tmp_path, params_path, capsys, fields, argv, message
    ):
        cell = json.loads(params_path.read_text())
        del cell["r1_ohm"]
        bad_cell = tmp_path / "badcell.json"
        bad_cell.write_text(json.dumps(cell))
        config = small_scenario(tmp_path, bad_cell, **fields)
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out), *argv]) == 2
        expected = message.format(config=config, cell=bad_cell)
        assert capsys.readouterr().err == f"config error: {expected}\n"
        assert list(out.iterdir()) == []

    @settings(max_examples=25, deadline=None)
    @given(
        h_lambda=st.floats(0.5, 2.7).filter(lambda x: abs(x - 2.0) >= 1e-6),
    )
    def test_exit_3_exactly_when_the_zero_order_hold_loop_is_unstable(
        self, tmp_path_factory, scenario_dir, params_path, h_lambda
    ):
        # tc1 with q1 = h*lambda * Q**2 and q2 = (q1 b1)**2 as the sweep rounds
        # it, so that S stays at q1 over the whole horizon
        tmp_path = tmp_path_factory.mktemp("zoh")
        q = load_params(params_path).capacity_q
        b1 = float(state_matrices(load_params(params_path))[1][0])
        q1 = h_lambda * q * q
        config = self.tc1_with_weights(tmp_path, scenario_dir, params_path, q1, (q1 * b1) ** 2)
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["scenario", "--config", str(config), "--out", str(out)])
        assert code == (3 if h_lambda > 2.0 else 0)
        if code == 3:
            assert list(out.iterdir()) == []


def csv_module_bytes(path, header, columns):
    """What csv.writer writes for these columns, every cell the repr of a float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(columns[0])):
            writer.writerow([repr(float(col[k])) for col in columns])
    return path.read_bytes()


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 700])
def test_csv_writer_matches_csv_module_bytes(tmp_path, n):
    # values around chunk boundaries, with signed zeros, non-finite values,
    # tiny and huge magnitudes, and an integer column (written as floats);
    # the last five columns repeat values, so they are written by runs
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1])
    crossing = np.full(n, 2.5)
    crossing[250:301] = -1.25  # one run across the first chunk boundary
    crossing[::120] = rng.normal(0.0, 1.0, crossing[::120].size)
    nan_run = np.full(n, 0.3)
    nan_run[n // 3 : n // 2] = np.nan
    s = np.zeros((n, 2, 2))
    s[:, 0, 0] = np.repeat(rng.normal(0.0, 1.0, n // 20 + 1), 20)[:n]
    columns = [
        rng.normal(0.0, 1e3, n),
        np.resize(special, n),
        rng.normal(0.0, 1.0, (n, 3))[:, 1],
        np.arange(n),
        np.full(n, 0.1),
        crossing,
        np.resize([0.0, 0.0, -0.0, -0.0, 0.0], n),  # 0.0 next to -0.0, in runs
        nan_run,
        s[:, 0, 0],
    ]
    header = list("abcdefghi")
    _write_csv(tmp_path / "fast.csv", header, columns)
    expected = csv_module_bytes(tmp_path / "slow.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == expected


# few distinct values, among them the ones == confuses: 0.0 and -0.0 compare
# equal, and NaN compares unequal to itself
_RUN_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, -2.5]


@st.composite
def run_columns(draw):
    """Columns of runs of pool values, n near 0 and the chunk boundaries."""
    n = draw(st.sampled_from([0, 1, 2, 254, 255, 256, 257, 258]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        runs = draw(
            st.lists(
                st.tuples(st.sampled_from(_RUN_VALUES), st.integers(1, 60)),
                min_size=1,
                max_size=30,
            )
        )
        columns.append(np.resize(np.repeat([v for v, _ in runs], [k for _, k in runs]), n))
    return columns


@settings(max_examples=100, deadline=None)
@given(columns=run_columns())
@example(columns=[np.resize([0.0, 0.0, -0.0, -0.0, np.nan, np.nan], 257)])
def test_csv_writer_of_runs_matches_csv_module_bytes(tmp_path_factory, columns):
    tmp_path = tmp_path_factory.mktemp("runs")
    header = [f"c{k}" for k in range(len(columns))]
    _write_csv(tmp_path / "fast.csv", header, columns)
    expected = csv_module_bytes(tmp_path / "slow.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == expected


def test_csv_writer_holds_under_half_a_megabyte(tmp_path):
    # a scenario-long-sized attack.csv and riccati.csv: what the writer
    # holds is one chunk's texts, not a column's.  It peaks near 0.2 MB;
    # 1024-row chunks peak near 0.77 MB, and texts of whole run columns
    # near 1.7 MB.
    n = 50_001
    rng = np.random.default_rng(5)
    distinct = [rng.normal(0.0, 1.0, n) for _ in range(10)]
    s = np.zeros((n, 2, 2))
    s[:, 0, 0] = np.repeat(rng.normal(0.0, 1.0, n // 100 + 1), 100)[:n]
    runs = [np.arange(n, dtype=float), s[:, 0, 0], s[:, 0, 1], s[:, 1, 1], distinct[0], s[:, 1, 0]]
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "attack.csv", list("abcdefghij"), distinct)
        _write_csv(tmp_path / "riccati.csv", list("abcdef"), runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


class TestFitCommand:
    @pytest.fixture()
    def records(self, tmp_path, cell):
        """CSV records for both fit paths, generated from the true cell."""
        amp, dt = 0.2, 30.0
        n = int(cell.capacity_q / amp / dt) + 1
        chg_i = TimeSeries(0.0, dt, np.full(n, -amp))
        dis_i = TimeSeries(0.0, dt, np.full(n, amp))
        chg_v = simulate(cell, BatteryState(0.0, 0.0), chg_i).voltage
        dis_v = simulate(cell, BatteryState(1.0, 0.0), dis_i).voltage

        exc_i = synthetic_profile("sin_mix", 4.0, 0.5, 600.0, 2.0, seed=9)
        exc_v = simulate(cell, BatteryState(0.55, 0.0), exc_i).voltage

        names = {
            "chg_i.csv": chg_i,
            "chg_v.csv": chg_v,
            "dis_i.csv": dis_i,
            "dis_v.csv": dis_v,
            "exc_i.csv": exc_i,
            "exc_v.csv": exc_v,
        }
        for name, series in names.items():
            save_csv(series, tmp_path / name)
        return tmp_path

    def test_ocv_only(self, records, params_path, cell, capsys):
        config = records / "fit.json"
        config.write_text(
            json.dumps(
                {
                    "initial_params_file": str(params_path),
                    "ocv": {
                        "charge_current_csv": "chg_i.csv",
                        "charge_voltage_csv": "chg_v.csv",
                        "discharge_current_csv": "dis_i.csv",
                        "discharge_voltage_csv": "dis_v.csv",
                        "dt": 30.0,
                    },
                }
            )
        )
        out = records / "out"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        assert "ocv extraction only" in capsys.readouterr().out
        fitted = load_params(out / "fitted_params.json")
        grid = np.linspace(0.0, 1.0, 201)
        err = np.abs(_ocv_array(fitted.ocv, grid) - _ocv_array(cell.ocv, grid)).max()
        assert err <= 2e-3
        assert fitted.r0 == cell.r0  # scalar parameters untouched

    def test_rc_block_writes_report(self, records, cell, capsys):
        start = records / "start.json"
        dump_params(replace(cell, r0=cell.r0 * 1.5, r1=cell.r1 * 1.5, c1=cell.c1 * 1.5), start)
        config = records / "fit.json"
        config.write_text(
            json.dumps(
                {
                    "initial_params_file": str(start),
                    "rc": {
                        "current_csv": "exc_i.csv",
                        "voltage_csv": "exc_v.csv",
                        "dt": 2.0,
                        "frozen": ["capacity_q"],
                        "soc0": 0.55,
                    },
                }
            )
        )
        out = records / "out"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert set(report) == {
            "converged",
            "iterations",
            "rmse_V",
            "rmse_history",
            "damping_history",
        }
        assert report["converged"]
        assert report["rmse_V"] < 1e-8
        assert 0 < report["iterations"] == len(report["rmse_history"])
        assert len(report["damping_history"]) == report["iterations"]
        assert report["rmse_history"][-1] == report["rmse_V"]
        assert report["rmse_history"] == sorted(report["rmse_history"], reverse=True)
        assert "fit rmse" in capsys.readouterr().out

    def test_needs_at_least_one_block(self, records, params_path, capsys):
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path)}))
        assert main(["fit", "--config", str(config), "--out", str(records / "o")]) == 2
        assert "found neither" in capsys.readouterr().err

    def test_missing_record_file_is_named(self, records, params_path, capsys):
        config = records / "fit.json"
        config.write_text(
            json.dumps(
                {
                    "initial_params_file": str(params_path),
                    "rc": {"current_csv": "ghost.csv", "voltage_csv": "exc_v.csv", "dt": 2.0},
                }
            )
        )
        assert main(["fit", "--config", str(config), "--out", str(records / "o")]) == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_more_breakpoints_than_the_ocv_grid_is_named(self, records, params_path, capsys):
        ocv = {
            "charge_current_csv": "chg_i.csv",
            "charge_voltage_csv": "chg_v.csv",
            "discharge_current_csv": "dis_i.csv",
            "discharge_voltage_csv": "dis_v.csv",
            "dt": 30.0,
            "n_breakpoints": 2002,
        }
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), "ocv": ocv}))
        assert main(["fit", "--config", str(config), "--out", str(records / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "n_breakpoints" in err and "2001" in err
        assert not (records / "o" / "fitted_params.json").exists()

    def test_vc0_without_soc0_is_a_config_error(self, records, params_path, capsys):
        # without soc0 the fit inverts the start SoC and assumes vc = 0, so a
        # lone vc0 would be ignored
        config = records / "fit.json"
        rc = {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0, "vc0": 0.05}
        config.write_text(json.dumps({"initial_params_file": str(params_path), "rc": rc}))
        assert main(["fit", "--config", str(config), "--out", str(records / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'vc0'" in err and "'soc0'" in err
        assert not (records / "o" / "fitted_params.json").exists()

    OCV_BLOCK = {
        "charge_current_csv": "chg_i.csv",
        "charge_voltage_csv": "chg_v.csv",
        "discharge_current_csv": "dis_i.csv",
        "discharge_voltage_csv": "dis_v.csv",
        "dt": 30.0,
    }

    def run_fit(self, records, params_path, blocks):
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), **blocks}))
        out = records / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["fit", "--config", str(config), "--out", str(out)]), config, out

    def test_records_of_one_pair_on_different_grids_are_named(
        self, records, params_path, capsys
    ):
        # a charge voltage record one sample shorter than its current
        volts = np.loadtxt(records / "chg_v.csv", delimiter=",", skiprows=1)[:-1, 1]
        save_csv(TimeSeries(0.0, 30.0, volts), records / "chg_v.csv")
        code, config, out = self.run_fit(records, params_path, {"ocv": self.OCV_BLOCK})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: {config}: ocv: fields 'charge_current_csv' and "
            "'charge_voltage_csv' give different grids"
        )
        assert list(out.iterdir()) == []

    def test_too_few_breakpoints_win_over_a_missing_rc_record(
        self, records, params_path, capsys
    ):
        blocks = {
            "ocv": {**self.OCV_BLOCK, "n_breakpoints": 1},
            "rc": {"current_csv": "ghost.csv", "voltage_csv": "exc_v.csv", "dt": 2.0},
        }
        code, config, _ = self.run_fit(records, params_path, blocks)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {config}: ocv: field 'n_breakpoints' must be 2 to 2001, got 1\n"
        )

    def test_unknown_frozen_name_is_named(self, records, params_path, capsys):
        rc = {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0,
              "frozen": ["r0", "tau"]}
        code, config, out = self.run_fit(records, params_path, {"rc": rc})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: rc: field 'frozen' names ['tau']")
        assert list(out.iterdir()) == []

    def test_sweeps_that_do_not_cover_the_soc_range_are_a_runtime_error(
        self, records, params_path, capsys
    ):
        # the data, not the file, is at fault: the same sweeps at a third of
        # their length cover only a third of the SoC range
        for name in ("chg_i", "chg_v", "dis_i", "dis_v"):
            rows = (records / f"{name}.csv").read_text().splitlines()
            (records / f"{name}.csv").write_text("\n".join(rows[: len(rows) // 3]) + "\n")
        code, _, out = self.run_fit(records, params_path, {"ocv": self.OCV_BLOCK})
        assert code == 3
        assert capsys.readouterr().err.startswith("runtime error: sweeps cover only")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("error", [ValueError("bad value"), OSError("disk full")])
    def test_run_stage_error_is_a_runtime_error(
        self, records, params_path, capsys, monkeypatch, error
    ):
        def failing_fit(*args, **kwargs):
            raise error

        monkeypatch.setattr(voltmask.cli, "fit_rc", failing_fit)
        rc = {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0}
        code, _, out = self.run_fit(records, params_path, {"rc": rc})
        assert code == 3
        assert capsys.readouterr().err == f"runtime error: {error}\n"
        assert list(out.iterdir()) == []

    def test_record_path_of_a_directory_is_a_config_error(self, records, params_path, capsys):
        (records / "dir.csv").mkdir()
        rc = {"current_csv": "dir.csv", "voltage_csv": "exc_v.csv", "dt": 2.0}
        code, _, _ = self.run_fit(records, params_path, {"rc": rc})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "dir.csv" in err

    @staticmethod
    def run_fit_showing_warnings(records, params_path, blocks, capsys):
        """The fit's exit code and stderr, with every warning shown."""
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), **blocks}))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            status = main(["fit", "--config", str(config), "--out", str(records / "o")])
        return status, capsys.readouterr().err

    @staticmethod
    def ocv_sweeps(records, cell, amp, dt, r0_guess):
        """An ocv block of generated charge and discharge sweeps at +-amp."""
        n = int(cell.capacity_q / amp / dt) + 1
        for name, sign, soc0 in (("chg", -1.0, 0.0), ("dis", 1.0, 1.0)):
            current = TimeSeries(0.0, dt, np.full(n, sign * amp))
            save_csv(current, records / f"{name}_i.csv")
            voltage = simulate(cell, BatteryState(soc0, 0.0), current).voltage
            save_csv(voltage, records / f"{name}_v.csv")
        return {
            "charge_current_csv": "chg_i.csv",
            "charge_voltage_csv": "chg_v.csv",
            "discharge_current_csv": "dis_i.csv",
            "discharge_voltage_csv": "dis_v.csv",
            "dt": dt,
            "r0_guess": r0_guess,
        }

    def test_huge_r0_guess_warns_without_overflow_noise(self, records, params_path, cell, capsys):
        # at 4 A, |i| * r0 overflows to an infinite ohmic drop
        ocv = self.ocv_sweeps(records, cell, 4.0, 30.0, r0_guess=1e308)
        status, err = self.run_fit_showing_warnings(records, params_path, {"ocv": ocv}, capsys)
        assert status == 0
        assert err.startswith("warning: sweep current is not small: max |i|*r0 = inf V")
        assert err.count("\n") == 1

    def test_warning_is_one_line_on_stderr(self, records, params_path, cell, capsys):
        # 2 A through an r0_guess of 1 ohm: 2 V of ohmic drop
        ocv = self.ocv_sweeps(records, cell, 2.0, 10.0, r0_guess=1.0)
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), "ocv": ocv}))
        shown = warnings.showwarning
        assert main(["fit", "--config", str(config), "--out", str(records / "o")]) == 0
        assert capsys.readouterr().err == (
            "warning: sweep current is not small: max |i|*r0 = 2.0000 V "
            "of ohmic drop will bias the recovered curve\n"
        )
        assert warnings.showwarning is shown

    @pytest.mark.parametrize("field", ["soc0", "vc0"])
    def test_huge_start_state_fails_without_overflow_noise(
        self, records, params_path, capsys, field
    ):
        rc = {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0,
              "soc0": 0.55, "vc0": 0.0}
        rc[field] = 1e300
        status, err = self.run_fit_showing_warnings(records, params_path, {"rc": rc}, capsys)
        assert status == 3
        assert err.startswith("runtime error")
        assert "warning" not in err
        # the report is rejected before fitted_params.json is written
        assert not any((records / "o").iterdir())

    @pytest.mark.parametrize(
        ("block", "field", "value"),
        [
            ("rc", "soc0", [0.5]),
            ("rc", "soc0", "abc"),
            ("rc", "soc0", True),
            ("rc", "soc0", float("nan")),
            ("rc", "vc0", "0"),
            ("rc", "vc0", False),
            ("ocv", "n_breakpoints", "21"),
            ("ocv", "n_breakpoints", True),
            ("ocv", "n_breakpoints", 20.5),
            ("ocv", "r0_guess", [0.01]),
            ("ocv", "r0_guess", True),
            pytest.param("ocv", "r0_guess", 10**400, id="ocv-r0_guess-huge_int"),
        ],
    )
    def test_malformed_number_names_the_field(
        self, records, params_path, capsys, block, field, value
    ):
        blocks = {
            "ocv": {
                "charge_current_csv": "chg_i.csv",
                "charge_voltage_csv": "chg_v.csv",
                "discharge_current_csv": "dis_i.csv",
                "discharge_voltage_csv": "dis_v.csv",
                "dt": 30.0,
            },
            "rc": {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0, "soc0": 0.55},
        }
        blocks[block][field] = value
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), block: blocks[block]}))
        assert main(["fit", "--config", str(config), "--out", str(records / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{block}: field {field!r}" in err
        assert not (records / "o" / "fitted_params.json").exists()


@pytest.mark.parametrize(
    ("path", "value"),
    [
        (("profile", "duration"), [1]),
        (("reference", "soc_start"), [0.5]),
        (("reference", "soc_start"), None),
        (("profile", "amplitude"), True),
        (("reference", "soc_start"), True),
        (("weights", "q1"), [True, 0]),
        (("profile", "seed"), 1.7),
        (("profile", "seed"), -1),
        (("i_max",), math.nan),
        (("k_a",), math.inf),
        pytest.param(("dt",), 10**400, id="dt-huge_int"),
        (("plant_overrides", "seed"), -1),
        (("plant_overrides", "r0_ohm"), -0.01),
    ],
)
def test_scenario_field_of_wrong_kind_is_named(tmp_path, params_path, capsys, path, value):
    raw = json.loads(small_scenario(tmp_path, params_path).read_text())
    block = raw
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(path[-1]) in err


@pytest.mark.parametrize(
    ("field", "value"),
    [pytest.param("r0_ohm", 10**400, id="r0_ohm-huge_int"), ("capacity_As", -1.0)],
)
def test_cell_field_out_of_range_is_named(tmp_path, params_path, capsys, field, value):
    cell = json.loads(params_path.read_text())
    cell[field] = value
    bad_cell = tmp_path / "cell.json"
    bad_cell.write_text(json.dumps(cell))
    config = small_scenario(tmp_path, bad_cell)
    assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"field {field!r}" in err


# -- hostile values: any one field of a config file set to a value of the
# wrong kind or out of range must end in exit 0, 2 or 3, never a
# traceback, and an exit 2 must name the field (or, for a path, the path)

HOSTILE = st.one_of(
    st.sampled_from(
        ["abc", "0.5", True, False, None, [], [0.5], [True, 0], {}, {"x": 1}, math.nan,
         math.inf, -math.inf, 10**400, -(10**400)]
    ),
    st.integers(max_value=-1),
    st.floats(max_value=0.0, exclude_max=True, allow_nan=False, allow_infinity=False),
)

SCENARIO_FIELDS = [
    ("params_file",), ("dt",), ("x0",), ("x0", "soc"), ("x0", "vc"), ("profile",),
    ("profile", "kind"), ("profile", "amplitude"), ("profile", "bias"),
    ("profile", "duration"), ("profile", "seed"), ("reference",), ("reference", "soc_start"),
    ("reference", "soc_target"), ("reference", "shape"), ("weights",), ("weights", "q1"),
    ("weights", "q2"), ("weights", "r"), ("k_a",), ("i_max",), ("ka_values",),
    ("plant_overrides",), ("plant_overrides", "r0_ohm"), ("plant_overrides", "noise_std"),
    ("plant_overrides", "seed"),
]
CELL_FIELDS = [("capacity_As",), ("r0_ohm",), ("r1_ohm",), ("c1_farad",), ("ocv",)]
FIT_FIELDS = [
    ("initial_params_file",), ("ocv",), ("rc",), ("ocv", "dt"), ("ocv", "n_breakpoints"),
    ("ocv", "r0_guess"), ("ocv", "charge_current_csv"), ("ocv", "charge_voltage_csv"),
    ("ocv", "discharge_current_csv"), ("ocv", "discharge_voltage_csv"), ("rc", "dt"),
    ("rc", "current_csv"), ("rc", "voltage_csv"), ("rc", "frozen"), ("rc", "soc0"), ("rc", "vc0"),
]
TARGETS = (
    [("scenario", path) for path in SCENARIO_FIELDS]
    + [("cell", path) for path in CELL_FIELDS]
    + [("fit", path) for path in FIT_FIELDS]
)


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory, params_path):
    """A 20 s scenario, its cell file, and a fit config on short records."""
    work = tmp_path_factory.mktemp("hostile")
    cell = load_params(params_path)
    (work / "cell.json").write_text(params_path.read_text())
    scenario = {
        "params_file": "cell.json",
        "dt": 1.0,
        "x0": {"soc": 0.7, "vc": 0.0},
        "profile": {"kind": "sin_mix", "amplitude": 2.0, "bias": 1.0, "duration": 20.0,
                    "seed": 11},
        "reference": {"soc_target": 0.69, "shape": "linear_ramp", "soc_start": 0.7},
        "weights": {"q1": [1e7, 0.0], "q2": [2e5, 0.0], "r": 1.0},
        "k_a": -0.05,
        "i_max": 30.0,
        "ka_values": [-0.1, 0.0],
        "plant_overrides": {"r0_ohm": 0.0162156, "noise_std": 0.001, "seed": 3},
    }
    n, dt = 21, 60.0
    amp = cell.capacity_q / (dt * (n - 1))  # the sweeps span the whole SoC range
    for name, current, soc0 in (("chg", -amp, 0.0), ("dis", amp, 1.0)):
        series = TimeSeries(0.0, dt, np.full(n, current))
        save_csv(series, work / f"{name}_i.csv")
        save_csv(simulate(cell, BatteryState(soc0, 0.0), series).voltage, work / f"{name}_v.csv")
    exc_i = synthetic_profile("sin_mix", 4.0, 0.5, 40.0, 2.0, seed=9)
    save_csv(exc_i, work / "exc_i.csv")
    save_csv(simulate(cell, BatteryState(0.55, 0.0), exc_i).voltage, work / "exc_v.csv")
    fit = {
        "initial_params_file": "cell.json",
        "ocv": {"charge_current_csv": "chg_i.csv", "charge_voltage_csv": "chg_v.csv",
                "discharge_current_csv": "dis_i.csv", "discharge_voltage_csv": "dis_v.csv",
                "dt": dt, "n_breakpoints": 5, "r0_guess": 0.0},
        "rc": {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0,
               "frozen": ["capacity_q"], "soc0": 0.55, "vc0": 0.0},
    }
    (work / "scenario.json").write_text(json.dumps(scenario))
    (work / "fit.json").write_text(json.dumps(fit))
    scenario["params_file"] = "case_cell.json"
    (work / "scenario_on_case_cell.json").write_text(json.dumps(scenario))
    for command, config in (("scenario", "scenario.json"), ("fit", "fit.json")):
        out = str(work / "out")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(work / config), "--out", out]) == 0
    return work


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(TARGETS), value=HOSTILE)
def test_hostile_field_value_never_raises(hostile_dir, target, value):
    kind, path = target
    raw = json.loads((hostile_dir / f"{kind}.json").read_text())
    block = raw
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    (hostile_dir / f"case_{kind}.json").write_text(json.dumps(raw))
    command, config = {
        "scenario": ("scenario", "case_scenario.json"),
        "cell": ("scenario", "scenario_on_case_cell.json"),
        "fit": ("fit", "case_fit.json"),
    }[kind]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(hostile_dir / config), "--out", str(hostile_dir / "o")])
    assert code in (0, 2, 3)
    if code == 2:
        message = err.getvalue()
        assert path[-1] in message or (isinstance(value, str) and value in message), message
