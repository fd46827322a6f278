"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltmask import BatteryState, TimeSeries, save_csv, simulate, synthetic_profile
from voltmask.cli import _write_csv, main
from voltmask.ecm import _ocv_array, dump_params, load_params
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
        assert "config error" in err and "dt 1e-09" in err and "samples" in err

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
        # h*lambda = 2.5: u_a overflows to inf before the horizon ends
        config = self.tc1_with_weights(
            tmp_path, scenario_dir, params_path, 512799210.0, 1281998025.0
        )
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: closed-loop rollout diverged at t=")
        assert not (out / "summary.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_summary_value_is_a_runtime_error(
        self, tmp_path, scenario_dir, params_path, capsys
    ):
        # h*lambda = 2.2: the rollout stays finite (SoC near 6.5e151) but
        # the attack energy overflows
        config = self.tc1_with_weights(
            tmp_path, scenario_dir, params_path, 451263304.8, 992779270.5600001
        )
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "runtime error" in captured.err and "'attack_energy_A2s'" in captured.err
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


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 700])
def test_csv_writer_matches_csv_module_bytes(tmp_path, n):
    # values around chunk boundaries, with signed zeros, non-finite values,
    # tiny and huge magnitudes, and an integer column (written as floats)
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1])
    columns = [
        rng.normal(0.0, 1e3, n),
        np.resize(special, n),
        rng.normal(0.0, 1.0, (n, 3))[:, 1],
        np.arange(n),
    ]
    header = ["a", "b", "c", "d"]
    _write_csv(tmp_path / "fast.csv", header, columns)
    with open(tmp_path / "slow.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(n):
            writer.writerow([repr(float(col[k])) for col in columns])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


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

    @staticmethod
    def run_fit_catching_warnings(records, params_path, blocks):
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), **blocks}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main(["fit", "--config", str(config), "--out", str(records / "o")])
        return status, [w.category for w in caught]

    def test_huge_r0_guess_warns_without_overflow_noise(self, records, params_path, cell):
        # at 4 A, |i| * r0 overflows to an infinite ohmic drop
        amp, dt = 4.0, 30.0
        n = int(cell.capacity_q / amp / dt) + 1
        for name, sign, soc0 in (("chg", -1.0, 0.0), ("dis", 1.0, 1.0)):
            current = TimeSeries(0.0, dt, np.full(n, sign * amp))
            save_csv(current, records / f"{name}_i.csv")
            voltage = simulate(cell, BatteryState(soc0, 0.0), current).voltage
            save_csv(voltage, records / f"{name}_v.csv")
        ocv = {
            "charge_current_csv": "chg_i.csv",
            "charge_voltage_csv": "chg_v.csv",
            "discharge_current_csv": "dis_i.csv",
            "discharge_voltage_csv": "dis_v.csv",
            "dt": dt,
            "r0_guess": 1e308,
        }
        status, categories = self.run_fit_catching_warnings(records, params_path, {"ocv": ocv})
        assert status == 0
        assert categories == [UserWarning]

    @pytest.mark.parametrize("field", ["soc0", "vc0"])
    def test_huge_start_state_fails_without_overflow_noise(
        self, records, params_path, capsys, field
    ):
        rc = {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0,
              "soc0": 0.55, "vc0": 0.0}
        rc[field] = 1e300
        status, categories = self.run_fit_catching_warnings(records, params_path, {"rc": rc})
        assert status == 3
        assert "runtime error" in capsys.readouterr().err
        assert not any(issubclass(c, RuntimeWarning) for c in categories)
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
    ("ocv", "r0_guess"), ("ocv", "charge_voltage_csv"), ("rc", "dt"), ("rc", "current_csv"),
    ("rc", "frozen"), ("rc", "soc0"), ("rc", "vc0"),
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
