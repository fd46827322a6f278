"""Command-line behavior: outputs, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from voltmask import BatteryState, TimeSeries, save_csv, simulate, synthetic_profile
from voltmask.cli import _write_csv, main
from voltmask.ecm import _ocv_array, load_params

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

    def test_rc_block_writes_report(self, records, params_path, capsys):
        config = records / "fit.json"
        config.write_text(
            json.dumps(
                {
                    "initial_params_file": str(params_path),
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
        assert set(report) == {"converged", "iterations", "rmse_V"}
        assert report["converged"]
        assert report["rmse_V"] < 1e-8
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
