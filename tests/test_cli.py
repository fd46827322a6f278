"""Command-line behavior: outputs, determinism, and the exit codes no row states.

Every exit 2 and exit 3 case is a row of test_faults.py.  The rows whose
cases were first written out here also run here, through test_faults.run,
under the names those tests had.  Beyond them, here are each command's
outputs and their bytes over reruns, seeds and gain lists;
the stage rule (what is raised while the run is on is exit 3, whatever
its type) on patched run functions; the warnings of runs that exit 0;
the property that a scenario exits 3 exactly when its zero-order-hold
loop is unstable; and the hostile fuzz, which sets any field of the
three config files to a hostile value or draws an unknown key into any
of their blocks.  The cases start from conftest.py's workspace.

The CSV writer is held to the csv module's bytes: on example columns
around its 256-row chunk, and by a property on columns drawn as runs
from a small pool of values (0.0 next to -0.0, NaN, infinities, the
smallest subnormal), with 0 to 2 and 254 to 258 rows.  Its traced
memory peak stays under 0.5 MB on a 50 001-row file of 10 distinct
columns and one of run columns.
"""

import contextlib
import csv
import io
import json
import math
import shutil
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import test_faults
from conftest import patched
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import voltmask.scenario
import voltmask.sysid
from voltmask import (
    BatteryState,
    TimeSeries,
    save_csv,
    simulate,
    synthesize_input_attack,
    synthetic_profile,
)
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


# tc1 cut to 300 s
SHORT = {"profile.duration": 300.0}


@pytest.fixture()
def fault(make_case, monkeypatch, capsys):
    """A function that runs the row of test_faults.py with an id, as test_fault does."""
    return lambda row: test_faults.run(test_faults.BY_ID[row], make_case, monkeypatch, capsys)


def faults(cases):
    """Parametrize a test over rows of test_faults.py: cases maps a test id to a row id."""
    return pytest.mark.parametrize("row", list(cases.values()), ids=list(cases))


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


class TestScenarioCommand:
    def test_writes_all_artifacts(self, tmp_path, make_case, capsys):
        config = make_case(SHORT)
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

    def test_byte_identical_reruns(self, tmp_path, make_case):
        config = make_case(
            {**SHORT, "plant_overrides": {"r0_ohm": 0.0162156, "noise_std": 0.001, "seed": 3}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scenario", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["scenario", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("attack.csv", "riccati.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_flag_overrides_noise_draw(self, tmp_path, make_case):
        config = make_case({**SHORT, "plant_overrides": {"noise_std": 0.001, "seed": 3}})
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["scenario", "--config", str(config), "--out", str(out1), "--seed", "9"])
        main(["scenario", "--config", str(config), "--out", str(out2), "--seed", "9"])
        main(["scenario", "--config", str(config), "--out", str(out3)])
        assert (out1 / "attack.csv").read_bytes() == (out2 / "attack.csv").read_bytes()
        assert (out1 / "attack.csv").read_bytes() != (out3 / "attack.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["sin_mix", "pulse_train", "constant"])
    def test_csv_profile_gives_the_synthetic_outputs(self, tmp_path, make_case, kind):
        # save_csv then load_csv gives the profile back bit for bit at dt = 1,
        # so a config that reads it from a file must write the same bytes
        synthetic = make_case({"profile.kind": kind}, name="synthetic.json")
        save_csv(prepare(load_scenario(synthetic)).u_nom, synthetic.parent / "u_nom.csv")
        from_file = make_case({"profile": {"csv": "u_nom.csv"}}, name="from_file.json")

        out1, out2 = tmp_path / "synthetic", tmp_path / "from_file"
        assert main(["scenario", "--config", str(synthetic), "--out", str(out1)]) == 0
        assert main(["scenario", "--config", str(from_file), "--out", str(out2)]) == 0
        for name in ("attack.csv", "riccati.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_vc_weighted_run_writes_the_library_injection(self, tmp_path, make_case):
        # no shipped scenario weights vc: weights that do take the sweep's
        # five-scalar path, and the CLI writes its injection bit for bit
        config = make_case({"weights.q1": [1e7, 1e3], "weights.q2": [2e5, 50.0]})
        out = tmp_path / "out"
        assert main(["scenario", "--config", str(config), "--out", str(out)]) == 0
        header, ric = read_rows(out / "riccati.csv")
        for name in ("s12", "s22", "v2"):
            assert ric[:, header.index(name)].any(), name
        prep = prepare(load_scenario(config))
        atk = synthesize_input_attack(
            prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0, prep.i_max
        )
        header, data = read_rows(out / "attack.csv")
        assert data[:, header.index("u_a")].tobytes() == atk.u_a.samples.tobytes()

    def test_outputs_do_not_depend_on_the_profile_start(self, tmp_path, make_case, capsys):
        # one profile at dt = 0.1 s written from t0 = 0 and from a Unix time,
        # where t0 + k*dt is inexact: only the t columns may differ; from
        # t0 = 1.7e9 s, the span of 2999 samples rounds to just under 2998 steps
        config = make_case({**SHORT, "dt": 0.1})
        samples = prepare(load_scenario(config)).u_nom.samples[:2999]
        outs = []
        for t0 in (0.0, 1.7e9):
            save_csv(TimeSeries(t0, 0.1, samples), config.parent / f"u_{t0}.csv")
            config = make_case({"dt": 0.1, "profile": {"csv": f"u_{t0}.csv"}})
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
    def test_writes_nominal_trace(self, tmp_path, make_case, capsys):
        config = make_case(SHORT)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        header, data = read_rows(out / "nominal.csv")
        assert header == ["t", "i", "soc", "vc", "v"]
        assert data.shape == (301, 5)
        assert data[0, 2] == 0.8
        assert "final soc" in capsys.readouterr().out

    def test_runaway_soc_prints_a_short_line(self, tmp_path, make_case, capsys):
        # a capacity of 1e-300 A*s takes the SoC to about -4.3e303, which
        # fixed point would print with more than 300 digits
        config = make_case({"plant_overrides": {"capacity_As": 1e-300}})
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out == "final soc -4.296600e+303 (soc_violation=True)\n"


class TestSweepCommand:
    def test_sweep_outputs_and_argmin(self, tmp_path, make_case, capsys):
        config = make_case({**SHORT, "plant_overrides": {"r0_ohm": 0.0162156}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        header, data = read_rows(out / "sweep.csv")
        assert header == ["k_a", "residual_rms_V"]
        np.testing.assert_array_equal(data[:, 0], [-0.1, -0.05, 0.0, 0.05, 0.1])
        assert "argmin k_a" in capsys.readouterr().out

    def test_ka_flag_overrides_config(self, tmp_path, make_case):
        config = make_case(SHORT)
        out = tmp_path / "out"
        # the = form lets the gain list start with a minus sign
        assert main(["sweep", "--config", str(config), "--out", str(out), "--ka=-0.2,0.2"]) == 0
        _, data = read_rows(out / "sweep.csv")
        np.testing.assert_array_equal(data[:, 0], [-0.2, 0.2])

    def test_signed_zero_gains_give_the_same_bytes_in_either_order(
        self, tmp_path, make_case, capsys
    ):
        # -0.0 sorts before 0.0 and wins their tie, whichever comes first
        config = make_case({"plant_overrides": {"r0_ohm": 0.0162156}})
        outputs = []
        for ka in ("0,-0", "-0,0"):
            out = tmp_path / ka
            assert main(["sweep", "--config", str(config), "--out", str(out), f"--ka={ka}"]) == 0
            outputs.append(((out / "sweep.csv").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].startswith("argmin k_a = -0.0 ")

    def test_sweep_reruns_match_bytes(self, tmp_path, make_case):
        config = make_case(
            {**SHORT, "plant_overrides": {"r0_ohm": 0.0162156, "noise_std": 0.001, "seed": 5}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_row_at_k_a_is_the_scenario_residual(self, tmp_path, make_case):
        # every gain is scored on the scenario's own noise draw
        overrides = {"r0_ohm": 0.0162156, "noise_std": 1e-3, "seed": 7}
        config = make_case({"plant_overrides": overrides})
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scenario", "--config", str(config), "--out", str(out)]) == 0
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        _, rows = read_rows(out / "sweep.csv")
        assert -0.05 in rows[:, 0]
        at_k_a = rows[rows[:, 0] == -0.05, 1][0]
        assert repr(float(at_k_a)) == repr(summary["residual_rms_V"])

    # -- the sweep's fault rows that were written out here (see TestExitCodes)

    def test_malformed_ka_flag(self, fault):
        fault("ka-flag-'abc'")

    def test_no_gains_anywhere_is_a_config_error(self, fault):
        fault("ka_values-empty")


class TestExitCodes:
    """What the fault table (test_faults.py) cannot state as a row, and the
    table's rows first written out here."""

    # -- the stage rule: what fails while the inputs are read is exit 2,
    # what fails in the run on them is exit 3, whatever the exception type

    @pytest.mark.parametrize("error", [ValueError("bad value"), OSError("disk full")])
    def test_run_stage_error_is_a_runtime_error(
        self, tmp_path, make_case, capsys, monkeypatch, error
    ):
        def failing_run(prep):
            raise error

        monkeypatch.setattr(voltmask.scenario, "run_scenario", failing_run)
        out = tmp_path / "o"
        assert main(["scenario", "--config", str(make_case(SHORT)), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"runtime error: {error}\n"
        assert list(out.iterdir()) == []

    def test_gain_near_one_exits_0_with_the_warning(self, tmp_path, make_case):
        # the noise gain 1 / |1 - k_a| is 1e9
        config = make_case({**SHORT, "k_a": 0.999999999})
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scenario", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["ka_warning"] is True

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        h_lambda=st.floats(0.5, 2.7).filter(lambda x: abs(x - 2.0) >= 1e-6),
    )
    def test_exit_3_exactly_when_the_zero_order_hold_loop_is_unstable(
        self, make_case, cell, h_lambda
    ):
        # tc1 with q1 = h*lambda * Q**2 and q2 = (q1 b1)**2 as the sweep rounds
        # it, so that S stays at q1 over the whole horizon
        q1 = h_lambda * cell.capacity_q * cell.capacity_q
        b1 = float(state_matrices(cell)[1][0])
        config = make_case({"weights": {"q1": [q1, 0.0], "q2": [(q1 * b1) ** 2, 0.0], "r": 1.0}})
        out = config.parent / "o"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["scenario", "--config", str(config), "--out", str(out)])
        assert code == (3 if h_lambda > 2.0 else 0)
        if code == 3:
            assert list(out.iterdir()) == []

    # -- the fault table's rows first written out here, each run under the
    # name it had here; test_faults.py states what each one checks

    @faults({
        "duration--5.0-duration -5.0 is shorter than dt 1.0": "profile-duration-below-dt",
        "kind-foo-unknown profile kind 'foo'; expected constant, sin_mix, or pulse_train":
            "profile-kind-unknown",
    })
    def test_bad_synthetic_profile_names_the_config(self, fault, row):
        fault(row)

    def test_csv_cell_over_the_field_limit_is_named(self, fault):
        fault("profile-csv-cell-over-field-limit")

    def test_csv_profile_under_one_step_is_named(self, fault):
        fault("profile-csv-under-one-step")

    def test_directory_as_config(self, fault):
        fault("config-directory")

    def test_divergent_sweep_is_a_runtime_error(self, fault):
        fault("riccati-diverges")

    @faults({
        "cell-before-seed": "cell-before-seed",
        "field-before-cell": "field-before-cell",
    })
    def test_error_order_of_field_cell_file_and_seed(self, fault, row):
        fault(row)

    def test_existing_file_as_out(self, fault):
        fault("out-is-a-file")

    def test_gain_of_one_in_ka_values_is_named(self, fault):
        fault("ka_values-one")

    @faults({
        "scenario": "k_a-one-scenario",
        "sweep": "k_a-one-sweep",
    })
    def test_gain_of_one_is_named_before_any_riccati_step(self, fault, row):
        fault(row)

    def test_invalid_json_is_a_config_error(self, fault):
        fault("config-invalid-json")

    def test_json_nested_too_deep(self, fault):
        fault("config-nested-too-deep")

    @faults({
        " , ": "ka-flag-' , '",
        ",": "ka-flag-','",
        "-0.5, 1.0": "ka-flag-'-0.5, 1.0'",
        "0,1": "ka-flag-'0,1'",
        "0.1,,0.2": "ka-flag-'0.1,,0.2'",
        "1e999": "ka-flag-'1e999'",
        "": "ka-flag-''",
        "nan": "ka-flag-'nan'",
    })
    def test_ka_flag_of_one_or_not_finite_is_named(self, fault, row):
        fault(row)

    def test_load_stage_os_error_is_a_config_error(self, fault):
        fault("profile-csv-directory")

    @faults({
        "capacity_As-True": "cell-capacity-bool",
        "ocv-value0": "cell-ocv-not-pairs",
    })
    def test_malformed_cell_file_names_the_field(self, fault, row):
        fault(row)

    def test_missing_config_names_the_path(self, fault):
        fault("config-absent")

    def test_missing_fit_record_is_named_by_its_field(self, fault):
        fault("fit-record-absent")

    @faults({
        "scenario-noisy": "seed-negative-noisy",
        "scenario-tc1_mismatch": "seed-negative-scenario",
        "simulate-tc1_mismatch": "seed-negative-simulate",
        "sweep-noise_free": "seed-negative-sweep",
    })
    def test_negative_seed_flag_is_named(self, fault, row):
        fault(row)

    def test_non_finite_scenario_residual_writes_nothing(self, fault):
        fault("residual-overflows-scenario")

    def test_non_finite_summary_value_is_a_runtime_error(self, fault):
        fault("zoh-scenario-2.2")

    def test_non_finite_sweep_residual_is_named_and_writes_nothing(self, fault):
        fault("residual-overflows-sweep")

    def test_out_below_a_file(self, fault):
        fault("out-below-a-file")

    def test_out_of_range_soc_target_is_named(self, fault):
        fault("soc-target-out-of-range")

    def test_out_of_range_x0_soc_default_is_named(self, fault):
        fault("x0-soc-out-of-range-as-soc-start")

    @faults({
        "correction": "masking-correction-overflows",
        "measured": "measured-voltage-overflows",
        "sweep": "masking-correction-overflows-sweep",
    })
    def test_overflowing_masking_correction_is_named(self, fault, row):
        fault(row)

    @faults({
        "scenario-1e300": "noise-1e300-scenario",
        "scenario-1e308": "noise-1e308-scenario",
        "sweep-1e300": "noise-1e300-sweep",
        "sweep-1e308": "noise-1e308-sweep",
    })
    def test_overflowing_noise_is_named(self, fault, row):
        fault(row)

    @faults({
        "average": "fit-ocv-average-overflows",
        "count": "fit-ocv-count-overflows",
        "pool": "fit-ocv-pool-overflows",
    })
    def test_overflowing_ocv_extraction_is_named(self, fault, row):
        fault(row)

    def test_overflowing_profile_names_the_forcing(self, fault):
        fault("riccati-forcing-overflows")

    def test_overflowing_synthetic_profile_is_named(self, fault):
        fault("profile-overflows")

    @faults({
        "scenario": "terminal-voltage-overflows-scenario",
        "simulate": "terminal-voltage-overflows-simulate",
        "sweep": "terminal-voltage-overflows-sweep",
    })
    def test_overflowing_terminal_voltage_is_named(self, fault, row):
        fault(row)

    def test_oversized_grid_is_a_config_error(self, fault):
        fault("profile-grid-too-large")

    @faults({
        "config": "config-directory",
        "fit-record": "fit-record-directory",
        "initial_params_file": "fit-start-cell-directory",
        "missing-start-cell": "fit-start-cell-absent",
        "params_file": "params-file-directory",
        "profile-csv": "profile-csv-directory",
    })
    def test_path_that_is_no_file_is_named_by_its_field(self, fault, row):
        fault(row)

    def test_profile_csv_header_is_named(self, fault):
        fault("profile-csv-header")

    def test_sweep_leaving_the_psd_cone_is_a_runtime_error(self, fault):
        fault("riccati-leaves-psd-cone")

    def test_unstable_rollout_is_a_runtime_error(self, fault):
        fault("zoh-scenario-2.5")

    @faults({
        "scenario-2.05": "zoh-scenario-2.05",
        "scenario-2.3": "zoh-scenario-2.3",
        "sweep-2.3": "zoh-sweep-2.3",
    })
    def test_unstable_zero_order_hold_loop_writes_nothing(self, fault, row):
        fault(row)


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


OCV_BLOCK = {
    "charge_current_csv": "chg_i.csv",
    "charge_voltage_csv": "chg_v.csv",
    "discharge_current_csv": "dis_i.csv",
    "discharge_voltage_csv": "dis_v.csv",
    "dt": 30.0,
}


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
        config.write_text(json.dumps({"initial_params_file": str(params_path), "ocv": OCV_BLOCK}))
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

    @pytest.mark.parametrize("error", [ValueError("bad value"), OSError("disk full")])
    def test_run_stage_error_is_a_runtime_error(
        self, records, params_path, capsys, monkeypatch, error
    ):
        def failing_fit(*args, **kwargs):
            raise error

        monkeypatch.setattr(voltmask.sysid, "fit_rc", failing_fit)
        rc = {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0}
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), "rc": rc}))
        out = records / "o"
        code = main(["fit", "--config", str(config), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"runtime error: {error}\n"
        assert list(out.iterdir()) == []

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
        config = records / "fit.json"
        config.write_text(json.dumps({"initial_params_file": str(params_path), "ocv": ocv}))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["fit", "--config", str(config), "--out", str(records / "o")]) == 0
        err = capsys.readouterr().err
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

    # -- the fit's fault rows that were written out here (see TestExitCodes)

    @faults({
        "soc0": "fit-huge-soc0",
        "vc0": "fit-huge-vc0",
    })
    def test_huge_start_state_fails_without_overflow_noise(self, fault, row):
        fault(row)

    @faults({
        "ocv-n_breakpoints-20.5": "fit-ocv.n_breakpoints-20.5",
        "ocv-n_breakpoints-21": "fit-ocv.n_breakpoints-'21'",
        "ocv-n_breakpoints-True": "fit-ocv.n_breakpoints-True",
        "ocv-r0_guess-True": "fit-ocv.r0_guess-True",
        "ocv-r0_guess-huge_int": "fit-ocv.r0_guess-huge_int",
        "ocv-r0_guess-value9": "fit-ocv.r0_guess-[0.01]",
        "rc-soc0-True": "fit-rc.soc0-True",
        "rc-soc0-abc": "fit-rc.soc0-'abc'",
        "rc-soc0-nan": "fit-rc.soc0-nan",
        "rc-soc0-value0": "fit-rc.soc0-[0.5]",
        "rc-vc0-0": "fit-rc.vc0-'0'",
        "rc-vc0-False": "fit-rc.vc0-False",
    })
    def test_malformed_number_names_the_field(self, fault, row):
        fault(row)

    def test_missing_record_file_is_named(self, fault):
        fault("fit-record-absent")

    def test_more_breakpoints_than_the_ocv_grid_is_named(self, fault):
        fault("fit-ocv.n_breakpoints-2002")

    def test_needs_at_least_one_block(self, fault):
        fault("fit-without-blocks")

    def test_record_path_of_a_directory_is_a_config_error(self, fault):
        fault("fit-record-directory")

    def test_records_of_one_pair_on_different_grids_are_named(self, fault):
        fault("fit-ocv-pair-grids")

    def test_sweeps_that_do_not_cover_the_soc_range_are_a_runtime_error(self, fault):
        fault("fit-sweeps-cover-a-third")

    def test_too_few_breakpoints_win_over_a_missing_rc_record(self, fault):
        fault("fit-breakpoints-before-rc-record")

    def test_unknown_frozen_name_is_named(self, fault):
        fault("fit-frozen-unknown")

    def test_vc0_without_soc0_is_a_config_error(self, fault):
        fault("fit-vc0-without-soc0")


@pytest.mark.parametrize("value", [1e-40, 1e200])
def test_cell_at_the_edge_of_the_model_runs(tmp_path, make_case, value):
    # r1 = c1 = 1e-40 steps by 1/tau1 = 1e80; at 1e200 tau1 overflows to inf,
    # so -1/tau1 is -0.0 and the RC branch holds its voltage
    config = make_case(SHORT, cell={"r1_ohm": value, "c1_farad": value})
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "o")]) == 0



# -- fault rows on one field of a config or cell file (see TestExitCodes)


@faults({
    "capacity_As--1.0": "cell-capacity-negative",
    "r0_ohm-huge_int": "cell-r0-huge-int",
})
def test_cell_field_out_of_range_is_named(fault, row):
    fault(row)


@faults({
    "fields0-cell": "cell-unsteppable-0",
    "fields0-plant_overrides": "plant-overrides-unsteppable-0",
    "fields1-cell": "cell-unsteppable-1",
    "fields1-plant_overrides": "plant-overrides-unsteppable-1",
    "fields2-cell": "cell-unsteppable-2",
    "fields2-plant_overrides": "plant-overrides-unsteppable-2",
})
def test_cell_the_model_cannot_step_is_named(fault, row):
    fault(row)


@faults({
    "dt-huge_int": "scenario-dt-huge_int",
    "path0-value0": "scenario-profile.duration-[1]",
    "path1-value1": "scenario-reference.soc_start-[0.5]",
    "path11--1": "scenario-plant_overrides.seed--1",
    "path12--0.01": "scenario-plant_overrides.r0_ohm--0.01",
    "path2-None": "scenario-reference.soc_start-None",
    "path3-True": "scenario-profile.amplitude-True",
    "path4-True": "scenario-reference.soc_start-True",
    "path5-value5": "scenario-weights.q1-[True, 0]",
    "path6-1.7": "scenario-profile.seed-1.7",
    "path7--1": "scenario-profile.seed--1",
    "path8-nan": "scenario-i_max-nan",
    "path9-inf": "scenario-k_a-inf",
})
def test_scenario_field_of_wrong_kind_is_named(fault, row):
    fault(row)


# -- hostile values: any one field of a config file set to a value of the
# wrong kind or out of range must end in exit 0, 2 or 3, never a
# traceback, and an exit 2 must name the field (or, for a path, the path);
# a key that no reader looks at, drawn into any block, must exit 2 naming it

HOSTILE = st.one_of(
    st.sampled_from(
        ["abc", "0.5", True, False, None, [], [0.5], [True, 0], {}, {"x": 1}, math.nan,
         math.inf, -math.inf, 10**400, -(10**400),
         # positive, but 1/x is inf: a cell with such a c1 cannot be stepped
         1e-310, 5e-324]
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
    ("plant_overrides",), ("plant_overrides", "r0_ohm"), ("plant_overrides", "c1_farad"),
    ("plant_overrides", "noise_std"), ("plant_overrides", "seed"),
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


BLOCKS = [
    ("scenario", ()), ("scenario", ("x0",)), ("scenario", ("profile",)),
    ("scenario", ("reference",)), ("scenario", ("weights",)), ("scenario", ("plant_overrides",)),
    ("cell", ()), ("fit", ()), ("fit", ("ocv",)), ("fit", ("rc",)),
]
COMMANDS = {
    "scenario": ("scenario", "case_scenario.json"),
    "cell": ("scenario", "scenario_on_case_cell.json"),
    "fit": ("fit", "case_fit.json"),
}


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory, workspace, cell):
    """The workspace, with its tc1 copy cut to 20 s and given every key a
    block may hold but the profile's csv."""
    work = tmp_path_factory.mktemp("hostile") / "work"
    shutil.copytree(workspace, work)
    overrides = {"capacity_As": cell.capacity_q, "r0_ohm": 0.0162156, "r1_ohm": cell.r1,
                 "c1_farad": cell.c1, "noise_std": 0.001, "seed": 3}
    patch = {"profile.duration": 20.0, "reference.soc_start": 0.8, "reference.soc_target": 0.79,
             "ka_values": [-0.1, 0.0], "plant_overrides": overrides}
    scenario = patched(json.loads((work / "tc1.json").read_text()), patch)
    (work / "scenario.json").write_text(json.dumps(scenario))
    scenario["params_file"] = "case_cell.json"
    (work / "scenario_on_case_cell.json").write_text(json.dumps(scenario))
    for command, config in (("scenario", "scenario.json"), ("fit", "fit.json")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(work / config), "--out", str(work / "out")]) == 0
    return work


def run_hostile(work, kind, path, key, value):
    """The exit code and stderr of the command on kind's config with
    path's block given value at key."""
    raw = json.loads((work / f"{kind}.json").read_text())
    block = raw
    for name in path:
        block = block[name]
    block[key] = value
    (work / f"case_{kind}.json").write_text(json.dumps(raw))
    command, config = COMMANDS[kind]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(work / config), "--out", str(work / "o")])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(TARGETS), value=HOSTILE)
@example(target=("cell", ("c1_farad",)), value=1e-310)
@example(target=("scenario", ("plant_overrides", "c1_farad")), value=1e-310)
def test_hostile_field_value_never_raises(hostile_dir, target, value):
    kind, path = target
    code, message = run_hostile(hostile_dir, kind, path[:-1], path[-1], value)
    assert code in (0, 2, 3)
    if code == 2:
        assert path[-1] in message or (isinstance(value, str) and value in message), message


@settings(max_examples=50, deadline=None)
@given(target=st.sampled_from(BLOCKS), key=st.text(max_size=8), value=HOSTILE)
@example(target=("scenario", ("plant_overrides",)), key="r0", value=0.02)
def test_hostile_extra_key_is_named(hostile_dir, target, key, value):
    kind, path = target
    raw = json.loads((hostile_dir / f"{kind}.json").read_text())
    for name in path:
        raw = raw[name]
    assume(key not in raw and (key, path) != ("csv", ("profile",)))
    code, message = run_hostile(hostile_dir, kind, path, key, value)
    assert code == 2 and f"unknown keys {[key]}" in message, message
