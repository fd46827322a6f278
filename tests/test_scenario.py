"""Scenario config parsing, preparation, and the end-to-end pipeline."""

import json
import math
import tracemalloc
from dataclasses import replace

import pytest

from voltmask import (
    ConfigError,
    PlantConfig,
    attack_energy,
    load_scenario,
    prepare,
    run_scenario,
    select_argmin,
    sweep_scenario,
)
from voltmask import ecm
from voltmask.attack import solve_riccati


def write_config(tmp_path, params_path, **overrides):
    """Minimal valid scenario config with overridable fields."""
    raw = {
        "params_file": str(params_path),
        "dt": 1.0,
        "x0": {"soc": 0.8, "vc": 0.0},
        "profile": {
            "kind": "sin_mix",
            "amplitude": 2.0,
            "bias": 2.1483,
            "duration": 400.0,
            "seed": 11,
        },
        "reference": {"soc_target": 0.6, "shape": "linear_ramp"},
        "weights": {"q1": [1e7, 0.0], "q2": [2e5, 0.0], "r": 1.0},
        "k_a": -0.05,
    }
    raw.update(overrides)
    for key in [k for k, v in raw.items() if v is None]:
        del raw[key]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


class TestLoadScenario:
    def test_shipped_config_parses(self, scenario_dir, cell):
        config = load_scenario(scenario_dir / "tc1.json")
        assert config.u_nom.dt == 1.0
        assert config.x0.soc == 0.8
        assert config.k_a == -0.05
        assert config.i_max == 30.0
        assert config.weights.q1[0, 0] == 1e7
        assert config.ka_values == (-0.1, -0.05, 0.0, 0.05, 0.1)
        assert config.adv_params == cell
        assert config.plant == PlantConfig(true_params=cell, noise_std=0.0, seed=0)

    def test_mismatch_config_carries_overrides(self, scenario_dir):
        config = load_scenario(scenario_dir / "tc1_mismatch.json")
        assert config.plant.true_params.r0 == 0.0162156
        assert math.isclose(config.plant.true_params.r0, 1.3513e-2 * 1.2, rel_tol=1e-6)
        assert config.adv_params.r0 == 1.3513e-2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_missing_field_is_named(self, tmp_path, params_path):
        path = write_config(tmp_path, params_path, dt=None)
        with pytest.raises(ConfigError, match="missing field 'dt'"):
            load_scenario(path)

    def test_bad_weights_rejected(self, tmp_path, params_path):
        path = write_config(tmp_path, params_path, weights={"q1": [1e7], "q2": [0, 0], "r": 1.0})
        with pytest.raises(ConfigError, match="'q1' must be a \\[soc, vc\\] diagonal pair"):
            load_scenario(path)
        path = write_config(tmp_path, params_path, weights={"q1": [1e7, 0], "q2": [0, 0], "r": -1.0})
        with pytest.raises(ConfigError, match="r must be positive"):
            load_scenario(path)

    def test_unknown_override_key_rejected(self, tmp_path, params_path):
        path = write_config(tmp_path, params_path, plant_overrides={"r0": 0.02})
        with pytest.raises(ConfigError, match="unknown plant_overrides keys \\['r0'\\]"):
            load_scenario(path)

    @pytest.mark.parametrize("value", [True, "0.02"])
    def test_non_numeric_override_is_named(self, tmp_path, params_path, value):
        path = write_config(tmp_path, params_path, plant_overrides={"r0_ohm": value})
        with pytest.raises(ConfigError, match="plant_overrides: field 'r0_ohm' must be a number"):
            load_scenario(path)

    def test_profile_needs_csv_or_synth_keys(self, tmp_path, params_path):
        path = write_config(tmp_path, params_path, profile={"kind": "sin_mix"})
        with pytest.raises(ConfigError, match="missing \\['amplitude'"):
            load_scenario(path)

    def test_profile_faults_are_named_by_load_scenario(self, tmp_path, params_path):
        big = {"kind": "sin_mix", "amplitude": 1e308, "bias": 1e308, "duration": 400.0, "seed": 11}
        path = write_config(tmp_path, params_path, profile=big)
        with pytest.raises(ConfigError) as exc:
            load_scenario(path)
        assert str(exc.value) == (
            f"{path}: profile: sin_mix profile is not finite: "
            "amplitude 1e+308 and bias 1e+308 overflow"
        )
        csv_path = tmp_path / "u_nom.csv"
        csv_path.write_text("time_s,value\n0.0,1.0\n1.0,abc\n2.0,1.0\n")
        path = write_config(tmp_path, params_path, profile={"csv": "u_nom.csv"})
        with pytest.raises(ValueError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{csv_path}: line 3: non-numeric cell in row ['1.0', 'abc']"

    def test_nonpositive_dt_rejected(self, tmp_path, params_path):
        path = write_config(tmp_path, params_path, dt=-1.0)
        with pytest.raises(ConfigError, match="'dt' must be positive"):
            load_scenario(path)

    def test_bad_i_max_rejected(self, tmp_path, params_path):
        path = write_config(tmp_path, params_path, i_max=0.0)
        with pytest.raises(ConfigError, match="'i_max' must be a positive number"):
            load_scenario(path)

    def test_relative_params_path_resolves_against_config(self, tmp_path, params_path):
        sub = tmp_path / "configs"
        sub.mkdir()
        rel = write_config(sub, "../cell.json")
        (tmp_path / "cell.json").write_text(params_path.read_text())
        config = load_scenario(rel)
        assert config.adv_params.capacity_q == 1.4322e4
        assert config.plant.true_params == config.adv_params


class TestPrepare:
    def test_reference_starts_at_x0_by_default(self, scenario_dir):
        prep = prepare(load_scenario(scenario_dir / "tc1.json"))
        assert prep.reference.soc_start == prep.x0.soc == 0.8
        assert prep.reference.soc_target == 0.2

    def test_plant_overrides_change_only_named_fields(self, scenario_dir):
        prep = prepare(load_scenario(scenario_dir / "tc1_mismatch.json"))
        assert math.isclose(prep.plant.true_params.r0, prep.adv_params.r0 * 1.2, rel_tol=1e-6)
        assert prep.plant.true_params.r1 == prep.adv_params.r1
        assert prep.plant.true_params.c1 == prep.adv_params.c1
        assert prep.plant.true_params.capacity_q == prep.adv_params.capacity_q
        assert prep.plant.true_params.ocv == prep.adv_params.ocv

    def test_seed_override(self, scenario_dir):
        config = load_scenario(scenario_dir / "tc1.json")
        assert prepare(config) is config
        seeded = prepare(config, seed=7)
        assert seeded.plant.seed == 7
        assert seeded.plant.true_params == config.plant.true_params
        assert replace(seeded, plant=config.plant) == config
        assert prepare(config, ka_values=[0.5]).ka_values == (0.5,)

    def test_csv_profile(self, tmp_path, params_path):
        csv_path = tmp_path / "drive.csv"
        csv_path.write_text("time_s,value\n0,2\n100,2\n200,4\n")
        path = write_config(tmp_path, params_path, profile={"csv": "drive.csv"})
        prep = prepare(load_scenario(path))
        assert prep.u_nom.dt == 1.0
        assert len(prep.u_nom) == 201
        assert prep.u_nom.samples[0] == 2.0
        assert math.isclose(prep.u_nom.samples[150], 3.0)

    def test_missing_csv_profile(self, tmp_path, params_path):
        path = write_config(tmp_path, params_path, profile={"csv": "absent.csv"})
        with pytest.raises(ConfigError, match="profile csv not found"):
            load_scenario(path)


class TestRunScenario:
    def test_summary_is_consistent_with_parts(self, scenario_dir):
        prep = prepare(load_scenario(scenario_dir / "tc1.json"))
        run = run_scenario(prep)
        s = run.summary
        assert s.soc_violation_nominal == run.stealth.plant_nominal.soc_violation
        assert s.soc_violation_attacked == run.stealth.plant_attacked.soc_violation
        assert s.residual_rms == run.stealth.residual_rms
        assert s.attack_energy == attack_energy(run.input_attack.u_a)
        assert s.final_soc_nominal == run.stealth.plant_nominal.soc[-1]
        assert s.final_soc_attacked == run.stealth.plant_attacked.soc[-1]
        assert not s.ka_warning
        assert not s.i_max_violated

    def test_masking_is_exact_without_mismatch(self, scenario_dir):
        prep = prepare(load_scenario(scenario_dir / "tc2.json"))
        run = run_scenario(prep)
        assert run.summary.residual_max <= 1e-12

    def test_mismatch_scenario_shows_residual(self, scenario_dir):
        run = run_scenario(prepare(load_scenario(scenario_dir / "tc1_mismatch.json")))
        assert run.summary.residual_rms > 1e-4


def test_sweep_scenario_matches_selection(scenario_dir):
    prep = prepare(load_scenario(scenario_dir / "tc1_mismatch.json"))
    result = sweep_scenario(prep, prep.ka_values)
    kas = [row[0] for row in result.rows]
    assert kas == sorted(kas)
    assert (result.argmin_ka, result.argmin_rms) == select_argmin(result.rows)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The argument tuples of every stepping-kernel run, in order."""
    calls = []
    kernel = ecm._simulate_arrays

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(ecm, "_simulate_arrays", counting)
    return calls


@pytest.mark.parametrize("n_gains", [1, 3, 12])
def test_masking_runs_each_simulation_once(scenario_dir, kernel_calls, n_gains):
    """A scenario or a sweep of any length costs one stepping-kernel run
    when the plant's capacity, r1 and c1 are the model's.

    The attacked model trajectory is the synthesis rollout's own and the
    r0-only plant shares the model's states, so only the nominal model
    is simulated.
    """
    prep = prepare(load_scenario(scenario_dir / "tc1_mismatch.json"))
    run_scenario(prep)
    assert len(kernel_calls) == 1
    kernel_calls.clear()
    sweep_scenario(prep, [-0.5 + 0.1 * i for i in range(n_gains)])
    assert len(kernel_calls) == 1


def test_masking_without_mismatch_runs_the_kernel_once(scenario_dir, kernel_calls):
    run_scenario(prepare(load_scenario(scenario_dir / "tc1.json")))
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("name", ["r1", "capacity_q"])
def test_state_mismatch_simulates_each_plant_run(scenario_dir, kernel_calls, name):
    """A plant whose states move apart from the model's is simulated under
    u_nom + u_a and under u_nom, besides the nominal model."""
    prep = prepare(load_scenario(scenario_dir / "tc1_mismatch.json"))
    true = replace(prep.plant.true_params, **{name: 1.1 * getattr(prep.adv_params, name)})
    prep = replace(prep, plant=replace(prep.plant, true_params=true))
    run_scenario(prep)
    assert len(kernel_calls) == 3
    kernel_calls.clear()
    sweep_scenario(prep, [-0.5, 0.0, 0.5])
    assert len(kernel_calls) == 3


def test_long_settling_scenario_keeps_its_memory_peak(tmp_path, scenario_dir, params_path):
    """tc1_mismatch at n = 50 001 with 1 mV noise, the benchmark's long scenario.

    S is stationary on all but the last 537 rows.  Each bound is a
    recorded traced peak plus 0.1 MB.  run_scenario's, 9 613 357 bytes,
    is set by the masking runs; the sweep's own, 4 794 273 bytes, holds
    the stationary tail's two forcing columns and its drained rows.
    """
    raw = json.loads((scenario_dir / "tc1_mismatch.json").read_text())
    raw["params_file"] = str(params_path)
    scale = 2000.0 / 50_000.0
    raw["profile"].update(duration=50_000.0, amplitude=2.0 * scale, bias=2.1483 * scale)
    raw["plant_overrides"].update(noise_std=1e-3, seed=3)
    (tmp_path / "long.json").write_text(json.dumps(raw))
    prep = prepare(load_scenario(tmp_path / "long.json"))

    def traced_peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sol, sweep_peak = traced_peak(
        lambda: solve_riccati(prep.adv_params, prep.weights, prep.reference, prep.u_nom)
    )
    _, run_peak = traced_peak(lambda: run_scenario(prep))
    assert sol.stationary_from == 49_464
    assert sweep_peak < 4_794_273 + 100_000
    assert run_peak < 9_613_357 + 100_000
