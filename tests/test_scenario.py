"""Scenario config parsing, preparation, and the end-to-end pipeline.

The traced memory peaks of solve_riccati, synthesize_input_attack,
simulate, sweep_ka and run_scenario on a 50 001-sample settling
scenario are held within 0.1 MB of their recorded figures.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import pytest

from voltmask import (
    PlantConfig,
    attack_energy,
    load_scenario,
    prepare,
    run_scenario,
    select_argmin,
    sweep_ka,
    sweep_scenario,
    synthesize_input_attack,
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


# the benchmark's 41 masking gains, -0.9 to 0.1 in steps of 0.025
SWEEP_GAINS = tuple(round(-0.9 + 0.025 * i, 3) for i in range(41))


def test_long_settling_scenario_keeps_its_memory_peak(tmp_path, scenario_dir, params_path):
    """tc1_mismatch at n = 50 001 with 1 mV noise, the benchmark's long scenario.

    S is stationary on all but the last 537 rows.  Each bound is a
    recorded traced peak plus 0.1 MB.  run_scenario's, 9 207 358 bytes,
    is set by the masking runs, which keep one copy of the noisy plant
    voltage: a second copy, made while the correction, the measured
    voltage and the residual are alive, peaks at 9 607 400.  The
    sweep's own, 3 671 005 bytes, holds
    the SoC reference, the stationary tail's one forcing column (v1's:
    the weights leave vc unweighted) and its drained rows.  The
    synthesis's, 5 713 245 bytes, holds no coulomb counts: a rollout
    that stores them peaks at 6 111 773.  The same bound holds with the
    config's i_max, which is checked without an array of |u_nom + u_a|:
    that array peaks at 6 058 797.  simulate's, 2 001 973 bytes,
    frees the RC drive before the voltage readout; kept, it peaks at
    2 402 165.  sweep_ka's, 3 654 815 bytes with the 41 SWEEP_GAINS,
    computes the two differences that no gain changes once and scores
    every gain in one reused buffer: scoring each gain into fresh
    arrays, differences included, peaks at 4 405 776.
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
    atk, synth_peak = traced_peak(
        lambda: synthesize_input_attack(
            prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0
        )
    )
    _, sweep_ka_peak = traced_peak(lambda: sweep_ka(atk, prep.plant, SWEEP_GAINS))
    _, synth_i_max_peak = traced_peak(
        lambda: synthesize_input_attack(
            prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0, prep.i_max
        )
    )
    _, simulate_peak = traced_peak(
        lambda: ecm.simulate(prep.plant.true_params, prep.x0, prep.u_nom)
    )
    assert sol.stationary_from == 49_464
    assert sweep_peak < 3_671_005 + 100_000
    assert run_peak < 9_207_358 + 100_000
    assert synth_peak < 5_713_245 + 100_000
    assert prep.i_max is not None and synth_i_max_peak < 5_713_245 + 100_000
    assert simulate_peak < 2_001_973 + 100_000
    assert sweep_ka_peak < 3_654_815 + 100_000
