"""Output masking: exactness, feedback-gain behavior, mismatch structure."""

import dataclasses
import math

import numpy as np
import pytest
from attack_setups import attack_setups
from hypothesis import given, settings
from hypothesis import strategies as st

from voltmask import (
    AttackWeights,
    BatteryState,
    OcvCurve,
    PlantConfig,
    ReferenceTrajectory,
    add,
    feedback_output_attack,
    load_scenario,
    prepare,
    simulate,
    synthesize_input_attack,
    synthetic_profile,
)
from voltmask.stealth import _simulate_trajectories


@pytest.fixture()
def injection(cell):
    """A modest synthesized injection reused across masking tests."""
    u_nom = synthetic_profile("sin_mix", 2.0, 1.5, 800.0, 1.0, seed=14)
    x0 = BatteryState(0.7, 0.0)
    ref = ReferenceTrajectory(0.7, 0.5)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    return u_nom, atk, x0


def test_y_nom_is_plain_simulation(cell, injection):
    u_nom, atk, x0 = injection
    true = dataclasses.replace(cell, r0=cell.r0 * 1.2)
    res = feedback_output_attack(atk, PlantConfig(true_params=true), -0.05)
    np.testing.assert_array_equal(res.y_nom.samples, simulate(cell, x0, u_nom).voltage.samples)


def test_residual_figures_are_those_of_the_residual(cell, injection):
    # residual_rms and residual_max read the displayed voltage against
    # the plant's no-attack voltage; checked here with an exactly rounded sum
    u_nom, atk, x0 = injection
    true = dataclasses.replace(cell, r0=cell.r0 * 1.2)
    plant = PlantConfig(true_params=true, noise_std=1e-3, seed=5)
    res = feedback_output_attack(atk, plant, -0.05)
    residual = (res.y_measured.samples - res.plant_nominal.voltage.samples).tolist()
    rms = math.sqrt(math.fsum(e * e for e in residual) / len(residual))
    assert math.isclose(res.residual_rms, rms, rel_tol=1e-12)
    assert res.residual_rms > 0.0
    assert res.residual_max == max(abs(e) for e in residual)


def test_zero_injection_gives_zero_correction(cell):
    # zero weights synthesize a zero injection; at k_a = 0 the correction
    # is the model difference alone, whatever the plant and its noise
    u_nom = synthetic_profile("sin_mix", 2.0, 1.5, 800.0, 1.0, seed=14)
    x0 = BatteryState(0.7, 0.0)
    ref = ReferenceTrajectory(0.7, 0.5)
    weights = AttackWeights(q1=np.zeros((2, 2)), q2=np.zeros((2, 2)), r=1.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    true = dataclasses.replace(cell, r0=cell.r0 * 1.2)
    plant = PlantConfig(true_params=true, noise_std=1e-3, seed=5)
    res = feedback_output_attack(atk, plant, 0.0)
    assert (res.y_a.samples == 0.0).all()


def test_perfect_model_masks_exactly(cell, injection):
    u_nom, atk, x0 = injection
    plant = PlantConfig(true_params=cell)
    for k_a in (-0.9, -0.05, 0.0, 0.3, 2.0):
        res = feedback_output_attack(atk, plant, k_a)
        assert res.residual_max <= 1e-12, f"k_a={k_a}"
        assert res.residual_rms <= 1e-12


@pytest.mark.parametrize(
    "k_a", [-0.9, 0.5, 1.5, 1e6, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 2**-52, 1 + 2**-52]
)
def test_perfect_model_masks_to_the_rounding_of_the_gain_term(scenario_dir, k_a):
    # y_a rounds k_a (y_plant - y_nom) = -k_a delta and divides by
    # 1 - k_a, so the residual stays under max|delta| |k_a| / |1 - k_a|
    # 2**-52, plus the rounding of the sums that carry y, a few ulp of it
    prep = prepare(load_scenario(scenario_dir / "tc1.json"))
    atk = synthesize_input_attack(
        prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0
    )
    res = feedback_output_attack(atk, prep.plant, k_a)
    delta = float(np.abs(res.y_nom.samples - atk.model.voltage.samples).max())
    y_max = float(np.abs(res.y_plant.samples).max())
    bound = delta * abs(k_a) / abs(1.0 - k_a) * 2**-52
    assert res.residual_max <= bound + 4 * math.ulp(y_max)


# Rounding in the correction grows like 1/|1 - k_a|, so gains within 1e-2
# of the singular k_a = 1 are left out.
_ADMISSIBLE_GAIN = st.floats(-3.0, 3.0).filter(lambda k: abs(1.0 - k) >= 1e-2)


@settings(max_examples=60, deadline=None)
@given(setup=attack_setups(), k_a=_ADMISSIBLE_GAIN)
def test_perfect_model_masks_exactly_for_random_cells(setup, k_a):
    cell, weights, ref, u_nom, x0 = setup
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    res = feedback_output_attack(atk, PlantConfig(true_params=cell), k_a)
    assert res.residual_max <= 1e-12


def test_ka_zero_reduces_to_open_loop(cell, injection):
    u_nom, atk, x0 = injection
    plant = PlantConfig(true_params=cell)
    nominal = simulate(cell, x0, u_nom).voltage.samples
    ol = nominal - simulate(cell, x0, add(u_nom, atk.u_a)).voltage.samples
    fb = feedback_output_attack(atk, plant, 0.0)
    np.testing.assert_array_equal(fb.y_a.samples, ol)
    np.testing.assert_array_equal(fb.y_measured.samples, fb.y_plant.samples + ol)


def test_measured_is_plant_plus_correction(cell, injection):
    u_nom, atk, x0 = injection
    plant = PlantConfig(true_params=cell, noise_std=2e-3, seed=5)
    res = feedback_output_attack(atk, plant, -0.05)
    np.testing.assert_array_equal(
        res.y_measured.samples, res.y_plant.samples + res.y_a.samples
    )


def test_r0_mismatch_residual_is_linear_in_injection(cell, injection):
    # r0 only enters the output map, so with k_a = 0 the masking error
    # is exactly -(r0_true - r0_model) * u_a at every sample
    u_nom, atk, x0 = injection
    true = dataclasses.replace(cell, r0=cell.r0 * 1.2)
    delta_r0 = true.r0 - cell.r0
    plant = PlantConfig(true_params=true)
    res = feedback_output_attack(atk, plant, 0.0)
    residual = res.y_measured.samples - res.plant_nominal.voltage.samples
    np.testing.assert_allclose(residual, -delta_r0 * atk.u_a.samples, atol=1e-12)


def test_negative_gain_shrinks_mismatch_residual(cell, injection):
    u_nom, atk, x0 = injection
    true = dataclasses.replace(cell, r0=cell.r0 * 1.2)
    plant = PlantConfig(true_params=true)
    at_zero = feedback_output_attack(atk, plant, 0.0)
    at_neg = feedback_output_attack(atk, plant, -0.1)
    assert at_neg.residual_rms < at_zero.residual_rms


def test_noise_is_scaled_by_the_correction_loop(cell, injection):
    # perfect model: residual = noise / (1 - k_a), so positive gains
    # amplify measurement noise and negative gains damp it
    u_nom, atk, x0 = injection
    sigma = 1e-3
    plant = PlantConfig(true_params=cell, noise_std=sigma, seed=9)
    for k_a in (0.5, 0.0, -1.0):
        res = feedback_output_attack(atk, plant, k_a)
        expected = sigma / abs(1.0 - k_a)
        assert 0.9 * expected <= res.residual_rms <= 1.1 * expected, f"k_a={k_a}"
    damped = feedback_output_attack(atk, plant, -1.0)
    assert not damped.ka_warning  # noise gain 1/2


def test_gain_validation(cell, injection, kernel_calls):
    u_nom, atk, x0 = injection
    plant = PlantConfig(true_params=cell)
    with pytest.raises(ValueError, match="singular"):
        feedback_output_attack(atk, plant, 1.0)
    with pytest.raises(ValueError, match="finite"):
        feedback_output_attack(atk, plant, math.nan)
    assert kernel_calls == []  # a bad gain is rejected before the masking runs
    ok = feedback_output_attack(atk, plant, 1.5)
    assert ok.ka_warning
    small = feedback_output_attack(atk, plant, 0.99)
    assert small.ka_warning  # noise gain 100


def test_noise_seed_determinism(cell, injection):
    u_nom, atk, x0 = injection
    a = feedback_output_attack(atk, PlantConfig(true_params=cell, noise_std=1e-3, seed=3), -0.05)
    b = feedback_output_attack(atk, PlantConfig(true_params=cell, noise_std=1e-3, seed=3), -0.05)
    c = feedback_output_attack(atk, PlantConfig(true_params=cell, noise_std=1e-3, seed=4), -0.05)
    np.testing.assert_array_equal(a.y_measured.samples, b.y_measured.samples)
    assert np.abs(a.y_measured.samples - c.y_measured.samples).max() > 0.0


def test_masking_uses_the_attack_s_model_start_and_profile(cell, injection):
    # an attack synthesized on another cell carries that cell, its start
    # and its profile, so a plant that is that cell is masked exactly
    u_nom, _, x0 = injection
    other = dataclasses.replace(cell, r0=cell.r0 * 1.5, c1=cell.c1 * 0.7)
    start = BatteryState(0.65, 0.01)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    atk = synthesize_input_attack(other, weights, ReferenceTrajectory(0.65, 0.5), u_nom, start)
    assert atk.params is other and atk.u_nom is u_nom
    assert (atk.model.soc[0], atk.model.vc[0]) == (start.soc, start.vc)
    res = feedback_output_attack(atk, PlantConfig(true_params=other), 0.0)
    assert res.residual_max <= 1e-12
    assert res.plant_nominal.soc[0] == start.soc


def test_plant_config_validation(cell):
    with pytest.raises(ValueError, match="noise_std"):
        PlantConfig(true_params=cell, noise_std=-1.0)


def test_final_soc_fields_track_the_plant(cell, injection):
    u_nom, atk, x0 = injection
    true = dataclasses.replace(cell, r0=cell.r0 * 1.2)
    plant = PlantConfig(true_params=true)
    res = feedback_output_attack(atk, plant, 0.0)
    assert res.plant_nominal.soc[-1] == simulate(true, x0, u_nom).soc[-1]
    assert res.plant_attacked.soc[-1] == simulate(true, x0, add(u_nom, atk.u_a)).soc[-1]


@st.composite
def _plants(draw, cell, share_states):
    """A plant that differs from cell in r0, the OCV curve or noise only
    (share_states), or also in at least one of capacity_q, r1 and c1."""
    factor = st.floats(0.5, 2.0)
    changes = {"r0": cell.r0 * draw(factor)}
    if draw(st.booleans()):
        rises = draw(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6))
        changes["ocv"] = OcvCurve(
            tuple(np.linspace(0.0, 1.0, len(rises) + 1)), tuple(3.1 + np.cumsum([0.0, *rises]))
        )
    if not share_states:
        names = draw(st.sets(st.sampled_from(["capacity_q", "r1", "c1"]), min_size=1))
        changes.update({name: getattr(cell, name) * draw(factor) for name in sorted(names)})
    return PlantConfig(
        true_params=dataclasses.replace(cell, **changes),
        noise_std=draw(st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 1e-2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _assert_same_run(got, want):
    assert got.soc.tobytes() == want.soc.tobytes()
    assert got.vc.tobytes() == want.vc.tobytes()
    assert got.voltage.samples.tobytes() == want.voltage.samples.tobytes()
    assert (got.voltage.t0, got.voltage.dt) == (want.voltage.t0, want.voltage.dt)
    assert got.soc_violation == want.soc_violation


@settings(max_examples=60, deadline=None)
@given(setup=attack_setups(), share_states=st.booleans(), data=st.data())
def test_masking_trajectories_equal_plain_simulations_bit_for_bit(setup, share_states, data):
    # whether the plant runs share the model's states or are simulated,
    # every trajectory is what simulating it from the start gives
    cell, weights, ref, u_nom, x0 = setup
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    plant = data.draw(_plants(cell, share_states))
    true = plant.true_params
    traj = _simulate_trajectories(atk, plant)
    u_att = add(u_nom, atk.u_a)
    plant_att = simulate(true, x0, u_att)
    _assert_same_run(traj.nom_model, simulate(cell, x0, u_nom))
    assert traj.att_model is atk.model
    _assert_same_run(traj.plant_att, plant_att)
    _assert_same_run(traj.plant_nom, simulate(true, x0, u_nom))
    noise = np.random.default_rng(plant.seed).standard_normal(len(u_nom)) * plant.noise_std
    assert traj.y_plant.samples.tobytes() == (plant_att.voltage.samples + noise).tobytes()
