"""Scoring helpers and the masking-gain sweep."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltmask import (
    AttackWeights,
    BatteryState,
    PlantConfig,
    ReferenceTrajectory,
    TimeSeries,
    attack_energy,
    feedback_output_attack,
    select_argmin,
    sweep_ka,
    synthesize_input_attack,
    synthetic_profile,
)


def test_attack_energy_formula():
    u = TimeSeries(0.0, 2.0, np.array([1.0, -2.0, 3.0]))
    assert math.isclose(attack_energy(u), (1.0 + 4.0 + 9.0) * 2.0)
    zero = TimeSeries(0.0, 2.0, np.zeros(5))
    assert attack_energy(zero) == 0.0


def test_select_argmin_tie_breaking():
    # ties on residual go to the smaller |k_a|, then to the smaller k_a
    rows = [(0.1, 5.0), (-0.05, 3.0), (0.05, 3.0)]
    assert select_argmin(rows) == (-0.05, 3.0)
    rows = [(-0.05, 3.0), (0.1, 5.0), (0.05, 3.0 + 1e-12)]
    assert select_argmin(rows) == (-0.05, 3.0)
    rows = [(-0.05, 3.0), (0.05, 3.0), (-0.1, 3.0)]
    assert select_argmin(rows) == (-0.05, 3.0)


@pytest.fixture(scope="module")
def sweep_setup(cell):
    u_nom = synthetic_profile("sin_mix", 2.0, 1.5, 600.0, 1.0, seed=17)
    x0 = BatteryState(0.7, 0.0)
    ref = ReferenceTrajectory(0.7, 0.55)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    true = dataclasses.replace(cell, r0=cell.r0 * 1.2)
    plant = PlantConfig(true_params=true, noise_std=5e-4, seed=2)
    return atk, plant


def test_sweep_rows_are_sorted_and_scored(sweep_setup):
    atk, plant = sweep_setup
    result = sweep_ka(atk, plant, [0.1, -0.1, 0.0])
    kas = [row[0] for row in result.rows]
    assert kas == sorted(kas) == [-0.1, 0.0, 0.1]
    assert all(r > 0.0 for _, r in result.rows)
    assert (result.argmin_ka, result.argmin_rms) == select_argmin(result.rows)


def test_sweep_is_order_invariant(sweep_setup):
    atk, plant = sweep_setup
    gains = [-0.1, -0.05, 0.0, 0.05, 0.1]
    ordered = sweep_ka(atk, plant, gains)
    shuffled = sweep_ka(atk, plant, [0.05, -0.1, 0.1, 0.0, -0.05])
    assert ordered.rows == shuffled.rows

    # every gain is scored on the one noise draw of the plant's seed, so
    # the same gain gets the same residual whatever the other gains are
    fewer = sweep_ka(atk, plant, [0.1, -0.05])
    assert set(fewer.rows) <= set(ordered.rows)


gain = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda k: k != 1.0)


@settings(max_examples=25, deadline=None)
@given(
    gains=st.lists(gain, min_size=1, max_size=5),
    noise_std=st.sampled_from([0.0, 1e-4, 5e-3]) | st.floats(0.0, 1e-2),
    seed=st.integers(0, 2**63 - 1),
)
def test_sweep_rows_equal_per_gain_masking(sweep_setup, gains, noise_std, seed):
    # the gains come in any order; each row is the masking at that gain
    # with the plant's own seed, bit for bit
    atk, plant = sweep_setup
    plant = dataclasses.replace(plant, noise_std=noise_std, seed=seed)
    result = sweep_ka(atk, plant, gains)
    assert [row[0] for row in result.rows] == sorted(gains)
    for ka, residual_rms in result.rows:
        assert residual_rms == feedback_output_attack(atk, plant, ka).residual_rms


def test_sweep_perfect_model_is_flat_zero(cell, sweep_setup):
    atk, _ = sweep_setup
    plant = PlantConfig(true_params=cell)
    result = sweep_ka(atk, plant, [-0.1, 0.0, 0.1])
    assert all(r <= 1e-12 for _, r in result.rows)


def test_sweep_validation(sweep_setup):
    atk, plant = sweep_setup
    with pytest.raises(ValueError, match="must not be empty"):
        sweep_ka(atk, plant, [])
    with pytest.raises(ValueError, match="singular"):
        sweep_ka(atk, plant, [0.0, 1.0])


def test_single_gain_sweep(sweep_setup):
    atk, plant = sweep_setup
    result = sweep_ka(atk, plant, [-0.05])
    assert len(result.rows) == 1
    assert result.argmin_ka == -0.05
