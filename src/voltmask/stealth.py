"""Output-voltage masking for a synthesized input-current attack.

While the injection u_a drives the real cell (the plant) away from the
user's intent, the adversary also corrupts the voltage measurement so the
monitoring side keeps seeing a nominal-looking signal.  The correction

    y_a = g(X_nom, u_nom) - g(X, u_nom + u_a) + k_a (Y - g(X_nom, u_nom))

is built from the adversary's own model (open-loop difference between the
nominal and attacked model outputs) plus a feedback term on the measured
voltage Y.  Y is the signal the monitor sees, which already contains the
injected correction, so each sample closes an algebraic loop; because the
correction never feeds back into the plant state, the loop resolves
per-sample to

    y_a[k] = (delta[k] + k_a (y_plant[k] - y_nom[k])) / (1 - k_a)

with delta the open-loop model difference and y_plant the (noisy) plant
voltage under attack.  k_a = 1 is singular and rejected; |k_a| >= 1 is
flagged as a stability warning since large gains amplify measurement
noise.  With a perfect model and no noise the masking is exact for any
admissible k_a.

The plant may differ from the adversary's model (parameter mismatch) and
may add gaussian measurement noise drawn from a seeded generator, which
is what makes the masking residual nonzero and k_a worth tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attack import InputAttackResult
from .ecm import BatteryState, EcmParams, SimulationResult, simulate
from .profiles import TimeSeries, add, check_same_grid

__all__ = [
    "PlantConfig",
    "StealthResult",
    "feedback_output_attack",
]


@dataclass(frozen=True)
class PlantConfig:
    """True cell parameters plus measurement-noise level and seed."""

    true_params: EcmParams
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.noise_std >= 0.0 and math.isfinite(self.noise_std)):
            raise ValueError(f"noise_std must be >= 0 and finite, got {self.noise_std}")


@dataclass(frozen=True, eq=False)
class StealthResult:
    """Masking outcome on the scenario grid.

    y_nom        adversary-model nominal output g(X_nom, u_nom)
    y_plant      plant voltage under u_nom + u_a, noise included, pre-masking
    y_a          injected output correction
    y_measured   what the monitor sees, y_plant + y_a exactly
    plant_nominal, plant_attacked
                 the plant simulations under u_nom and u_nom + u_a
                 (noise-free); the residual is measured against
                 plant_nominal.voltage
    """

    y_nom: TimeSeries
    y_plant: TimeSeries
    y_a: TimeSeries
    y_measured: TimeSeries
    residual_rms: float
    residual_max: float
    ka_warning: bool
    plant_nominal: SimulationResult
    plant_attacked: SimulationResult


@dataclass(frozen=True, eq=False)
class _Trajectories:
    """The masking trajectories; none of them depends on k_a."""

    nom_model: SimulationResult
    att_model: SimulationResult
    plant_att: SimulationResult
    plant_nom: SimulationResult


def _simulate_trajectories(
    adv_params: EcmParams,
    true_params: EcmParams,
    x0: BatteryState,
    u_nom: TimeSeries,
    attack: InputAttackResult,
) -> _Trajectories:
    """Run the model without and the plant without and with the injection.

    The attacked model trajectory is the synthesis rollout's own.
    """
    check_same_grid(u_nom, attack.u_a)
    start = attack.model
    if (start.soc[0], start.vc[0]) != (x0.soc, x0.vc):
        raise ValueError(f"attack starts at soc={start.soc[0]}, vc={start.vc[0]}, not at {x0}")
    u_total = add(u_nom, attack.u_a)
    return _Trajectories(
        nom_model=simulate(adv_params, x0, u_nom),
        att_model=attack.model,
        plant_att=simulate(true_params, x0, u_total),
        plant_nom=simulate(true_params, x0, u_nom),
    )


def _measurement_noise(seed: int, noise_std: float, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n) * noise_std


def _score(traj: _Trajectories, k_a: float, noise: np.ndarray) -> StealthResult:
    """Close the masking loop for one gain and one noise draw."""
    if not math.isfinite(k_a):
        raise ValueError(f"k_a must be finite, got {k_a}")
    if k_a == 1.0:
        raise ValueError("k_a = 1 makes the per-sample correction singular")
    y_nom = traj.nom_model.voltage.samples
    y_plant = traj.plant_att.voltage.samples + noise
    delta = y_nom - traj.att_model.voltage.samples
    y_a = (delta + k_a * (y_plant - y_nom)) / (1.0 - k_a)
    y_measured = y_plant + y_a

    residual = y_measured - traj.plant_nom.voltage.samples
    residual_rms = float(np.sqrt(np.mean(residual * residual)))
    residual_max = float(np.abs(residual).max())

    voltage = traj.nom_model.voltage
    return StealthResult(
        y_nom=voltage,
        y_plant=voltage.with_samples(y_plant),
        y_a=voltage.with_samples(y_a),
        y_measured=voltage.with_samples(y_measured),
        residual_rms=residual_rms,
        residual_max=residual_max,
        ka_warning=bool(abs(k_a) >= 1.0),
        plant_nominal=traj.plant_nom,
        plant_attacked=traj.plant_att,
    )


def feedback_output_attack(
    adv_params: EcmParams,
    plant: PlantConfig,
    x0: BatteryState,
    u_nom: TimeSeries,
    attack: InputAttackResult,
    k_a: float,
) -> StealthResult:
    """Run the masked attack against the plant and score the residual.

    attack is the synthesized injection from x0 under u_nom; its model
    trajectory is the attacked model output g(X, u_nom + u_a).  With
    k_a = 0 the correction is the open-loop model difference
    y_nom - g(X, u_nom + u_a).  The residual compares y_measured against
    the plant's no-attack voltage, i.e. what the monitor would have seen
    had nothing been injected.
    """
    traj = _simulate_trajectories(adv_params, plant.true_params, x0, u_nom, attack)
    return _score(traj, k_a, _measurement_noise(plant.seed, plant.noise_std, len(u_nom)))
