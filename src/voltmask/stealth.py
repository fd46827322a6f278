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
voltage under attack.  The measurement noise reaches the residual
multiplied by 1 / |1 - k_a|: k_a = 1 is singular and rejected, and a gain
that amplifies the noise (0 < k_a < 2) is flagged with ka_warning.  With
a perfect model and no noise the masking is exact for any admissible k_a.

The plant may differ from the adversary's model (parameter mismatch) and
may add gaussian measurement noise drawn from a seeded generator, which
is what makes the masking residual nonzero and k_a worth tuning.  The
noise is drawn once per plant and seed, so every gain is scored on the
same draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attack import InputAttackResult
from .ecm import BatteryState, EcmParams, SimulationResult, simulate
from .ecm import _terminal_voltages, _voltage_series
from .profiles import TimeSeries, add

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
    """The masking trajectories and the noisy plant voltage; none depends on k_a.

    When the plant's capacity_q, r1 and c1 equal the model's, plant_att
    holds att_model's states and plant_nom nom_model's, each with the
    plant's own voltage readout; the states move through those three
    parameters alone, so sharing them is exact.
    """

    nom_model: SimulationResult
    att_model: SimulationResult
    plant_att: SimulationResult
    plant_nom: SimulationResult
    y_plant: TimeSeries


def _readout(params: EcmParams, states: SimulationResult, current: TimeSeries) -> SimulationResult:
    """states with the terminal voltage of params under current."""
    volts = _terminal_voltages(params, states.soc, states.vc, current.samples)
    return SimulationResult(states.soc, states.vc, _voltage_series(current, volts))


def _simulate_trajectories(attack: InputAttackResult, plant: PlantConfig) -> _Trajectories:
    """Run the model without and the plant without and with the injection.

    Every run starts where the attack's model trajectory starts, and
    the attacked model trajectory is the synthesis rollout's own.  The
    state moves only through capacity_q, r1 and c1, while r0 and the OCV
    curve enter only the voltage readout.  So when the plant's capacity_q,
    r1 and c1 equal the model's, its states under a current are the
    model's bit for bit (test_rollout_model_equals_simulation_bit_for_bit
    pins the rollout to simulate), and only the plant's readout is
    computed: one stepping-kernel run in all, the nominal model's.
    Otherwise each plant run is simulated, three kernel runs in all.
    The measurement noise is drawn once, from the plant's seed, into the
    one copy of the noisy plant voltage; one that overflows is named with
    its first time.
    """
    x0 = BatteryState(attack.model.soc[0], attack.model.vc[0])
    u_nom = attack.u_nom
    u_att = add(u_nom, attack.u_a)
    true, model = plant.true_params, attack.params
    same = (true.capacity_q, true.r1, true.c1) == (model.capacity_q, model.r1, model.c1)
    plant_att = _readout(true, attack.model, u_att) if same else simulate(true, x0, u_att)
    with np.errstate(over="ignore"):
        noise = np.random.default_rng(plant.seed).standard_normal(len(u_nom)) * plant.noise_std
        y_plant = plant_att.voltage.samples + noise
    note = f", noise_std = {plant.noise_std}"
    y_plant = _voltage_series(u_nom, y_plant, "noisy plant voltage", note)
    nom_model = simulate(model, x0, u_nom)
    return _Trajectories(
        nom_model=nom_model,
        att_model=attack.model,
        plant_att=plant_att,
        plant_nom=_readout(true, nom_model, u_nom) if same else simulate(true, x0, u_nom),
        y_plant=y_plant,
    )


def _check_gain(k_a: float) -> None:
    """Reject a gain the masking loop cannot close at: one not finite, or 1."""
    if not math.isfinite(k_a):
        raise ValueError(f"k_a must be finite, got {k_a}")
    if k_a == 1.0:
        raise ValueError("k_a = 1 makes the per-sample correction singular")


def _differences(traj: _Trajectories) -> tuple[np.ndarray, np.ndarray]:
    """The masking's two differences that no gain changes: y_nom - y_att_model
    and y_plant - y_nom."""
    y_nom = traj.nom_model.voltage.samples
    with np.errstate(over="ignore", invalid="ignore"):
        return y_nom - traj.att_model.voltage.samples, traj.y_plant.samples - y_nom


def _residual(
    traj: _Trajectories,
    k_a: float,
    diffs: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(y_a, y_measured, residual, residual rms) of the masking loop closed at
    one gain, which _check_gain has passed.

    diffs is _differences(traj), for a caller that scores many gains;
    without it they are computed here and freed once y_a is.  Without
    out, the three arrays are fresh.  With out, a float array of the
    grid's length, each array is computed into out in turn, so a gain
    allocates no array: the three returned are out itself, which ends
    holding the squared residual.  Either way every sample takes the same
    operations in the same order, so the rms keeps its bits.
    """
    delta, deviation = _differences(traj) if diffs is None else diffs
    # a runaway attack, or a gain near 1, overflows to inf, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        y_a = np.multiply(k_a, deviation, out=out)
        np.add(delta, y_a, out=y_a)
        np.divide(y_a, 1.0 - k_a, out=y_a)
        del delta, deviation, diffs
        y_measured = np.add(traj.y_plant.samples, y_a, out=out)
        residual = np.subtract(y_measured, traj.plant_nom.voltage.samples, out=out)
        squares = np.multiply(residual, residual, out=out)
        return y_a, y_measured, residual, float(np.sqrt(np.mean(squares)))


def feedback_output_attack(
    attack: InputAttackResult, plant: PlantConfig, k_a: float
) -> StealthResult:
    """Run the masked attack against the plant and score the residual.

    The correction uses the model, start and profile the attack was
    synthesized on; the attack's model trajectory is the attacked model
    output g(X, u_nom + u_a).  With k_a = 0 the correction is the
    open-loop model difference y_nom - g(X, u_nom + u_a).  The residual
    compares y_measured against the plant's no-attack voltage, i.e.
    what the monitor would have seen had nothing been injected.
    """
    _check_gain(k_a)
    traj = _simulate_trajectories(attack, plant)
    y_a, y_measured, residual, residual_rms = _residual(traj, k_a)
    note = f", k_a = {k_a}"
    return StealthResult(
        y_nom=traj.nom_model.voltage,
        y_plant=traj.y_plant,
        y_a=_voltage_series(traj.y_plant, y_a, "masking correction", note),
        y_measured=_voltage_series(traj.y_plant, y_measured, "measured voltage", note),
        residual_rms=residual_rms,
        residual_max=float(np.abs(residual).max()),
        ka_warning=bool(abs(1.0 - k_a) < 1.0),  # the noise gain 1 / |1 - k_a| exceeds 1
        plant_nominal=traj.plant_nom,
        plant_attacked=traj.plant_att,
    )
