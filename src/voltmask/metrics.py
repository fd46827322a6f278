"""Scoring helpers: RMS residuals, scenario summaries, k_a sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import InputAttackResult
from .ecm import BatteryState, EcmParams
from .profiles import TimeSeries, check_same_grid
from .stealth import PlantConfig, _measurement_noise, _score, _simulate_trajectories

__all__ = [
    "ScenarioSummary",
    "KaSweepResult",
    "rms",
    "attack_energy",
    "sweep_ka",
    "select_argmin",
]


@dataclass(frozen=True)
class ScenarioSummary:
    """Headline numbers for one scenario run.

    final_soc_nominal / final_soc_attacked are the plant's (true cell's)
    end states without and with the injection.  attack_energy is
    sum(u_a^2) * dt.  The violation flags are reported, never enforced;
    driving SoC out of range is the attack's goal, not a failure.
    """

    final_soc_nominal: float
    final_soc_attacked: float
    residual_rms: float
    residual_max: float
    attack_energy: float
    i_max_violated: bool
    soc_violation_nominal: bool
    soc_violation_attacked: bool
    ka_warning: bool


def rms(a: TimeSeries, b: TimeSeries) -> float:
    """Root-mean-square difference of two series on the same grid."""
    check_same_grid(a, b)
    err = a.samples - b.samples
    return float(np.sqrt(np.mean(err * err)))


def attack_energy(u_a: TimeSeries) -> float:
    """Injection effort sum(u_a[k]^2) * dt."""
    # a runaway injection overflows to inf, which the caller reports
    with np.errstate(over="ignore"):
        return float(np.sum(u_a.samples * u_a.samples) * u_a.dt)


@dataclass(frozen=True)
class KaSweepResult:
    """Rows (k_a, residual_rms) sorted by k_a, plus the winner."""

    rows: tuple[tuple[float, float], ...]
    argmin_ka: float
    argmin_rms: float


def select_argmin(rows) -> tuple[float, float]:
    """Smallest residual; ties go to the smallest |k_a|, then smallest k_a."""
    best = min(rows, key=lambda row: (row[1], abs(row[0]), row[0]))
    return best[0], best[1]


def _derived_seed(base_seed: int, index: int) -> int:
    """Deterministic per-k_a noise seed, independent of evaluation order."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


def sweep_ka(
    adv_params: EcmParams,
    plant: PlantConfig,
    x0: BatteryState,
    u_nom: TimeSeries,
    attack: InputAttackResult,
    ka_values,
) -> KaSweepResult:
    """Score the masking residual over a set of feedback gains.

    The injection is fixed, so the masking trajectories are simulated
    once and only the per-sample correction is recomputed per gain.
    Values are sorted first and each gets a noise seed derived from the
    plant seed and its sorted rank, so every row equals
    feedback_output_attack with that seed, whatever the input order.
    """
    kas = sorted(float(k) for k in ka_values)
    if not kas:
        raise ValueError("ka_values must not be empty")
    traj = _simulate_trajectories(adv_params, plant.true_params, x0, u_nom, attack)
    rows = []
    for rank, ka in enumerate(kas):
        noise = _measurement_noise(_derived_seed(plant.seed, rank), plant.noise_std, len(u_nom))
        rows.append((ka, _score(traj, ka, noise).residual_rms))
    argmin_ka, argmin_rms = select_argmin(rows)
    return KaSweepResult(rows=tuple(rows), argmin_ka=argmin_ka, argmin_rms=argmin_rms)
