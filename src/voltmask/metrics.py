"""Scoring helpers: scenario summaries, attack energy, k_a sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import InputAttackResult
from .profiles import TimeSeries
from .stealth import PlantConfig, _residual, _simulate_trajectories

__all__ = [
    "ScenarioSummary",
    "KaSweepResult",
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


def sweep_ka(attack: InputAttackResult, plant: PlantConfig, ka_values) -> KaSweepResult:
    """Score the masking residual over a set of feedback gains.

    The injection is fixed, so the masking trajectories and the noise
    draw are made once and only the per-sample correction is recomputed
    per gain: every row equals feedback_output_attack at that gain.
    """
    kas = sorted(float(k) for k in ka_values)
    if not kas:
        raise ValueError("ka_values must not be empty")
    traj = _simulate_trajectories(attack, plant)
    rows = tuple((ka, _residual(traj, ka)[3]) for ka in kas)
    argmin_ka, argmin_rms = select_argmin(rows)
    return KaSweepResult(rows=rows, argmin_ka=argmin_ka, argmin_rms=argmin_rms)
