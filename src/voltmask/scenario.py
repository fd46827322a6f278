"""Scenario configs and the end-to-end attack pipeline.

A scenario JSON names the cell parameter file, the user's current
profile, the adversary's reference target and weights, the masking gain,
and optional plant overrides (true-parameter mismatch plus measurement
noise).  Relative paths inside a config resolve against the config
file's directory, so scenarios can be launched from anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics
from .attack import (
    AttackWeights,
    InputAttackResult,
    ReferenceTrajectory,
    synthesize_input_attack,
)
from .ecm import BatteryState, EcmParams, load_params
from .metrics import KaSweepResult, ScenarioSummary
from .profiles import TimeSeries, load_csv, synthetic_profile
from .stealth import PlantConfig, StealthResult, feedback_output_attack

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "PreparedScenario",
    "ScenarioRun",
    "load_scenario",
    "prepare",
    "run_scenario",
    "sweep_scenario",
]

_PLANT_OVERRIDE_KEYS = {"capacity_As", "r0_ohm", "r1_ohm", "c1_farad", "noise_std", "seed"}
_PROFILE_SYNTH_KEYS = {"kind", "amplitude", "bias", "duration", "seed"}


class ConfigError(ValueError):
    """A scenario or fit config is malformed; the message names the field."""


def _require(raw: dict, field: str, kind, context: str):
    if field not in raw:
        raise ConfigError(f"{context}: missing field {field!r}")
    value = raw[field]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{context}: field {field!r} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        raise ConfigError(
            f"{context}: field {field!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario file; paths already resolved to absolute."""

    params_file: Path
    dt: float
    x0: BatteryState
    profile: dict
    reference: dict
    weights: AttackWeights
    k_a: float
    plant_overrides: dict
    noise_std: float
    seed: int
    i_max: float | None
    ka_values: tuple[float, ...]


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario config not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    ctx = str(path)
    base = path.parent

    params_file = base / _require(raw, "params_file", str, ctx)
    if not params_file.exists():
        raise ConfigError(f"{ctx}: params_file not found: {params_file}")
    dt = _require(raw, "dt", float, ctx)
    if dt <= 0:
        raise ConfigError(f"{ctx}: field 'dt' must be positive, got {dt}")

    x0_raw = _require(raw, "x0", dict, ctx)
    x0 = BatteryState(
        _require(x0_raw, "soc", float, f"{ctx}: x0"),
        _require(x0_raw, "vc", float, f"{ctx}: x0"),
    )

    profile = _require(raw, "profile", dict, ctx)
    if "csv" in profile:
        csv_path = base / _require(profile, "csv", str, f"{ctx}: profile")
        if not csv_path.exists():
            raise ConfigError(f"{ctx}: profile csv not found: {csv_path}")
        profile = {"csv": csv_path}
    else:
        missing = _PROFILE_SYNTH_KEYS - set(profile)
        if missing:
            raise ConfigError(
                f"{ctx}: profile needs either 'csv' or keys {sorted(_PROFILE_SYNTH_KEYS)}; "
                f"missing {sorted(missing)}"
            )

    reference = _require(raw, "reference", dict, ctx)
    _require(reference, "soc_target", float, f"{ctx}: reference")
    _require(reference, "shape", str, f"{ctx}: reference")

    w_raw = _require(raw, "weights", dict, ctx)
    q1 = _require(w_raw, "q1", list, f"{ctx}: weights")
    q2 = _require(w_raw, "q2", list, f"{ctx}: weights")
    r = _require(w_raw, "r", float, f"{ctx}: weights")
    for name, diag in (("q1", q1), ("q2", q2)):
        if len(diag) != 2 or not all(isinstance(v, (int, float)) for v in diag):
            raise ConfigError(
                f"{ctx}: weights field {name!r} must be a [soc, vc] diagonal pair"
            )
    try:
        weights = AttackWeights(q1=np.diag(q1).astype(float), q2=np.diag(q2).astype(float), r=r)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: weights: {exc}") from None

    k_a = _require(raw, "k_a", float, ctx)

    overrides = raw.get("plant_overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"{ctx}: field 'plant_overrides' must be an object")
    bad = set(overrides) - _PLANT_OVERRIDE_KEYS
    if bad:
        raise ConfigError(f"{ctx}: unknown plant_overrides keys {sorted(bad)}")
    for key in overrides:
        _require(overrides, key, float, f"{ctx}: plant_overrides")
    noise_std = float(overrides.get("noise_std", 0.0))
    if noise_std < 0:
        raise ConfigError(f"{ctx}: plant_overrides.noise_std must be >= 0, got {noise_std}")
    seed = overrides.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{ctx}: plant_overrides.seed must be a non-negative integer")

    i_max = raw.get("i_max")
    if i_max is not None:
        if isinstance(i_max, bool) or not isinstance(i_max, (int, float)) or i_max <= 0:
            raise ConfigError(f"{ctx}: field 'i_max' must be a positive number, got {i_max!r}")
        i_max = float(i_max)

    ka_values = raw.get("ka_values", [])
    if not isinstance(ka_values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in ka_values
    ):
        raise ConfigError(f"{ctx}: field 'ka_values' must be a list of numbers")

    return ScenarioConfig(
        params_file=params_file,
        dt=dt,
        x0=x0,
        profile=profile,
        reference=reference,
        weights=weights,
        k_a=k_a,
        plant_overrides={k: float(v) for k, v in overrides.items() if k not in ("noise_std", "seed")},
        noise_std=noise_std,
        seed=int(seed),
        i_max=i_max,
        ka_values=tuple(float(v) for v in ka_values),
    )


@dataclass(frozen=True)
class PreparedScenario:
    """Everything the pipeline needs, with files loaded and profile built."""

    adv_params: EcmParams
    plant: PlantConfig
    x0: BatteryState
    u_nom: TimeSeries
    reference: ReferenceTrajectory
    weights: AttackWeights
    k_a: float
    i_max: float | None
    ka_values: tuple[float, ...]


_OVERRIDE_TO_FIELD = {
    "capacity_As": "capacity_q",
    "r0_ohm": "r0",
    "r1_ohm": "r1",
    "c1_farad": "c1",
}


def prepare(config: ScenarioConfig, seed_override: int | None = None) -> PreparedScenario:
    """Load parameters, build the profile and reference, apply overrides."""
    adv_params = load_params(config.params_file)
    true_params = adv_params
    if config.plant_overrides:
        fields = {
            _OVERRIDE_TO_FIELD[key]: value for key, value in config.plant_overrides.items()
        }
        true_params = replace(adv_params, **fields)
    seed = config.seed if seed_override is None else int(seed_override)
    plant = PlantConfig(true_params=true_params, noise_std=config.noise_std, seed=seed)

    if "csv" in config.profile:
        u_nom = load_csv(config.profile["csv"], config.dt)
    else:
        p = config.profile
        u_nom = synthetic_profile(
            kind=p["kind"],
            amplitude=float(p["amplitude"]),
            bias=float(p["bias"]),
            duration=float(p["duration"]),
            dt=config.dt,
            seed=int(p["seed"]),
        )

    ref_raw = config.reference
    soc_start = float(ref_raw.get("soc_start", config.x0.soc))
    reference = ReferenceTrajectory(
        soc_start=soc_start,
        soc_target=float(ref_raw["soc_target"]),
        t0=u_nom.t0,
        tf=u_nom.t_end,
        shape=str(ref_raw["shape"]),
    )
    return PreparedScenario(
        adv_params=adv_params,
        plant=plant,
        x0=config.x0,
        u_nom=u_nom,
        reference=reference,
        weights=config.weights,
        k_a=config.k_a,
        i_max=config.i_max,
        ka_values=config.ka_values,
    )


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """Full pipeline output: injection, masking (with the plant trajectories), summary."""

    input_attack: InputAttackResult
    stealth: StealthResult
    summary: ScenarioSummary


def run_scenario(prep: PreparedScenario) -> ScenarioRun:
    """Synthesize the injection, mask the output, and score the run."""
    atk = synthesize_input_attack(
        prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0, prep.i_max
    )
    masked = feedback_output_attack(prep.adv_params, prep.plant, prep.x0, prep.u_nom, atk, prep.k_a)
    nominal = masked.plant_nominal
    attacked = masked.plant_attacked
    summary = ScenarioSummary(
        final_soc_nominal=float(nominal.soc[-1]),
        final_soc_attacked=float(attacked.soc[-1]),
        residual_rms=masked.residual_rms,
        residual_max=masked.residual_max,
        attack_energy=metrics.attack_energy(atk.u_a),
        i_max_violated=atk.i_max_violated,
        soc_violation_nominal=nominal.soc_violation,
        soc_violation_attacked=attacked.soc_violation,
        ka_warning=masked.ka_warning,
    )
    return ScenarioRun(input_attack=atk, stealth=masked, summary=summary)


def sweep_scenario(prep: PreparedScenario, ka_values) -> KaSweepResult:
    """Synthesize the injection once, then sweep the masking gain."""
    atk = synthesize_input_attack(
        prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0, prep.i_max
    )
    return metrics.sweep_ka(prep.adv_params, prep.plant, prep.x0, prep.u_nom, atk, ka_values)
