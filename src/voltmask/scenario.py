"""Scenario configs and the end-to-end attack pipeline.

A scenario JSON names the cell parameter file, the user's current
profile, the adversary's reference target and weights, the masking gain,
and optional plant overrides (true-parameter mismatch plus measurement
noise).  Relative paths inside a config resolve against the config
file's directory, so scenarios can be launched from anywhere.
"""

from __future__ import annotations

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
from .ecm import (
    _REQUIRED,
    _SCALAR_FIELDS,
    BatteryState,
    ConfigError,
    EcmParams,
    _read_field,
    _read_json_object,
    _read_scalars,
    load_params,
)
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

_PROFILE_SYNTH_KINDS = {"kind": str, "amplitude": float, "bias": float, "duration": float, "seed": int}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario file: every value checked and typed, paths absolute.

    u_nom is the profile, read from its CSV or built by synthetic_profile
    on the config's dt; reference spans its grid, its soc_start defaulted
    to x0.soc.
    """

    params_file: Path
    x0: BatteryState
    u_nom: TimeSeries
    reference: ReferenceTrajectory
    weights: AttackWeights
    k_a: float
    plant_overrides: dict
    noise_std: float
    seed: int
    i_max: float | None
    ka_values: tuple[float, ...]


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    raw = _read_json_object(path)
    ctx = str(path)
    base = path.parent

    params_file = base / _read_field(raw, "params_file", str, ctx, _REQUIRED)
    if not params_file.exists():
        raise ConfigError(f"{ctx}: params_file not found: {params_file}")
    dt = _read_scalars(raw, ["dt"], ctx)["dt"]

    x0_raw = _read_field(raw, "x0", dict, ctx, _REQUIRED)
    x0 = BatteryState(
        _read_field(x0_raw, "soc", float, f"{ctx}: x0", _REQUIRED),
        _read_field(x0_raw, "vc", float, f"{ctx}: x0", _REQUIRED),
    )

    profile_raw = _read_field(raw, "profile", dict, ctx, _REQUIRED)
    pctx = f"{ctx}: profile"
    if "csv" in profile_raw:
        csv_path = base / _read_field(profile_raw, "csv", str, pctx, _REQUIRED)
        if not csv_path.exists():
            raise ConfigError(f"{ctx}: profile csv not found: {csv_path}")
        u_nom = load_csv(csv_path, dt)
    else:
        missing = _PROFILE_SYNTH_KINDS.keys() - profile_raw.keys()
        if missing:
            raise ConfigError(
                f"{ctx}: profile needs either 'csv' or keys {sorted(_PROFILE_SYNTH_KINDS)}; "
                f"missing {sorted(missing)}"
            )
        profile = {
            key: _read_field(profile_raw, key, kind, pctx, _REQUIRED)
            for key, kind in _PROFILE_SYNTH_KINDS.items()
        }
        try:
            u_nom = synthetic_profile(dt=dt, **profile)
        except ValueError as exc:
            raise ConfigError(f"{pctx}: {exc}") from None

    ref_raw = _read_field(raw, "reference", dict, ctx, _REQUIRED)
    rctx = f"{ctx}: reference"
    if "soc_start" not in ref_raw and not 0.0 <= x0.soc <= 1.0:
        raise ConfigError(
            f"{rctx}: field 'soc_start' is absent, so it defaults to x0.soc, "
            f"which must then lie in [0, 1], got {x0.soc}"
        )
    ref_fields = {
        "soc_start": _read_field(ref_raw, "soc_start", float, rctx, x0.soc),
        "soc_target": _read_field(ref_raw, "soc_target", float, rctx, _REQUIRED),
        "shape": _read_field(ref_raw, "shape", str, rctx, _REQUIRED),
    }
    try:
        reference = ReferenceTrajectory(**ref_fields)
    except ValueError as exc:
        raise ConfigError(f"{rctx}: {exc}") from None

    w_raw = _read_field(raw, "weights", dict, ctx, _REQUIRED)
    wctx = f"{ctx}: weights"
    q1 = _read_field(w_raw, "q1", [float], wctx, _REQUIRED)
    q2 = _read_field(w_raw, "q2", [float], wctx, _REQUIRED)
    r = _read_field(w_raw, "r", float, wctx, _REQUIRED)
    for name, diag in (("q1", q1), ("q2", q2)):
        if len(diag) != 2:
            raise ConfigError(f"{wctx}: field {name!r} must be a [soc, vc] diagonal pair")
    try:
        weights = AttackWeights(q1=np.diag(q1), q2=np.diag(q2), r=r)
    except ValueError as exc:
        raise ConfigError(f"{wctx}: {exc}") from None

    k_a = _read_field(raw, "k_a", float, ctx, _REQUIRED)
    ka_values = tuple(_read_field(raw, "ka_values", [float], ctx, []))
    for name, gains in (("k_a", [k_a]), ("ka_values", ka_values)):
        if 1.0 in gains:
            raise ConfigError(f"{ctx}: field {name!r}: the gain 1 makes the masking singular")

    overrides = _read_field(raw, "plant_overrides", dict, ctx, {})
    octx = f"{ctx}: plant_overrides"
    bad = overrides.keys() - _SCALAR_FIELDS.keys() - {"noise_std", "seed"}
    if bad:
        raise ConfigError(f"{ctx}: unknown plant_overrides keys {sorted(bad)}")
    cell_overrides = _read_scalars(overrides, [k for k in overrides if k in _SCALAR_FIELDS], octx)
    noise_std = _read_field(overrides, "noise_std", float, octx, 0.0)
    if noise_std < 0:
        raise ConfigError(f"{octx}: field 'noise_std' must be >= 0, got {noise_std}")
    seed = _read_field(overrides, "seed", int, octx, 0)

    i_max = _read_field(raw, "i_max", float, ctx, None)
    if i_max is not None and i_max <= 0:
        raise ConfigError(f"{ctx}: field 'i_max' must be a positive number, got {i_max!r}")

    return ScenarioConfig(
        params_file=params_file,
        x0=x0,
        u_nom=u_nom,
        reference=reference,
        weights=weights,
        k_a=k_a,
        plant_overrides=cell_overrides,
        noise_std=noise_std,
        seed=seed,
        i_max=i_max,
        ka_values=ka_values,
    )


@dataclass(frozen=True)
class PreparedScenario:
    """Everything the pipeline needs, with the cell file loaded."""

    adv_params: EcmParams
    plant: PlantConfig
    x0: BatteryState
    u_nom: TimeSeries
    reference: ReferenceTrajectory
    weights: AttackWeights
    k_a: float
    i_max: float | None
    ka_values: tuple[float, ...]


def prepare(config: ScenarioConfig) -> PreparedScenario:
    """Load parameters and apply the plant overrides."""
    adv_params = load_params(config.params_file)
    true_params = adv_params
    if config.plant_overrides:
        fields = {
            _SCALAR_FIELDS[key]: value for key, value in config.plant_overrides.items()
        }
        true_params = replace(adv_params, **fields)
    plant = PlantConfig(true_params=true_params, noise_std=config.noise_std, seed=config.seed)
    return PreparedScenario(
        adv_params=adv_params,
        plant=plant,
        x0=config.x0,
        u_nom=config.u_nom,
        reference=config.reference,
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
    masked = feedback_output_attack(atk, prep.plant, prep.k_a)
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
    return metrics.sweep_ka(atk, prep.plant, ka_values)
