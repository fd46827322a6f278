"""Scenario configs and the end-to-end attack pipeline.

A scenario JSON names the adversary's cell parameter file, the user's
current profile, the adversary's reference target and weights, the
masking gain, and optional plant overrides (true-parameter mismatch
plus measurement noise).  load_scenario reads it into one
ScenarioConfig: the adversary's model and the true plant it attacks,
with the cell file and the profile loaded.  Relative paths inside a
config resolve against the config file's directory, so scenarios can
be launched from anywhere.
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
from .config import (
    REQUIRED,
    ConfigError,
    read_block,
    read_field,
    read_json_object,
    read_path,
    read_scalars,
)
from .ecm import _SCALAR_FIELDS, BatteryState, EcmParams, _in_file_terms, load_params
from .metrics import KaSweepResult, ScenarioSummary
from .profiles import TimeSeries, load_csv, synthetic_profile
from .stealth import PlantConfig, StealthResult, feedback_output_attack

__all__ = [
    "ScenarioConfig",
    "ScenarioRun",
    "load_scenario",
    "prepare",
    "run_scenario",
    "sweep_scenario",
]

_PROFILE_SYNTH_KINDS = {"kind": str, "amplitude": float, "bias": float, "duration": float, "seed": int}
_SCENARIO_KEYS = (
    "params_file", "dt", "x0", "profile", "reference", "weights", "k_a", "i_max", "ka_values",
    "plant_overrides",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario: the adversary's model, the true plant, and the attack's settings.

    adv_params is the cell file's model; plant holds the true cell (the
    model with plant_overrides applied) and the measurement noise's
    noise_std and seed.  u_nom is the profile, read from its CSV or
    built by synthetic_profile on the config's dt; reference spans its
    grid, its soc_start defaulted to x0.soc.
    """

    adv_params: EcmParams
    plant: PlantConfig
    x0: BatteryState
    u_nom: TimeSeries
    reference: ReferenceTrajectory
    weights: AttackWeights
    k_a: float
    i_max: float | None
    ka_values: tuple[float, ...]


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario file and load the cell file and profile it names.

    Every field is checked before the cell file is loaded, so a bad
    field is reported before a bad cell file.  The profile is built
    where its field is read, into u_nom: a CSV profile by load_csv, whose
    errors name the CSV file and line, and a synthetic one by
    synthetic_profile, whose errors start with "<config>: profile:".
    """
    path = Path(path)
    raw = read_json_object(path, _SCENARIO_KEYS)
    ctx = str(path)
    base = path.parent

    params_file = read_path(raw, "params_file", ctx, base)
    dt = read_scalars(raw, ["dt"], ctx)["dt"]

    x0_raw = read_block(raw, "x0", ("soc", "vc"), ctx)
    x0 = BatteryState(
        read_field(x0_raw, "soc", float, f"{ctx}: x0", REQUIRED),
        read_field(x0_raw, "vc", float, f"{ctx}: x0", REQUIRED),
    )

    profile_raw = read_block(raw, "profile", ("csv", *_PROFILE_SYNTH_KINDS), ctx)
    pctx = f"{ctx}: profile"
    if "csv" in profile_raw:
        read_block(raw, "profile", ("csv",), ctx)  # a CSV profile reads no synthetic key
        csv_path = read_path(profile_raw, "csv", pctx, base, f"{ctx}: profile csv")
        u_nom = load_csv(csv_path, dt)
    else:
        missing = _PROFILE_SYNTH_KINDS.keys() - profile_raw.keys()
        if missing:
            raise ConfigError(
                f"{ctx}: profile needs either 'csv' or keys {sorted(_PROFILE_SYNTH_KINDS)}; "
                f"missing {sorted(missing)}"
            )
        profile = {
            key: read_field(profile_raw, key, kind, pctx, REQUIRED)
            for key, kind in _PROFILE_SYNTH_KINDS.items()
        }
        try:
            u_nom = synthetic_profile(dt=dt, **profile)
        except ValueError as exc:
            raise ConfigError(f"{pctx}: {exc}") from None

    ref_raw = read_block(raw, "reference", ("soc_start", "soc_target", "shape"), ctx)
    rctx = f"{ctx}: reference"
    if "soc_start" not in ref_raw and not 0.0 <= x0.soc <= 1.0:
        raise ConfigError(
            f"{rctx}: field 'soc_start' is absent, so it defaults to x0.soc, "
            f"which must then lie in [0, 1], got {x0.soc}"
        )
    ref_fields = {
        "soc_start": read_field(ref_raw, "soc_start", float, rctx, x0.soc),
        "soc_target": read_field(ref_raw, "soc_target", float, rctx, REQUIRED),
        "shape": read_field(ref_raw, "shape", str, rctx, REQUIRED),
    }
    try:
        reference = ReferenceTrajectory(**ref_fields)
    except ValueError as exc:
        raise ConfigError(f"{rctx}: {exc}") from None

    w_raw = read_block(raw, "weights", ("q1", "q2", "r"), ctx)
    wctx = f"{ctx}: weights"
    q1 = read_field(w_raw, "q1", [float], wctx, REQUIRED)
    q2 = read_field(w_raw, "q2", [float], wctx, REQUIRED)
    r = read_field(w_raw, "r", float, wctx, REQUIRED)
    for name, diag in (("q1", q1), ("q2", q2)):
        if len(diag) != 2:
            raise ConfigError(f"{wctx}: field {name!r} must be a [soc, vc] diagonal pair")
    try:
        weights = AttackWeights(q1=np.diag(q1), q2=np.diag(q2), r=r)
    except ValueError as exc:
        raise ConfigError(f"{wctx}: {exc}") from None

    k_a = read_field(raw, "k_a", float, ctx, REQUIRED)
    ka_values = tuple(read_field(raw, "ka_values", [float], ctx, []))
    for name, gains in (("k_a", [k_a]), ("ka_values", ka_values)):
        if 1.0 in gains:
            raise ConfigError(f"{ctx}: field {name!r}: the gain 1 makes the masking singular")

    overrides = read_block(raw, "plant_overrides", (*_SCALAR_FIELDS, "noise_std", "seed"), ctx, {})
    octx = f"{ctx}: plant_overrides"
    overridden = read_scalars(overrides, [k for k in overrides if k in _SCALAR_FIELDS], octx)
    noise_std = read_field(overrides, "noise_std", float, octx, 0.0)
    if noise_std < 0:
        raise ConfigError(f"{octx}: field 'noise_std' must be >= 0, got {noise_std}")
    seed = read_field(overrides, "seed", int, octx, 0)

    i_max = read_field(raw, "i_max", float, ctx, None)
    if i_max is not None and i_max <= 0:
        raise ConfigError(f"{ctx}: field 'i_max' must be a positive number, got {i_max!r}")

    adv_params = load_params(params_file)
    try:
        true_params = replace(adv_params, **{_SCALAR_FIELDS[k]: v for k, v in overridden.items()})
    except ValueError as exc:
        raise ConfigError(f"{octx}: {_in_file_terms(exc)}") from None
    return ScenarioConfig(
        adv_params=adv_params,
        plant=PlantConfig(true_params=true_params, noise_std=noise_std, seed=seed),
        x0=x0,
        u_nom=u_nom,
        reference=reference,
        weights=weights,
        k_a=k_a,
        i_max=i_max,
        ka_values=ka_values,
    )


def prepare(config: ScenarioConfig, seed: int | None = None, ka_values=None) -> ScenarioConfig:
    """config with seed as its plant's noise seed and ka_values as its gains, where given.

    This is where a run's seed and gains are applied; with neither,
    config is returned as it is.
    """
    if seed is not None:
        config = replace(config, plant=replace(config.plant, seed=seed))
    if ka_values is not None:
        config = replace(config, ka_values=tuple(ka_values))
    return config


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """Full pipeline output: injection, masking (with the plant trajectories), summary."""

    input_attack: InputAttackResult
    stealth: StealthResult
    summary: ScenarioSummary


def run_scenario(prep: ScenarioConfig) -> ScenarioRun:
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


def sweep_scenario(prep: ScenarioConfig, ka_values) -> KaSweepResult:
    """Synthesize the injection once, then sweep the masking gain."""
    atk = synthesize_input_attack(
        prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0, prep.i_max
    )
    return metrics.sweep_ka(atk, prep.plant, ka_values)
