"""Command-line front end.

Subcommands:
  simulate   nominal (no-attack) plant simulation -> nominal.csv
  scenario   full attack pipeline -> attack.csv, riccati.csv, summary.json
  sweep      masking-gain sweep -> sweep.csv, argmin printed to stdout
  fit        parameter identification from CSV records -> fitted_params.json

Exit codes: 0 success, 2 config error, 3 runtime/numerical error.
The soc_violation and i_max_violated flags are reported in summary.json
but never fail a run; producing them is what an attack is for.  All
outputs are byte-deterministic for a given config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attack import DivergenceError
from .ecm import BatteryState, dump_params, load_params, simulate
from .profiles import _write_csv, load_csv
from .scenario import (
    ConfigError,
    load_scenario,
    prepare,
    run_scenario,
    sweep_scenario,
)
from .sysid import extract_ocv, fit_rc

__all__ = ["main", "run"]


def _write_json(path: Path, payload: dict) -> None:
    """Write a flat payload as JSON; a non-finite number is a runtime error.

    JSON has no inf or nan, so such a value names its field instead of
    being written as a bare Infinity or NaN.
    """
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise FloatingPointError(f"{path.name}: field {key!r} is not finite ({value})")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _cmd_simulate(config_path: Path, out_dir: Path, seed: int | None) -> int:
    config = load_scenario(config_path)
    prep = prepare(config, seed_override=seed)
    result = simulate(prep.plant.true_params, prep.x0, prep.u_nom)
    times = prep.u_nom.times()
    _write_csv(
        out_dir / "nominal.csv",
        ["t", "i", "soc", "vc", "v"],
        [times, prep.u_nom.samples, result.soc, result.vc, result.voltage.samples],
    )
    print(f"final soc {result.soc[-1]:.6f} (soc_violation={result.soc_violation})")
    return 0


def _cmd_scenario(config_path: Path, out_dir: Path, seed: int | None) -> int:
    config = load_scenario(config_path)
    prep = prepare(config, seed_override=seed)
    run = run_scenario(prep)
    times = prep.u_nom.times()
    atk = run.input_attack
    st = run.stealth
    i_applied = prep.u_nom.samples + atk.u_a.samples
    _write_csv(
        out_dir / "attack.csv",
        [
            "t",
            "u_nom",
            "u_a",
            "i_applied",
            "soc_nominal",
            "soc_attacked",
            "y_nom",
            "y_plant",
            "y_a",
            "y_measured",
        ],
        [
            times,
            prep.u_nom.samples,
            atk.u_a.samples,
            i_applied,
            st.plant_nominal.soc,
            st.plant_attacked.soc,
            st.y_nom.samples,
            st.y_plant.samples,
            st.y_a.samples,
            st.y_measured.samples,
        ],
    )
    ric = atk.riccati
    _write_csv(
        out_dir / "riccati.csv",
        ["t", "s11", "s12", "s22", "v1", "v2"],
        [
            ric.grid,
            ric.s[:, 0, 0],
            ric.s[:, 0, 1],
            ric.s[:, 1, 1],
            ric.v[:, 0],
            ric.v[:, 1],
        ],
    )
    s = run.summary
    _write_json(
        out_dir / "summary.json",
        {
            "final_soc_nominal": s.final_soc_nominal,
            "final_soc_attacked": s.final_soc_attacked,
            "residual_rms_V": s.residual_rms,
            "residual_max_V": s.residual_max,
            "attack_energy_A2s": s.attack_energy,
            "i_max_violated": s.i_max_violated,
            "soc_violation_nominal": s.soc_violation_nominal,
            "soc_violation_attacked": s.soc_violation_attacked,
            "ka_warning": s.ka_warning,
            "k_a": prep.k_a,
        },
    )
    print(
        f"final soc nominal {s.final_soc_nominal:.6f} attacked {s.final_soc_attacked:.6f} "
        f"residual_rms {s.residual_rms:.6e} V"
    )
    return 0


def _parse_ka_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--ka must be a comma-separated list of numbers, got {text!r}") from None


def _cmd_sweep(config_path: Path, out_dir: Path, seed: int | None, ka: str | None) -> int:
    config = load_scenario(config_path)
    prep = prepare(config, seed_override=seed)
    ka_values = _parse_ka_list(ka) if ka is not None else list(prep.ka_values)
    if not ka_values:
        raise ConfigError(
            f"{config_path}: no gains to sweep; set 'ka_values' in the config or pass --ka"
        )
    result = sweep_scenario(prep, ka_values)
    _write_csv(
        out_dir / "sweep.csv",
        ["k_a", "residual_rms_V"],
        [
            np.array([row[0] for row in result.rows]),
            np.array([row[1] for row in result.rows]),
        ],
    )
    print(f"argmin k_a = {result.argmin_ka} (residual_rms = {result.argmin_rms:.6e} V)")
    return 0


def _load_fit_config(config_path: Path) -> dict:
    if not config_path.exists():
        raise ConfigError(f"fit config not found: {config_path}")
    with open(config_path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{config_path}: expected a JSON object")
    return raw


def _number(block: dict, field: str, ctx: str) -> float:
    """block[field] as a float; a non-number, bool or non-finite value is a config error."""
    value = block[field]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{ctx}: field {field!r} must be a finite number, got {value!r}")


def _resolve_csv(base: Path, block: dict, field: str, ctx: str) -> Path:
    if field not in block:
        raise ConfigError(f"{ctx}: missing field {field!r}")
    path = base / str(block[field])
    if not path.exists():
        raise ConfigError(f"{ctx}: file not found: {path}")
    return path


def _cmd_fit(config_path: Path, out_dir: Path) -> int:
    raw = _load_fit_config(config_path)
    ctx = str(config_path)
    base = config_path.parent
    if "initial_params_file" not in raw:
        raise ConfigError(f"{ctx}: missing field 'initial_params_file'")
    params_path = base / str(raw["initial_params_file"])
    if not params_path.exists():
        raise ConfigError(f"{ctx}: initial_params_file not found: {params_path}")
    try:
        params = load_params(params_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if "ocv" not in raw and "rc" not in raw:
        raise ConfigError(f"{ctx}: need an 'ocv' and/or 'rc' block, found neither")

    if "ocv" in raw:
        block = raw["ocv"]
        if not isinstance(block, dict):
            raise ConfigError(f"{ctx}: field 'ocv' must be an object")
        octx = f"{ctx}: ocv"
        dt = block.get("dt")
        if not isinstance(dt, (int, float)) or isinstance(dt, bool) or dt <= 0:
            raise ConfigError(f"{octx}: field 'dt' must be a positive number")
        n_breakpoints = 21
        if "n_breakpoints" in block:
            n_breakpoints = _number(block, "n_breakpoints", octx)
            if not n_breakpoints.is_integer():
                raise ConfigError(
                    f"{octx}: field 'n_breakpoints' must be a whole number, got {n_breakpoints!r}"
                )
        r0_guess = None
        if block.get("r0_guess") is not None:
            r0_guess = _number(block, "r0_guess", octx)
        try:
            charge = (
                load_csv(_resolve_csv(base, block, "charge_current_csv", octx), dt),
                load_csv(_resolve_csv(base, block, "charge_voltage_csv", octx), dt),
            )
            discharge = (
                load_csv(_resolve_csv(base, block, "discharge_current_csv", octx), dt),
                load_csv(_resolve_csv(base, block, "discharge_voltage_csv", octx), dt),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        curve = extract_ocv(
            charge,
            discharge,
            capacity_q=params.capacity_q,
            n_breakpoints=int(n_breakpoints),
            r0_guess=r0_guess,
        )
        params = replace(params, ocv=curve)

    report = None
    if "rc" in raw:
        block = raw["rc"]
        if not isinstance(block, dict):
            raise ConfigError(f"{ctx}: field 'rc' must be an object")
        rctx = f"{ctx}: rc"
        dt = block.get("dt")
        if not isinstance(dt, (int, float)) or isinstance(dt, bool) or dt <= 0:
            raise ConfigError(f"{rctx}: field 'dt' must be a positive number")
        try:
            current = load_csv(_resolve_csv(base, block, "current_csv", rctx), dt)
            voltage = load_csv(_resolve_csv(base, block, "voltage_csv", rctx), dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        frozen = block.get("frozen", [])
        if not isinstance(frozen, list) or not all(isinstance(v, str) for v in frozen):
            raise ConfigError(f"{rctx}: field 'frozen' must be a list of parameter names")
        if "vc0" in block and "soc0" not in block:
            raise ConfigError(f"{rctx}: field 'vc0' is given without 'soc0'; give both or neither")
        x0 = None
        if "soc0" in block:
            vc0 = _number(block, "vc0", rctx) if "vc0" in block else 0.0
            x0 = BatteryState(_number(block, "soc0", rctx), vc0)
        try:
            report = fit_rc(params, (current, voltage), frozenset(frozen), x0=x0)
        except ValueError as exc:
            raise ConfigError(f"{rctx}: {exc}") from None
        params = report.fitted

    dump_params(params, out_dir / "fitted_params.json")
    if report is not None:
        _write_json(
            out_dir / "fit_report.json",
            {
                "rmse_V": report.rmse,
                "iterations": report.iterations,
                "converged": report.converged,
            },
        )
        print(
            f"fit rmse {report.rmse:.6e} V after {report.iterations} iterations "
            f"(converged={report.converged})"
        )
    else:
        print("wrote fitted_params.json (ocv extraction only)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voltmask",
        description=(
            "Synthesize stealthy current-injection attacks on a first-order "
            "equivalent-circuit battery cell and mask them in the measured voltage."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run the no-attack plant simulation"),
        ("scenario", "run the full attack pipeline"),
        ("sweep", "sweep the masking gain k_a"),
        ("fit", "identify cell parameters from CSV records"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="config JSON path")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if name != "fit":
            p.add_argument("--seed", type=int, default=None, help="override the plant noise seed")
        if name == "sweep":
            p.add_argument(
                "--ka",
                type=str,
                default=None,
                help="comma-separated gains; use --ka=-0.1,0,0.1 for negative values",
            )

    args = parser.parse_args(argv)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return _cmd_simulate(args.config, out_dir, args.seed)
        if args.command == "scenario":
            return _cmd_scenario(args.config, out_dir, args.seed)
        if args.command == "sweep":
            return _cmd_sweep(args.config, out_dir, args.seed, args.ka)
        return _cmd_fit(args.config, out_dir)
    except (ValueError, FileNotFoundError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, FloatingPointError, OverflowError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
