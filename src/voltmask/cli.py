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
from .ecm import (
    _REQUIRED,
    BatteryState,
    ConfigError,
    _checked,
    _read_field,
    _read_json_object,
    dump_params,
    load_params,
    simulate,
)
from .profiles import _write_csv, load_csv
from .scenario import PreparedScenario, load_scenario, prepare, run_scenario, sweep_scenario
from .sysid import extract_ocv, fit_rc

__all__ = ["main", "run"]


def _write_json(path: Path, payload: dict) -> None:
    """Write a flat payload as JSON; a non-finite number is a runtime error.

    JSON has no inf or nan, so such a value, alone or in a list, names
    its field instead of being written as a bare Infinity or NaN.
    """
    for key in sorted(payload):
        value = payload[key]
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, float) and not math.isfinite(item):
                raise FloatingPointError(f"{path.name}: field {key!r} is not finite ({item})")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _prepare(config_path: Path, seed: int | None) -> PreparedScenario:
    """The scenario at config_path, prepared with --seed as its noise seed if given.

    --seed follows the rule for the config seeds: a whole number.
    """
    config = load_scenario(config_path)
    if seed is not None:
        if _checked(seed, int) is None:
            raise ConfigError(f"--seed must be a whole number, got {seed}")
        config = replace(config, seed=seed)
    return prepare(config)


def _cmd_simulate(config_path: Path, out_dir: Path, seed: int | None) -> int:
    prep = _prepare(config_path, seed)
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
    prep = _prepare(config_path, seed)
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
    prep = _prepare(config_path, seed)
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


def _cmd_fit(config_path: Path, out_dir: Path) -> int:
    raw = _read_json_object(config_path)
    ctx = str(config_path)
    base = config_path.parent
    params = load_params(base / _read_field(raw, "initial_params_file", str, ctx, _REQUIRED))
    if "ocv" not in raw and "rc" not in raw:
        raise ConfigError(f"{ctx}: need an 'ocv' and/or 'rc' block, found neither")

    if "ocv" in raw:
        block = _read_field(raw, "ocv", dict, ctx, _REQUIRED)
        octx = f"{ctx}: ocv"
        dt = _read_field(block, "dt", float, octx, _REQUIRED)
        if dt <= 0:
            raise ConfigError(f"{octx}: field 'dt' must be positive, got {dt}")
        n_breakpoints = _read_field(block, "n_breakpoints", int, octx, 21)
        r0_guess = _read_field(block, "r0_guess", float, octx, None)
        charge = tuple(
            load_csv(base / _read_field(block, name, str, octx, _REQUIRED), dt)
            for name in ("charge_current_csv", "charge_voltage_csv")
        )
        discharge = tuple(
            load_csv(base / _read_field(block, name, str, octx, _REQUIRED), dt)
            for name in ("discharge_current_csv", "discharge_voltage_csv")
        )
        curve = extract_ocv(
            charge,
            discharge,
            capacity_q=params.capacity_q,
            n_breakpoints=n_breakpoints,
            r0_guess=r0_guess,
        )
        params = replace(params, ocv=curve)

    report = None
    if "rc" in raw:
        block = _read_field(raw, "rc", dict, ctx, _REQUIRED)
        rctx = f"{ctx}: rc"
        dt = _read_field(block, "dt", float, rctx, _REQUIRED)
        if dt <= 0:
            raise ConfigError(f"{rctx}: field 'dt' must be positive, got {dt}")
        current = load_csv(base / _read_field(block, "current_csv", str, rctx, _REQUIRED), dt)
        voltage = load_csv(base / _read_field(block, "voltage_csv", str, rctx, _REQUIRED), dt)
        frozen = _read_field(block, "frozen", [str], rctx, [])
        if "vc0" in block and "soc0" not in block:
            raise ConfigError(f"{rctx}: field 'vc0' is given without 'soc0'; give both or neither")
        x0 = None
        if "soc0" in block:
            x0 = BatteryState(
                _read_field(block, "soc0", float, rctx, _REQUIRED),
                _read_field(block, "vc0", float, rctx, 0.0),
            )
        try:
            report = fit_rc(params, (current, voltage), frozenset(frozen), x0=x0)
        except ValueError as exc:
            raise ConfigError(f"{rctx}: {exc}") from None
        params = report.fitted

    # the report goes first: _write_json checks it before writing, so a
    # fit that fails leaves nothing in out_dir
    if report is not None:
        _write_json(
            out_dir / "fit_report.json",
            {
                "rmse_V": report.rmse,
                "iterations": report.iterations,
                "converged": report.converged,
                "rmse_history": list(report.rmse_history),
                "damping_history": list(report.damping_history),
            },
        )
    dump_params(params, out_dir / "fitted_params.json")
    if report is not None:
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
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError; OSError: a bad path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, FloatingPointError, OverflowError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
