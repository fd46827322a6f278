"""Command-line front end.

Subcommands:
  simulate   nominal (no-attack) plant simulation -> nominal.csv
  scenario   full attack pipeline -> attack.csv, riccati.csv, summary.json
  sweep      masking-gain sweep -> sweep.csv, argmin printed to stdout
  fit        parameter identification from CSV records -> fitted_params.json

Exit codes go by stage: 0 success, 2 when reading the inputs fails (the
flags, --out, the config and every file it names), 3 when the run on the
loaded inputs fails.
The soc_violation and i_max_violated flags are reported in summary.json
but never fail a run; producing them is what an attack is for.  All
outputs are byte-deterministic for a given config and seed.

main() writes every output through a file it closes before it returns,
and leaves the process's garbage collector as it found it; run(), the
console script, then freezes the collector so that the interpreter's
exit skips its teardown collection.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import ConfigError, DivergenceError, checked
from .ecm import dump_params, simulate
from .profiles import write_csv as _write_csv  # bench/tracing.py times the writer by this name

# Each command imports the modules it runs when it runs: fit never loads
# the attack pipeline, and scenario, sweep and simulate never load sysid.
if TYPE_CHECKING:
    from .scenario import ScenarioConfig
    from .sysid import FitConfig

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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _soc_text(soc: float) -> str:
    """A SoC as printed on stdout: fixed point below 1e6 in magnitude and
    exponent form above, so that a runaway value stays a short line."""
    return f"{soc:.6f}" if abs(soc) < 1e6 else f"{soc:.6e}"


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one line on stderr, without its path and source line."""
    print(f"warning: {message}", file=sys.stderr)


# a gain in --ka: a decimal number, optionally signed and with an exponent
_GAIN = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*")


def _prepare(config_path: Path, seed: int | None, ka: str | None) -> ScenarioConfig:
    """The scenario at config_path, prepared with --seed as its noise seed
    and --ka as its ka_values if given.

    The flags follow the rules for the config's fields: --seed is a whole
    number, and --ka a comma-separated list of finite gains other than 1.
    """
    from .scenario import load_scenario, prepare

    config = load_scenario(config_path)
    if seed is not None and checked(seed, int) is None:
        raise ConfigError(f"--seed must be a whole number, got {seed}")
    gains = None
    if ka is not None:
        gains = tuple(float(tok) if _GAIN.fullmatch(tok) else math.nan for tok in ka.split(","))
        if not all(map(math.isfinite, gains)) or 1.0 in gains:
            raise ConfigError(f"--ka must be comma-separated finite gains other than 1, got {ka!r}")
    return prepare(config, seed, gains)


def _cmd_simulate(prep: ScenarioConfig, out_dir: Path) -> int:
    result = simulate(prep.plant.true_params, prep.x0, prep.u_nom)
    times = prep.u_nom.times()
    _write_csv(
        out_dir / "nominal.csv",
        ["t", "i", "soc", "vc", "v"],
        [times, prep.u_nom.samples, result.soc, result.vc, result.voltage.samples],
    )
    print(f"final soc {_soc_text(result.soc[-1])} (soc_violation={result.soc_violation})")
    return 0


def _cmd_scenario(prep: ScenarioConfig, out_dir: Path) -> int:
    from .scenario import run_scenario

    run = run_scenario(prep)
    s = run.summary
    # the summary goes first: _write_json checks it before writing, so a
    # run that fails leaves nothing in out_dir
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
    print(
        f"final soc nominal {_soc_text(s.final_soc_nominal)} "
        f"attacked {_soc_text(s.final_soc_attacked)} "
        f"residual_rms {s.residual_rms:.6e} V"
    )
    return 0


def _cmd_sweep(prep: ScenarioConfig, out_dir: Path) -> int:
    from .scenario import sweep_scenario

    result = sweep_scenario(prep, prep.ka_values)
    # _write_json's rule: a non-finite residual is named, and nothing is written
    for ka, rms in result.rows:
        if not math.isfinite(rms):
            raise FloatingPointError(
                f"sweep.csv: residual_rms_V at k_a = {ka} is not finite ({rms})"
            )
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


def _cmd_fit(config: FitConfig, out_dir: Path) -> int:
    from .sysid import extract_ocv, fit_rc

    params = config.initial
    if config.charge is not None:
        curve = extract_ocv(
            config.charge, config.discharge, params.capacity_q, config.n_breakpoints, config.r0_guess
        )
        params = replace(params, ocv=curve)

    if config.record is None:
        dump_params(params, out_dir / "fitted_params.json")
        print("wrote fitted_params.json (ocv extraction only)")
        return 0
    report = fit_rc(params, config.record, config.frozen, x0=config.x0)
    # the report goes first: _write_json checks it before writing, so a
    # fit that fails leaves nothing in out_dir
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
    dump_params(report.fitted, out_dir / "fitted_params.json")
    print(
        f"fit rmse {report.rmse:.6e} V after {report.iterations} iterations "
        f"(converged={report.converged})"
    )
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
    for name, help_text, command in (
        ("simulate", "run the no-attack plant simulation", _cmd_simulate),
        ("scenario", "run the full attack pipeline", _cmd_scenario),
        ("sweep", "sweep the masking gain k_a", _cmd_sweep),
        ("fit", "identify cell parameters from CSV records", _cmd_fit),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=command)
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
    # reading the inputs: anything raised here is the config's, a flag's or a path's
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "fit":
            from .sysid import load_fit_config

            loaded = load_fit_config(args.config)
        else:
            loaded = _prepare(args.config, args.seed, getattr(args, "ka", None))
            if args.command == "sweep" and not loaded.ka_values:
                raise ConfigError(
                    f"{args.config}: no gains to sweep; set 'ka_values' in the config or pass --ka"
                )
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError; OSError: a bad path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # running on the loaded inputs: anything raised here is the run's, and
    # a warning is shown by _show_warning until the run returns
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.run(loaded, args.out)
        except (ValueError, OSError, ArithmeticError, DivergenceError) as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 3


def run() -> None:
    """The console script and ``python -m voltmask.cli``: main() on
    sys.argv, its return value the exit code.

    By the time main() returns, every output has been written through a
    file it closed.  The interpreter still flushes stdout and stderr,
    runs the atexit handlers and clears the modules on exit, but its
    exit collections walk every object the imports made, about 22 000 of
    them and some 20 ms on a 2-core host; frozen, they are skipped, and
    the OS takes their memory back with the process.
    """
    import gc  # here alone: the library leaves the collector to the process

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
