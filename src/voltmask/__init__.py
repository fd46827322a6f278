"""Stealthy current-injection attacks on a first-order battery cell model.

The package splits into the adversary's tooling (model, attack synthesis,
output masking, parameter identification) and scenario plumbing (configs,
metrics, CLI).  Positive current means discharge throughout.

``import voltmask`` loads no submodule: a module is imported the first
time it, or one of its public names, is looked up on the package, so a
program loads only the modules whose names it uses.
"""

import importlib

# the module each public name is exported from
_MODULES = {
    "attack": (
        "AttackWeights", "InputAttackResult", "ReferenceTrajectory", "RiccatiSolution",
        "build_reference", "solve_riccati", "synthesize_input_attack",
    ),
    "config": ("ConfigError", "DivergenceError"),
    "ecm": (
        "BatteryState", "EcmParams", "OcvCurve", "SimulationResult", "dump_params",
        "invert_ocv", "load_params", "simulate", "state_matrices",
    ),
    "metrics": ("KaSweepResult", "ScenarioSummary", "attack_energy", "select_argmin", "sweep_ka"),
    "profiles": ("TimeSeries", "add", "load_csv", "save_csv", "synthetic_profile"),
    "scenario": (
        "ScenarioConfig", "ScenarioRun", "load_scenario", "prepare", "run_scenario",
        "sweep_scenario",
    ),
    "stealth": ("PlantConfig", "StealthResult", "feedback_output_attack"),
    "sysid": ("FitConfig", "FitReport", "extract_ocv", "fit_rc", "load_fit_config"),
}  # fmt: skip
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(__getattr__(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES, *__all__})
