"""Stealthy current-injection attacks on a first-order battery cell model.

The package splits into the adversary's tooling (model, attack synthesis,
output masking, parameter identification) and scenario plumbing (configs,
metrics, CLI).  Positive current means discharge throughout.
"""

from .attack import (
    AttackWeights,
    DivergenceError,
    InputAttackResult,
    ReferenceTrajectory,
    RiccatiSolution,
    build_reference,
    solve_riccati,
    synthesize_input_attack,
)
from .config import ConfigError
from .ecm import (
    BatteryState,
    EcmParams,
    OcvCurve,
    SimulationResult,
    dump_params,
    invert_ocv,
    load_params,
    simulate,
    state_matrices,
)
from .metrics import (
    KaSweepResult,
    ScenarioSummary,
    attack_energy,
    select_argmin,
    sweep_ka,
)
from .profiles import TimeSeries, add, load_csv, save_csv, synthetic_profile
from .scenario import (
    ScenarioConfig,
    ScenarioRun,
    load_scenario,
    prepare,
    run_scenario,
    sweep_scenario,
)
from .stealth import (
    PlantConfig,
    StealthResult,
    feedback_output_attack,
)
from .sysid import FitConfig, FitReport, extract_ocv, fit_rc, load_fit_config

__version__ = "0.1.0"
