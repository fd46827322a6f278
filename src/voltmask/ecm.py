"""First-order equivalent-circuit battery cell.

The cell is an open-circuit-voltage source behind a series resistance r0
and one parallel RC branch (r1, c1).  The state is x = (soc, vc) where vc
is the RC branch voltage.  With positive current i meaning discharge:

    d soc / dt = -i / capacity_q
    d vc  / dt = -vc / (r1 c1) + i / c1
    v_terminal = ocv(soc) - vc - i * r0

which in state-space form is x' = A x + B i with

    A = [[0, 0], [0, -1/(r1 c1)]]        B = [-1/capacity_q, 1/c1]

Stepping is the exact zero-order-hold solution, so one step of 2*dt
equals two steps of dt up to rounding.  SoC is never clamped; excursions
outside [0, 1] are reported through a soc_violation flag (driving the
state out of range is precisely what an attack tries to do).

simulate runs the stepping kernel: a compensated coulomb count, then the
RC recurrence.  sysid.extract_ocv builds its SoC axis from the same
coulomb count, and invert_ocv reads the OCV curve through the same
interpolator as the kernel's terminal voltage.  The rest of the API is
the parameter and state types, state_matrices, and load_params /
dump_params.  load_params reads its file through the readers of
voltmask.config, as the scenario and fit configs are read, so every
config file has the same rules for what a number is.

All types are immutable values and all functions are pure, so they are
safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import REQUIRED, ConfigError, checked, read_field, read_json_object, read_scalars
from .profiles import TimeSeries

__all__ = [
    "OcvCurve",
    "EcmParams",
    "BatteryState",
    "SimulationResult",
    "invert_ocv",
    "state_matrices",
    "simulate",
    "load_params",
    "dump_params",
]


@dataclass(frozen=True)
class OcvCurve:
    """Piecewise-linear open-circuit voltage over state of charge.

    Breakpoints must start at soc 0.0, end at soc 1.0, and be strictly
    increasing in both coordinates so the map is invertible.  Evaluation
    outside [0, 1] extrapolates the end segments linearly.
    """

    soc_breakpoints: tuple[float, ...]
    ocv_volts: tuple[float, ...]

    def __post_init__(self):
        soc = tuple(float(s) for s in self.soc_breakpoints)
        val = tuple(float(v) for v in self.ocv_volts)
        object.__setattr__(self, "soc_breakpoints", soc)
        object.__setattr__(self, "ocv_volts", val)
        if len(soc) != len(val):
            raise ValueError(
                f"breakpoint count {len(soc)} != voltage count {len(val)}"
            )
        if len(soc) < 2:
            raise ValueError("ocv curve needs at least 2 breakpoints")
        if not all(math.isfinite(x) for x in soc + val):
            raise ValueError("ocv curve entries must be finite")
        if soc[0] != 0.0 or soc[-1] != 1.0:
            raise ValueError(
                f"soc breakpoints must span [0, 1] exactly, got [{soc[0]}, {soc[-1]}]"
            )
        for i in range(1, len(soc)):
            if soc[i] <= soc[i - 1]:
                raise ValueError(f"soc breakpoints not strictly increasing at index {i}")
            if val[i] <= val[i - 1]:
                raise ValueError(f"ocv values not strictly increasing at index {i}")


def _interp_extrapolated(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp with the end segments extended linearly instead of clamped."""
    out = np.interp(x, xp, fp)
    lo = x < xp[0]
    if lo.any():
        slope = (fp[1] - fp[0]) / (xp[1] - xp[0])
        out[lo] = slope * (x[lo] - xp[0]) + fp[0]
    hi = x > xp[-1]
    if hi.any():
        slope = (fp[-1] - fp[-2]) / (xp[-1] - xp[-2])
        out[hi] = slope * (x[hi] - xp[-1]) + fp[-1]
    return out


def _ocv_array(curve: OcvCurve, soc: np.ndarray) -> np.ndarray:
    return _interp_extrapolated(soc, np.asarray(curve.soc_breakpoints), np.asarray(curve.ocv_volts))


def invert_ocv(curve: OcvCurve, volts: float) -> float:
    """SoC at a given open-circuit voltage (the curve is strictly increasing).

    _ocv_array's interpolation with the axes swapped.
    """
    volts_axis = np.asarray(curve.ocv_volts)
    soc_axis = np.asarray(curve.soc_breakpoints)
    return float(_interp_extrapolated(np.array([volts], dtype=float), volts_axis, soc_axis)[0])


@dataclass(frozen=True)
class EcmParams:
    """Cell parameters.

    capacity_q  [A s]   charge capacity
    r0          [ohm]   series resistance
    r1          [ohm]   RC branch resistance
    c1          [F]     RC branch capacitance
    ocv                 open-circuit-voltage curve
    """

    capacity_q: float
    r0: float
    r1: float
    c1: float
    ocv: OcvCurve

    def __post_init__(self):
        for name in ("capacity_q", "r0", "r1", "c1"):
            value = checked(getattr(self, name), float)
            if value is None or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
            object.__setattr__(self, name, value)
        if not isinstance(self.ocv, OcvCurve):
            raise TypeError("ocv must be an OcvCurve")

    @property
    def tau1(self) -> float:
        """RC branch time constant r1*c1 [s]."""
        return self.r1 * self.c1


@dataclass(frozen=True)
class BatteryState:
    """State of charge (fraction, not clamped) and RC branch voltage [V]."""

    soc: float
    vc: float

    def __post_init__(self):
        if not (math.isfinite(self.soc) and math.isfinite(self.vc)):
            raise ValueError(f"state must be finite, got soc={self.soc}, vc={self.vc}")
        object.__setattr__(self, "soc", float(self.soc))
        object.__setattr__(self, "vc", float(self.vc))


def state_matrices(params: EcmParams) -> tuple[np.ndarray, np.ndarray]:
    """Read-only continuous-time (A, B) of x' = A x + B i for x = (soc, vc)."""
    a = np.array([[0.0, 0.0], [0.0, -1.0 / params.tau1]])
    b = np.array([-1.0 / params.capacity_q, 1.0 / params.c1])
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Trajectory arrays plus the terminal-voltage series.

    soc[k], vc[k] are the state at sample k (soc[0], vc[0] is x0);
    current[k] drives the step from sample k to k+1, so the final
    sample's current only affects its voltage reading.  soc_violation is
    computed on construction: whether soc ever leaves [0, 1].
    """

    soc: np.ndarray
    vc: np.ndarray
    voltage: TimeSeries
    soc_violation: bool = field(init=False)

    def __post_init__(self):
        self.soc.setflags(write=False)
        self.vc.setflags(write=False)
        violation = bool((self.soc < 0.0).any() or (self.soc > 1.0).any())
        object.__setattr__(self, "soc_violation", violation)


# The two recurrences below are generators that np.fromiter drains into a
# preallocated array: the arithmetic is on plain floats, no numpy scalar
# is made, no per-sample Python object is kept alive, and no sample is
# stored by index.


def _kahan_prefix_sums(items):
    """0.0, then the Kahan-compensated running sum after each item."""
    charge = 0.0
    comp = 0.0
    yield charge
    for i in items:
        y = i - comp
        t = charge + y
        comp = (t - charge) - y
        charge = t
        yield t


def _zoh_recurrence(alpha: float, v: float, drive):
    """v, then v = alpha * v + d for each d of drive."""
    yield v
    for d in drive:
        v = alpha * v + d
        yield v


def _coulomb_counts(current: np.ndarray) -> np.ndarray:
    """Running charge in sample units: counts[k] sums current[0..k-1].

    The compensated sum keeps each count within a few ulp of the exactly
    rounded sum regardless of length.  The counts depend on the current
    alone, so one record's counts serve every cell.
    """
    items = memoryview(current)[:-1]
    return np.fromiter(_kahan_prefix_sums(items), float, count=current.size)


def _rc_trajectory(
    params: EcmParams,
    soc0: float,
    vc0: float,
    counts: np.ndarray,
    current: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(soc, vc, voltage) from the coulomb counts of current.

    soc is the scaled counts and vc the zero-order-hold recurrence,
    the float operations of one stepping loop done in the same order.
    """
    alpha = math.exp(-dt / params.tau1)
    beta = params.r1 * (1.0 - alpha)
    # like the plain-float recurrence, a blown-up cell overflows to inf
    # silently; callers check the result
    with np.errstate(over="ignore", invalid="ignore"):
        soc = soc0 - (dt / params.capacity_q) * counts
        drive = np.multiply(beta, current, dtype=float)
    soc[0] = soc0  # as in the stepping loop, even where dt / capacity_q overflows
    vc = np.fromiter(
        _zoh_recurrence(alpha, vc0, memoryview(drive)[:-1]), float, count=current.size
    )
    return soc, vc, _terminal_voltages(params, soc, vc, current)


def _simulate_arrays(
    params: EcmParams, soc0: float, vc0: float, current: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stepping kernel on raw arrays; returns (soc, vc, voltage)."""
    return _rc_trajectory(params, soc0, vc0, _coulomb_counts(current), current, dt)


def _terminal_voltages(
    params: EcmParams, soc: np.ndarray, vc: np.ndarray, current: np.ndarray
) -> np.ndarray:
    """v = ocv(soc) - vc - i*r0 at every sample of a trajectory."""
    # a blown-up cell overflows to inf silently, as in _rc_trajectory
    with np.errstate(over="ignore", invalid="ignore"):
        return _ocv_array(params.ocv, soc) - vc - current * params.r0


def _voltage_series(current: TimeSeries, volts: np.ndarray) -> TimeSeries:
    """volts on the grid of current; a non-finite voltage is named with its first time."""
    bad = np.flatnonzero(~np.isfinite(volts))
    if bad.size:
        t, v = current.times()[bad[0]], volts[bad[0]]
        raise FloatingPointError(f"terminal voltage is not finite at t={t} ({v} V)")
    return current.with_samples(volts)


def simulate(params: EcmParams, x0: BatteryState, current: TimeSeries) -> SimulationResult:
    """Simulate the cell under a current profile.

    Returns the state trajectory aligned with the profile grid and the
    terminal-voltage series; voltage[k] is the reading of state k under
    current[k].
    """
    if not isinstance(current, TimeSeries):
        raise TypeError("current must be a TimeSeries")
    soc, vc, volts = _simulate_arrays(params, x0.soc, x0.vc, current.samples, current.dt)
    return SimulationResult(soc, vc, _voltage_series(current, volts))


# cell-file keys of the scalar parameters, and the EcmParams field each fills
_SCALAR_FIELDS = {"capacity_As": "capacity_q", "r0_ohm": "r0", "r1_ohm": "r1", "c1_farad": "c1"}


def load_params(path) -> EcmParams:
    """Load cell parameters from JSON.

    Schema: {"capacity_As": ..., "r0_ohm": ..., "r1_ohm": ...,
             "c1_farad": ..., "ocv": [[soc, volts], ...]}
    """
    raw = read_json_object(path)
    ctx = str(path)
    for key in (*_SCALAR_FIELDS, "ocv"):
        if key not in raw:
            raise ConfigError(f"{ctx}: missing key {key!r}")
    scalars = read_scalars(raw, _SCALAR_FIELDS, ctx)
    pairs = [checked(pair, [float]) for pair in read_field(raw, "ocv", list, ctx, REQUIRED)]
    if not all(pair is not None and len(pair) == 2 for pair in pairs):
        raise ConfigError(f"{ctx}: field 'ocv' must be a list of [soc, volts] number pairs")
    try:
        return EcmParams(
            **{_SCALAR_FIELDS[key]: value for key, value in scalars.items()},
            ocv=OcvCurve(
                soc_breakpoints=tuple(p[0] for p in pairs),
                ocv_volts=tuple(p[1] for p in pairs),
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None


def dump_params(params: EcmParams, path) -> None:
    """Write cell parameters as JSON (inverse of load_params)."""
    payload = {
        **{key: getattr(params, name) for key, name in _SCALAR_FIELDS.items()},
        "ocv": [
            [s, v] for s, v in zip(params.ocv.soc_breakpoints, params.ocv.ocv_volts)
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
