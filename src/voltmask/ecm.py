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

All types are immutable values and all functions are pure, so they are
safe to share across threads.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .profiles import TimeSeries

__all__ = [
    "OcvCurve",
    "EcmParams",
    "BatteryState",
    "StateMatrices",
    "SimulationResult",
    "ocv",
    "invert_ocv",
    "state_matrices",
    "terminal_voltage",
    "step",
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


def ocv(curve: OcvCurve, soc: float) -> float:
    """Open-circuit voltage at soc, end segments extrapolated linearly."""
    s = curve.soc_breakpoints
    v = curve.ocv_volts
    if soc <= s[0]:
        j = 0
    elif soc >= s[-1]:
        j = len(s) - 2
    else:
        j = bisect_right(s, soc) - 1
    # same expression order as np.interp so scalar and array paths agree
    slope = (v[j + 1] - v[j]) / (s[j + 1] - s[j])
    if soc == s[j]:
        return v[j]
    return slope * (soc - s[j]) + v[j]


def invert_ocv(curve: OcvCurve, volts: float) -> float:
    """SoC at a given open-circuit voltage (the curve is strictly increasing)."""
    s = curve.soc_breakpoints
    v = curve.ocv_volts
    if volts <= v[0]:
        j = 0
    elif volts >= v[-1]:
        j = len(v) - 2
    else:
        j = bisect_right(v, volts) - 1
    slope = (s[j + 1] - s[j]) / (v[j + 1] - v[j])
    if volts == v[j]:
        return s[j]
    return slope * (volts - v[j]) + s[j]


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


def _is_real(value) -> bool:
    """A JSON or Python number; bool is an int subclass but not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, float(value))
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


@dataclass(frozen=True, eq=False)
class StateMatrices:
    """Continuous-time x' = A x + B i matrices for x = (soc, vc)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def state_matrices(params: EcmParams) -> StateMatrices:
    a = np.array([[0.0, 0.0], [0.0, -1.0 / params.tau1]])
    b = np.array([-1.0 / params.capacity_q, 1.0 / params.c1])
    return StateMatrices(a, b)


def terminal_voltage(params: EcmParams, state: BatteryState, current: float) -> float:
    """v = ocv(soc) - vc - i*r0.  Positive current sags the terminal voltage."""
    return ocv(params.ocv, state.soc) - state.vc - current * params.r0


def step(params: EcmParams, state: BatteryState, current: float, dt: float) -> BatteryState:
    """Advance one interval under constant current (exact zero-order hold)."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    alpha = math.exp(-dt / params.tau1)
    soc = state.soc - current * dt / params.capacity_q
    vc = state.vc * alpha + params.r1 * (1.0 - alpha) * current
    return BatteryState(soc, vc)


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

    def states(self) -> list[BatteryState]:
        return [BatteryState(s, v) for s, v in zip(self.soc, self.vc)]

    @property
    def final_state(self) -> BatteryState:
        return BatteryState(self.soc[-1], self.vc[-1])


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
    """terminal_voltage at every sample of a trajectory."""
    return _ocv_array(params.ocv, soc) - vc - current * params.r0


def simulate(params: EcmParams, x0: BatteryState, current: TimeSeries) -> SimulationResult:
    """Simulate the cell under a current profile.

    Returns the state trajectory aligned with the profile grid and the
    terminal-voltage series; voltage[k] equals
    terminal_voltage(params, state_k, current[k]).
    """
    if not isinstance(current, TimeSeries):
        raise TypeError("current must be a TimeSeries")
    soc, vc, volts = _simulate_arrays(params, x0.soc, x0.vc, current.samples, current.dt)
    return SimulationResult(soc, vc, current.with_samples(volts))


_SCALAR_KEYS = ("capacity_As", "r0_ohm", "r1_ohm", "c1_farad")
_PARAM_KEYS = (*_SCALAR_KEYS, "ocv")


def load_params(path) -> EcmParams:
    """Load cell parameters from JSON.

    Schema: {"capacity_As": ..., "r0_ohm": ..., "r1_ohm": ...,
             "c1_farad": ..., "ocv": [[soc, volts], ...]}
    """
    path = Path(path)
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in _PARAM_KEYS:
        if key not in raw:
            raise ValueError(f"{path}: missing key {key!r}")
    for key in _SCALAR_KEYS:
        if not _is_real(raw[key]):
            raise ValueError(f"{path}: field {key!r} must be a number, got {raw[key]!r}")
    pairs = raw["ocv"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_real(x) for x in p) for p in pairs
    ):
        raise ValueError(f"{path}: field 'ocv' must be a list of [soc, volts] number pairs")
    try:
        return EcmParams(
            capacity_q=raw["capacity_As"],
            r0=raw["r0_ohm"],
            r1=raw["r1_ohm"],
            c1=raw["c1_farad"],
            ocv=OcvCurve(
                soc_breakpoints=tuple(p[0] for p in pairs),
                ocv_volts=tuple(p[1] for p in pairs),
            ),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_params(params: EcmParams, path) -> None:
    """Write cell parameters as JSON (inverse of load_params)."""
    payload = {
        "capacity_As": params.capacity_q,
        "r0_ohm": params.r0,
        "r1_ohm": params.r1,
        "c1_farad": params.c1,
        "ocv": [
            [s, v] for s, v in zip(params.ocv.soc_breakpoints, params.ocv.ocv_volts)
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
