"""Scalar reference code for the cell model and the feedback law.

The package computes these on whole trajectories (the stepping kernel,
the closed-loop rollout).  The one-sample versions below are written
independently of that code: a bisect lookup of the OCV curve, one exact
zero-order-hold step, and the feedback law with S and V interpolated
linearly in time.  Tests hold the package to them.
"""

import math
from bisect import bisect_right

import numpy as np

from voltmask import BatteryState, EcmParams, OcvCurve, RiccatiSolution


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


def riccati_at(riccati: RiccatiSolution, t: float) -> tuple[np.ndarray, np.ndarray]:
    """S(t) and V(t) by linear interpolation between grid nodes."""
    g = riccati.grid
    fuzz = 1e-9 * max(1.0, g[-1] - g[0])
    if t < g[0] - fuzz or t > g[-1] + fuzz:
        raise ValueError(f"t={t} outside sweep horizon [{g[0]}, {g[-1]}]")
    if t <= g[0]:
        return riccati.s[0].copy(), riccati.v[0].copy()
    if t >= g[-1]:
        return riccati.s[-1].copy(), riccati.v[-1].copy()
    j = int(np.searchsorted(g, t, side="right")) - 1
    w = (t - g[j]) / (g[j + 1] - g[j])
    s = (1.0 - w) * riccati.s[j] + w * riccati.s[j + 1]
    v = (1.0 - w) * riccati.v[j] + w * riccati.v[j + 1]
    return s, v


def attack_current(
    riccati: RiccatiSolution, b: np.ndarray, r: float, state: BatteryState, t: float
) -> float:
    """Feedback law u_a = -(1/r) b' (S(t) x - V(t))."""
    s, v = riccati_at(riccati, t)
    lam1 = s[0, 0] * state.soc + s[0, 1] * state.vc - v[0]
    lam2 = s[1, 0] * state.soc + s[1, 1] * state.vc - v[1]
    return -(float(b[0]) * lam1 + float(b[1]) * lam2) / r
