"""Parameter identification: OCV curve extraction and RC fitting.

extract_ocv recovers the open-circuit-voltage curve from a slow
charge/discharge sweep pair; fit_rc recovers the scalar cell parameters
from an excitation record by derivative-free search.  Both are the
adversary's tooling for building the model the attack runs on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ecm import (
    BatteryState,
    EcmParams,
    OcvCurve,
    _coulomb_counts,
    _interp_extrapolated,
    _rc_trajectory,
    invert_ocv,
)
from .profiles import TimeSeries, check_same_grid

__all__ = ["OCV_GRID_POINTS", "FitReport", "extract_ocv", "fit_rc"]

# minimal slope enforced between recovered breakpoints [V per unit soc step]
_MIN_OCV_STEP = 1e-6

# points of the SoC grid the averaged sweeps are resampled on; more
# breakpoints than this would only interpolate between its points
OCV_GRID_POINTS = 2001


@dataclass(frozen=True)
class FitReport:
    """Outcome of fit_rc."""

    fitted: EcmParams
    rmse: float
    iterations: int
    converged: bool


def _pava_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto nondecreasing sequences."""
    n = y.size
    values = np.empty(n)
    weights = np.empty(n)
    starts = np.empty(n, dtype=int)
    m = 0
    for i in range(n):
        values[m] = y[i]
        weights[m] = 1.0
        starts[m] = i
        m += 1
        while m > 1 and values[m - 2] >= values[m - 1]:
            pooled = (
                values[m - 2] * weights[m - 2] + values[m - 1] * weights[m - 1]
            ) / (weights[m - 2] + weights[m - 1])
            values[m - 2] = pooled
            weights[m - 2] += weights[m - 1]
            m -= 1
    out = np.empty(n)
    for j in range(m):
        end = starts[j + 1] if j + 1 < m else n
        out[starts[j] : end] = values[j]
    return out


def extract_ocv(
    charge: tuple[TimeSeries, TimeSeries],
    discharge: tuple[TimeSeries, TimeSeries],
    capacity_q: float,
    n_breakpoints: int = 21,
    r0_guess: float | None = None,
) -> OcvCurve:
    """Recover the OCV curve from a slow full charge/discharge pair.

    charge and discharge are (current, voltage) series pairs.  The charge
    sweep is assumed to start from an empty cell (SoC 0) and the
    discharge sweep from a full cell (SoC 1); SoC along each sweep is
    coulomb-counted from those anchors by the stepping kernel's
    compensated count.  Charge and discharge voltages are averaged at
    matched SoC, which cancels ohmic drop and hysteresis to first order
    when both sweeps use the same current magnitude.  The averaged curve
    is projected onto increasing sequences and resampled at n_breakpoints
    uniform SoC points with the endpoints pinned to 0 and 1; at most
    OCV_GRID_POINTS, the size of the grid the averaged curve is resampled on.
    """
    if not 2 <= n_breakpoints <= OCV_GRID_POINTS:
        raise ValueError(
            f"n_breakpoints must be from 2 to {OCV_GRID_POINTS}, got {n_breakpoints}"
        )
    if not (capacity_q > 0 and math.isfinite(capacity_q)):
        raise ValueError(f"capacity_q must be positive, got {capacity_q}")
    i_chg, v_chg = charge
    i_dis, v_dis = discharge
    check_same_grid(i_chg, v_chg)
    check_same_grid(i_dis, v_dis)

    if r0_guess is not None:
        worst = max(np.abs(i_chg.samples).max(), np.abs(i_dis.samples).max())
        with np.errstate(over="ignore"):  # an overflow is an infinite drop, warned about
            drop = worst * r0_guess
        if drop > 0.010:
            warnings.warn(
                f"sweep current is not small: max |i|*r0 = {drop:.4f} V "
                "of ohmic drop will bias the recovered curve",
                stacklevel=2,
            )

    soc_chg = 0.0 - (i_chg.dt / capacity_q) * _coulomb_counts(i_chg.samples)
    soc_dis = 1.0 - (i_dis.dt / capacity_q) * _coulomb_counts(i_dis.samples)
    d_chg = np.diff(soc_chg)
    if (d_chg <= 0).any():
        k = int(np.argmax(d_chg <= 0))
        raise ValueError(f"charge sweep SoC not strictly increasing at sample {k + 1}")
    d_dis = np.diff(soc_dis)
    if (d_dis >= 0).any():
        k = int(np.argmax(d_dis >= 0))
        raise ValueError(f"discharge sweep SoC not strictly decreasing at sample {k + 1}")

    lo = max(soc_chg[0], soc_dis[-1])
    hi = min(soc_chg[-1], soc_dis[0])
    if hi - lo < 0.9:
        raise ValueError(
            f"sweeps cover only [{lo:.3f}, {hi:.3f}] of the SoC range; "
            "need at least 0.9 of overlap"
        )

    s_fine = np.linspace(lo, hi, OCV_GRID_POINTS)
    v_chg_f = np.interp(s_fine, soc_chg, v_chg.samples)
    v_dis_f = np.interp(s_fine, soc_dis[::-1], v_dis.samples[::-1])
    avg = 0.5 * (v_chg_f + v_dis_f)
    iso = _pava_increasing(avg)

    breakpoints = np.linspace(0.0, 1.0, n_breakpoints)
    values = _interp_extrapolated(breakpoints, s_fine, iso)
    for j in range(1, n_breakpoints):
        floor = values[j - 1] + _MIN_OCV_STEP
        if values[j] < floor:
            values[j] = floor
    return OcvCurve(tuple(breakpoints), tuple(values))


_FIT_NAMES = ("r0", "r1", "c1", "capacity_q")


def _log_pattern_search(objective, x0_log, max_iter=500, rel_tol=1e-6, step0=0.25):
    """Compass search over log-parameters; best value never increases.

    Each iteration polls +-step along every axis and takes the best
    improving move.  A poll with no improvement halves every step.
    Terminates when an accepted move improves the objective by less than
    rel_tol relative, when the steps collapse, or at max_iter.  Returns
    (x, f, iterations, converged, history of best f per iteration).
    """
    x = np.array(x0_log, dtype=float)
    fx = objective(x)
    steps = np.full(x.size, step0)
    history = [fx]
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        iterations = it
        best_f = fx
        best_x = None
        for j in range(x.size):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[j] += sign * steps[j]
                fc = objective(cand)
                if fc < best_f:
                    best_f = fc
                    best_x = cand
        if best_x is None:
            steps *= 0.5
            if steps.max() < 1e-7:
                converged = True
                history.append(fx)
                break
        else:
            improvement = (fx - best_f) / fx if math.isfinite(fx) and fx > 0 else math.inf
            x = best_x
            fx = best_f
            if improvement < rel_tol:
                converged = True
                history.append(fx)
                break
        history.append(fx)
    return x, fx, iterations, converged, history


def fit_rc(
    initial: EcmParams,
    data: tuple[TimeSeries, TimeSeries],
    frozen: frozenset[str] | set[str] = frozenset(),
    x0: BatteryState | None = None,
) -> FitReport:
    """Fit r0, r1, c1 and/or capacity_q to an excitation record.

    data is a (current, voltage) pair on a shared grid.  Parameters named
    in frozen keep their initial values; the OCV curve is always taken
    from initial.  The search runs in log space (positivity for free) and
    scores candidates by voltage RMSE under exact zero-order-hold
    simulation; candidates whose simulation blows up score +inf.

    If x0 is not given, vc is assumed 0 at the first sample and the
    starting SoC is inverted from the first voltage after removing the
    ohmic drop with the initial r0 (start the record at rest for an exact
    anchor).
    """
    unknown = set(frozen) - set(_FIT_NAMES)
    if unknown:
        raise ValueError(f"unknown frozen parameter names: {sorted(unknown)}")
    i_ts, v_ts = data
    check_same_grid(i_ts, v_ts)
    free = [name for name in _FIT_NAMES if name not in frozen]

    if x0 is None:
        soc0 = invert_ocv(initial.ocv, v_ts.samples[0] + i_ts.samples[0] * initial.r0)
        x0 = BatteryState(soc0, 0.0)

    current = i_ts.samples
    measured = v_ts.samples
    dt = i_ts.dt
    base = {name: getattr(initial, name) for name in _FIT_NAMES}
    # the coulomb counts depend on the current alone, so every candidate
    # shares them and runs only the RC recurrence
    counts = _coulomb_counts(current)

    def rmse_for(params: EcmParams) -> float:
        try:
            _, _, volts = _rc_trajectory(params, x0.soc, x0.vc, counts, current, dt)
        except (OverflowError, FloatingPointError):
            return math.inf
        if not np.isfinite(volts).all():
            return math.inf
        with np.errstate(over="ignore"):  # an overflow is an infinite rmse, a rejected candidate
            err = volts - measured
            return float(np.sqrt(np.mean(err * err)))

    if not free:
        return FitReport(fitted=initial, rmse=rmse_for(initial), iterations=0, converged=True)

    def objective(x_log: np.ndarray) -> float:
        trial = dict(base)
        for name, value in zip(free, x_log):
            trial[name] = math.exp(value)
        try:
            params = EcmParams(ocv=initial.ocv, **trial)
        except ValueError:
            return math.inf
        return rmse_for(params)

    x0_log = np.array([math.log(base[name]) for name in free])
    x_log, fx, iterations, converged, _ = _log_pattern_search(objective, x0_log)
    fitted_values = dict(base)
    for name, value in zip(free, x_log):
        fitted_values[name] = math.exp(value)
    fitted = EcmParams(ocv=initial.ocv, **fitted_values)
    return FitReport(fitted=fitted, rmse=fx, iterations=iterations, converged=converged)
