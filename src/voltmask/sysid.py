"""Parameter identification: OCV curve extraction and RC fitting.

extract_ocv recovers the open-circuit-voltage curve from a slow
charge/discharge sweep pair; fit_rc recovers the scalar cell parameters
from an excitation record by Levenberg-Marquardt least squares on exact
sensitivities of the simulated voltage.  Both are the
adversary's tooling for building the model the attack runs on.
load_fit_config reads a fit file, records included, for the two of them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import REQUIRED, ConfigError, read_field, read_json_object, read_path, read_scalars
from .ecm import (
    BatteryState,
    EcmParams,
    OcvCurve,
    _coulomb_counts,
    _interp_extrapolated,
    _rc_trajectory,
    _zoh_recurrence,
    invert_ocv,
    load_params,
)
from .profiles import TimeSeries, check_same_grid, load_csv

__all__ = ["OCV_GRID_POINTS", "FitConfig", "FitReport", "extract_ocv", "fit_rc", "load_fit_config"]

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
    # after each iteration: the rmse of the cell kept, and the damping tried
    rmse_history: tuple[float, ...]
    damping_history: tuple[float, ...]


def _pava_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto nondecreasing sequences.

    A stack of pooled (mean, size) blocks on plain floats, the active-set
    form of Best & Chakravarti (1990).
    """
    means, sizes = [], []
    for value in y.tolist():
        size = 1
        while means and means[-1] >= value:
            mean, count = means.pop(), sizes.pop()
            value = (mean * count + value * size) / (count + size)
            size += count
        means.append(value)
        sizes.append(size)
    return np.repeat(means, sizes)


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
    when both sweeps use the same current magnitude.  The averaged curve,
    on OCV_GRID_POINTS uniform SoC points, is projected onto nondecreasing
    sequences by pool-adjacent-violators and resampled at n_breakpoints (at
    most OCV_GRID_POINTS) uniform points pinned to 0 and 1, each at least
    _MIN_OCV_STEP above the one before.  Voltages so large that the
    curve overflows on the way are a ValueError naming the largest.
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
    bad = ~(np.diff(soc_chg) > 0)  # a NaN step, from an overflowed count, too
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"charge sweep SoC not strictly increasing at sample {k + 1}")
    bad = ~(np.diff(soc_dis) < 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"discharge sweep SoC not strictly decreasing at sample {k + 1}")

    lo = max(soc_chg[0], soc_dis[-1])
    hi = min(soc_chg[-1], soc_dis[0])
    if hi - lo < 0.9:
        raise ValueError(
            f"sweeps cover only [{lo:.3f}, {hi:.3f}] of the SoC range; "
            "need at least 0.9 of overlap"
        )

    s_fine = np.linspace(lo, hi, OCV_GRID_POINTS)
    breakpoints = np.linspace(0.0, 1.0, n_breakpoints)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        v_chg_f = np.interp(s_fine, soc_chg, v_chg.samples)
        v_dis_f = np.interp(s_fine, soc_dis[::-1], v_dis.samples[::-1])
        iso = _pava_increasing(0.5 * (v_chg_f + v_dis_f))
        values = _interp_extrapolated(breakpoints, s_fine, iso).tolist()
    if not all(map(math.isfinite, values)):
        peak = max(np.abs(v_chg.samples).max(), np.abs(v_dis.samples).max())
        raise ValueError(f"the ocv curve overflows: sweep voltages reach {peak} V")
    for j in range(1, n_breakpoints):
        values[j] = max(values[j], values[j - 1] + _MIN_OCV_STEP)
    return OcvCurve(tuple(breakpoints), tuple(values))


_FIT_NAMES = ("r0", "r1", "c1", "capacity_q")

# trial steps fit_rc takes at most; a rejected step counts as one
_MAX_ITERATIONS = 500
# an accepted step that lowers the rmse by less than this share ends the fit
_REL_TOL = 1e-6
# Marquardt's damping at the first step, and its factor on each rejection
_DAMPING0 = 1e-3
_DAMPING_FACTOR = 10.0
# the largest change of a log-parameter in one step (a factor e).  Far
# from the optimum the Gauss-Newton step in log space can be hundreds
# long and end on a flat limit such as r1 -> inf (a bare capacitor),
# where the fit would stop as if converged
_MAX_LOG_STEP = 1.0


def _ocv_slopes(curve: OcvCurve, soc: np.ndarray) -> np.ndarray:
    """Slope of the piecewise-linear OCV at each soc, the end segments extended.

    At a breakpoint the segment to its right counts (the last segment at 1).
    """
    s = np.asarray(curve.soc_breakpoints)
    slopes = np.diff(curve.ocv_volts) / np.diff(s)
    segment = np.clip(np.searchsorted(s, soc, side="right") - 1, 0, s.size - 2)
    return slopes[segment]


def _sensitivities(
    params: EcmParams,
    free: list[str],
    soc: np.ndarray,
    vc: np.ndarray,
    counts: np.ndarray,
    current: np.ndarray,
    dt: float,
) -> np.ndarray:
    """d voltage / d ln p along a trajectory, one row per name of free.

    soc and vc are the trajectory _rc_trajectory gives for params and
    the coulomb counts of current.  With alpha = exp(-dt/tau) and
    beta = r1 (1 - alpha), the r1 and c1 rows are -s for the
    recurrence s <- alpha s + d alpha vc + d beta i from s = 0; each
    costs one more zero-order-hold pass.
    """
    rows = np.empty((len(free), current.size))
    for row, name in zip(rows, free):
        if name == "r0":
            np.multiply(-params.r0, current, out=row)
        elif name == "capacity_q":
            scale = dt / params.capacity_q
            np.multiply(_ocv_slopes(params.ocv, soc), scale * counts, out=row)
        else:
            tau = params.tau1
            alpha = math.exp(-dt / tau)
            d_alpha = alpha * (dt / tau)  # the same for ln r1 and ln c1
            r1_d_alpha = params.r1 * d_alpha
            if name == "r1":
                d_beta = params.r1 * (1.0 - alpha) - r1_d_alpha
            else:
                d_beta = -r1_d_alpha
            drive = d_alpha * vc + d_beta * current
            row[:] = np.fromiter(
                _zoh_recurrence(alpha, 0.0, memoryview(drive)[:-1]), float, count=current.size
            )
            np.negative(row, out=row)
    return rows


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with a x = b for a symmetric positive definite a; None when
    rounding leaves a pivot that is not positive or x is not finite.

    Gaussian elimination, which such a matrix needs no pivoting for, on
    plain floats: the systems are at most 4 x 4, and a LAPACK call would
    allocate the BLAS buffers on its first use.
    """
    rows = [row + [rhs] for row, rhs in zip(a.tolist(), b.tolist())]
    k = len(rows)
    for j in range(k):
        pivot = rows[j][j]
        if not pivot > 0.0:
            return None
        for i in range(j + 1, k):
            factor = rows[i][j] / pivot
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[j])]
    x = [0.0] * k
    for j in reversed(range(k)):
        x[j] = (rows[j][k] - sum(rows[j][c] * x[c] for c in range(j + 1, k))) / rows[j][j]
    return np.array(x) if all(map(math.isfinite, x)) else None


def _levenberg_marquardt(
    initial: EcmParams,
    free: list[str],
    measured: np.ndarray,
    trajectory,
    jacobian,
) -> FitReport:
    """Least-squares fit of the free parameters of initial, over their logs.

    trajectory(params) gives the (soc, vc, voltage) a cell simulates to;
    jacobian(params, soc, vc) gives d voltage / d ln p along it, one
    row per name of free.  Each iteration solves
    (J'J + lam diag(J'J)) step = -J'err over the columns that are not
    all zero, Marquardt's scaling, shortens the step so that no
    log-parameter moves by more than 1, and scores it.  A step that
    does not raise the rmse is taken and divides lam by ten; any other,
    or one whose cell is invalid or simulates to a non-finite voltage,
    multiplies lam by ten.  The fit converges at a zero rmse, at a zero
    Jacobian, or when a taken step lowers the rmse by less than 1e-6 of
    it; it stops unconverged after 500 iterations or when the Jacobian
    is not finite.  A start that does not simulate to a finite rmse is
    returned at once, unconverged, with an infinite rmse.
    """

    def score(params):
        """(soc, vc, err, rmse) of params, or None if it does not simulate to a finite rmse."""
        # an overflow, here or in the rmse, rejects the candidate
        try:
            soc, vc, volts = trajectory(params)
        except ArithmeticError:  # exp or a division over- or underflowed
            return None
        if not np.isfinite(volts).all():
            return None
        with np.errstate(over="ignore"):
            err = volts - measured
            rmse = float(np.sqrt(np.mean(err * err)))
        return (soc, vc, err, rmse) if math.isfinite(rmse) else None

    def cell_at(x_log):
        values = {name: getattr(initial, name) for name in _FIT_NAMES}
        with np.errstate(over="ignore"):  # exp to inf, rejected by EcmParams
            values.update(zip(free, np.exp(x_log).tolist()))
        try:
            return EcmParams(ocv=initial.ocv, **values)
        except ValueError:
            return None

    def linearize(params, soc, vc, err):
        """J'J and J'err at params, J freed on return."""
        with np.errstate(over="ignore", invalid="ignore"):
            jac = jacobian(params, soc, vc)
            # plain sums of products: matmul would start BLAS (see _solve_spd)
            # and einsum load its own kernels, each some 0.3 MB more resident
            normal = np.array([[(a * b).sum() for b in jac] for a in jac])
            return normal, np.array([(a * err).sum() for a in jac])

    at = score(initial)
    if at is None:
        return FitReport(initial, math.inf, 0, False, (), ())
    params = initial
    # at is the (soc, vc, err) of params until the fit linearizes there;
    # only the rmse is kept while a step is tried, so that one trajectory
    # is held at a time
    *at, rmse = at
    x_log = np.array([math.log(getattr(initial, name)) for name in free])
    damping = _DAMPING0
    rmse_history: list[float] = []
    damping_history: list[float] = []
    converged = not free or rmse == 0.0
    while not converged and len(rmse_history) < _MAX_ITERATIONS:
        if at is not None:
            normal, gradient = linearize(params, *at)
            at = None
            if not (np.isfinite(normal).all() and np.isfinite(gradient).all()):
                break
            active = np.diag(normal) > 0.0
            if not active.any():
                converged = True  # the record does not move with any free parameter
                break
            normal = normal[np.ix_(active, active)]
            gradient = gradient[active]
            scale = np.diag(normal)
        step = np.zeros(x_log.size)
        trial = None
        solved = _solve_spd(normal + np.diag(damping * scale), -gradient)
        if solved is not None:  # else singular at this damping; a larger one is not
            step[active] = solved
            longest = np.abs(step).max()
            if longest > _MAX_LOG_STEP:
                step *= _MAX_LOG_STEP / longest
            cell = cell_at(x_log + step)
            trial = None if cell is None else score(cell)
        damping_history.append(damping)
        if trial is not None and trial[3] <= rmse:
            converged = trial[3] == 0.0 or rmse - trial[3] < _REL_TOL * rmse
            x_log = x_log + step
            params = cell
            *at, rmse = trial
            damping /= _DAMPING_FACTOR
        else:
            damping *= _DAMPING_FACTOR
        rmse_history.append(rmse)
    return FitReport(
        params, rmse, len(rmse_history), converged, tuple(rmse_history), tuple(damping_history)
    )


def fit_rc(
    initial: EcmParams,
    data: tuple[TimeSeries, TimeSeries],
    frozen: frozenset[str] | set[str] = frozenset(),
    x0: BatteryState | None = None,
) -> FitReport:
    """Fit r0, r1, c1 and/or capacity_q to an excitation record.

    data is a (current, voltage) pair on a shared grid.  Parameters named
    in frozen keep their initial values; the OCV curve is always taken
    from initial.  The fit is Levenberg-Marquardt over the log of the
    free parameters (positivity for free) on the voltage residuals of
    exact zero-order-hold simulation, with exact sensitivities for its
    Jacobian; see _levenberg_marquardt for its steps and stopping rules.

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
    dt = i_ts.dt
    # the coulomb counts depend on the current alone, so every candidate
    # shares them and runs only the RC recurrence
    counts = _coulomb_counts(current)

    def trajectory(params):
        return _rc_trajectory(params, x0.soc, x0.vc, counts, current, dt)

    def jacobian(params, soc, vc):
        return _sensitivities(params, free, soc, vc, counts, current, dt)

    return _levenberg_marquardt(initial, free, v_ts.samples, trajectory, jacobian)


@dataclass(frozen=True, eq=False)
class FitConfig:
    """Parsed fit file: the start cell and every record loaded, each value checked.

    charge and discharge are the ocv block's (current, voltage) pairs
    and record the rc block's; they are None when their block is absent.
    x0 is None when the rc block gives no soc0.
    """

    initial: EcmParams
    charge: tuple[TimeSeries, TimeSeries] | None
    discharge: tuple[TimeSeries, TimeSeries] | None
    n_breakpoints: int
    r0_guess: float | None
    record: tuple[TimeSeries, TimeSeries] | None
    frozen: frozenset[str]
    x0: BatteryState | None


def _read_records(block: dict, ctx: str, base: Path, *prefixes: str) -> list:
    """Per prefix, the files of <prefix>current_csv and <prefix>voltage_csv on the dt grid."""
    dt = read_scalars(block, ["dt"], ctx)["dt"]
    records = []
    for prefix in prefixes:
        fields = (f"{prefix}current_csv", f"{prefix}voltage_csv")
        i, v = (load_csv(read_path(block, f, ctx, base), dt) for f in fields)
        if (i.t0, len(i)) != (v.t0, len(v)):
            raise ConfigError(
                f"{ctx}: fields {fields[0]!r} and {fields[1]!r} give different grids: "
                f"{len(i)} samples from t={i.t0} and {len(v)} from t={v.t0}"
            )
        records.append((i, v))
    return records


def load_fit_config(path) -> FitConfig:
    """Read a fit file and load the start cell and every record it names.

    What extract_ocv and fit_rc would reject before computing is a ConfigError
    here that names the file, block and field: n_breakpoints out of range, an
    unknown frozen name, records of one pair on different grids, vc0 without soc0.
    """
    path = Path(path)
    raw = read_json_object(path)
    ctx, base = str(path), path.parent
    initial = load_params(read_path(raw, "initial_params_file", ctx, base))
    if "ocv" not in raw and "rc" not in raw:
        raise ConfigError(f"{ctx}: need an 'ocv' and/or 'rc' block, found neither")
    charge = discharge = record = x0 = None
    n_breakpoints, r0_guess, frozen = 21, None, frozenset()
    if "ocv" in raw:
        octx = f"{ctx}: ocv"
        block = read_field(raw, "ocv", dict, ctx, REQUIRED)
        n_breakpoints = read_field(block, "n_breakpoints", int, octx, 21)
        if not 2 <= n_breakpoints <= OCV_GRID_POINTS:
            raise ConfigError(
                f"{octx}: field 'n_breakpoints' must be 2 to {OCV_GRID_POINTS}, got {n_breakpoints}"
            )
        r0_guess = read_field(block, "r0_guess", float, octx, None)
        charge, discharge = _read_records(block, octx, base, "charge_", "discharge_")
    if "rc" in raw:
        rctx = f"{ctx}: rc"
        block = read_field(raw, "rc", dict, ctx, REQUIRED)
        (record,) = _read_records(block, rctx, base, "")
        frozen = frozenset(read_field(block, "frozen", [str], rctx, []))
        if not frozen <= set(_FIT_NAMES):
            raise ConfigError(
                f"{rctx}: field 'frozen' names {sorted(frozen - set(_FIT_NAMES))}, "
                f"not among {list(_FIT_NAMES)}"
            )
        if "vc0" in block and "soc0" not in block:
            raise ConfigError(f"{rctx}: field 'vc0' is given without 'soc0'; give both or neither")
        if "soc0" in block:
            soc0 = read_field(block, "soc0", float, rctx, REQUIRED)
            x0 = BatteryState(soc0, read_field(block, "vc0", float, rctx, 0.0))
    return FitConfig(initial, charge, discharge, n_breakpoints, r0_guess, record, frozen, x0)
