"""Optimal input-current attack synthesis by a backward Riccati sweep.

The adversary injects an additional current u_a on top of the user's
profile u_nom and wants the state X = (soc, vc) to follow a reference
trajectory X_ref (typically a ramp from the present SoC to an over-charge
or over-discharge target) at minimal injection effort.  The cost is the
finite-horizon quadratic tracker

    J = 1/2 (X(tf)-X_ref(tf))' Q1 (X(tf)-X_ref(tf))
      + 1/2 int (X-X_ref)' Q2 (X-X_ref) + r u_a^2 dt

over the linear cell dynamics X' = A X + B (u_nom + u_a).  The optimal
injection is the time-varying state feedback

    u_a(t) = -(1/r) B' (S(t) X(t) - V(t))

where S (2x2, symmetric) and V (2-vector) solve, backward from tf,

    S' = -(S A + A' S - S B r^-1 B' S + Q2)          S(tf) = Q1
    V' = -(A' V - S B r^-1 B' V - S B u_nom + Q2 X_ref)   V(tf) = Q1 X_ref(tf)

The sweep is integrated with classic 4th-order Runge-Kutta, stepping
back by the profile's dt; u_nom and X_ref are linearly interpolated at
the half-step stage points.  Step size and position come from the
uniform grid (t0, dt, n) alone, never from differences of rounded grid
times, so no output but a time column depends on the profile's t0.  Once
S is stationary bit for bit, every remaining V step is one fixed affine
map, whose coefficients are that same RK4 step applied to unit inputs.
The synthesized trajectory is then rolled out forward with the exact
zero-order-hold cell model, closing the loop on the adversary's own
simulated state.

solve_riccati runs the sweep alone, rejects an S that left the positive
semidefinite cone, and returns a RiccatiSolution on the profile grid.
synthesize_input_attack runs it, rejects a zero-order-hold closed loop
that is unstable where S is stationary (h*lambda > 2 on the SoC
channel, which the RK4 sweep itself survives up to about 2.785), and
then runs the rollout, which evaluates the feedback law at the grid
nodes only; S and V are never interpolated in time.  build_reference
samples X_ref at the n points of a uniform grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .ecm import BatteryState, EcmParams, SimulationResult, state_matrices
from .ecm import _terminal_voltages, _voltage_series
from .profiles import TimeSeries

__all__ = [
    "AttackWeights",
    "ReferenceTrajectory",
    "RiccatiSolution",
    "InputAttackResult",
    "DivergenceError",
    "build_reference",
    "solve_riccati",
    "synthesize_input_attack",
]


class DivergenceError(RuntimeError):
    """The synthesis failed numerically: the backward sweep went non-finite or
    left the positive semidefinite cone, or the closed loop is unstable or
    went non-finite in the forward rollout."""


def _check_weight_matrix(name: str, q: np.ndarray) -> None:
    if q.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError(f"{name} must be finite")
    tol = 1e-12 * max(1.0, float(np.abs(q).max()))
    if float(np.abs(q - q.T).max()) > tol:
        raise ValueError(f"{name} must be symmetric to 1e-12")
    if float(np.linalg.eigvalsh(q).min()) < -tol:
        raise ValueError(f"{name} must be positive semidefinite (eigenvalues >= -1e-12)")


@dataclass(frozen=True, eq=False)
class AttackWeights:
    """Tracking weights (q1 terminal, q2 running, r > 0 on injection effort).

    Defaults are the documented baseline diag(1e4, 0), diag(10, 0), 1;
    shipped scenario files record their own, scaled to the cell capacity.
    """

    q1: np.ndarray = None
    q2: np.ndarray = None
    r: float = 1.0

    def __post_init__(self):
        q1 = np.array([[1e4, 0.0], [0.0, 0.0]] if self.q1 is None else self.q1, dtype=float)
        q2 = np.array([[10.0, 0.0], [0.0, 0.0]] if self.q2 is None else self.q2, dtype=float)
        _check_weight_matrix("q1", q1)
        _check_weight_matrix("q2", q2)
        if not (isinstance(self.r, (int, float)) and math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        q1.setflags(write=False)
        q2.setflags(write=False)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "r", float(self.r))


@dataclass(frozen=True)
class ReferenceTrajectory:
    """SoC reference over the grid it is sampled on; the vc component is zero.

    shape 'linear_ramp' moves soc_start -> soc_target linearly from the
    grid's first sample to its last; 'hold_target' sits at soc_target
    throughout.
    """

    soc_start: float
    soc_target: float
    shape: str = "linear_ramp"

    def __post_init__(self):
        if self.shape not in ("linear_ramp", "hold_target"):
            raise ValueError(
                f"unknown reference shape {self.shape!r}; "
                "expected linear_ramp or hold_target"
            )
        for name in ("soc_start", "soc_target"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def build_reference(ref: ReferenceTrajectory, n: int) -> np.ndarray:
    """Sample the reference at the n points of a uniform grid; returns an
    (n, 2) array.  The ramp goes by sample index, which is linear in time."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    out = np.zeros((n, 2))
    if ref.shape == "hold_target":
        out[:, 0] = ref.soc_target
    else:
        frac = np.arange(n) / (n - 1)
        out[:, 0] = ref.soc_start + (ref.soc_target - ref.soc_start) * frac
    return out


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Backward sweep result on the synthesis grid.

    s[k] is the symmetric 2x2 gain matrix and v[k] the feedforward
    vector at grid[k]; the last entries hold the terminal conditions
    exactly.  stationary_from is where S settled: the largest grid index
    j > 0 such that every earlier row s[0], ..., s[j-1] equals s[j] bit
    for bit, or None when s[0] and s[1] already differ.
    """

    grid: np.ndarray
    s: np.ndarray
    v: np.ndarray
    stationary_from: int | None = field(init=False)

    def __post_init__(self):
        for name in ("grid", "s", "v"):
            getattr(self, name).setflags(write=False)
        rows = np.ascontiguousarray(self.s, dtype=float).reshape(len(self.s), 4).view(np.uint64)
        # a row's four one-byte flags, read as one uint32, are all set
        # exactly when the row has s[0]'s bits
        same = (rows == rows[0]).view(np.uint32)[:, 0] == 0x01010101
        settled = int(same.argmin()) - 1 if not same.all() else same.size - 1
        object.__setattr__(self, "stationary_from", settled if settled > 0 else None)


def _sweep_backward(
    a: np.ndarray,
    b: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    r: float,
    xref: np.ndarray,
    u_nom: TimeSeries,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 backward integration of the coupled S / V equations on u_nom's grid.

    Every step is -u_nom.dt.  Works on scalarized entries (S symmetric, so
    three S scalars plus two for V); rk4_step takes one RK4 step of the
    five coupled scalars from the inputs (u_nom, x_ref) at both ends of
    the step.

    Once S is the same bit for bit as on the step before, the S equation
    (which never sees u_nom or x_ref) returns the same S on every
    remaining step, so S is stationary.  At a fixed S the V step is
    linear in V and in the inputs at both ends of the step, so it is the
    affine map v_k = R v_{k+1} + G_hi f_{k+1} + G_lo f_k with
    f = (u_nom, x_ref1, x_ref2), whose columns are the V outputs of
    rk4_step on unit inputs.  The rest of the sweep runs that map: S rows
    are the stationary S, and V rows differ from the stepwise RK4 at
    rounding level only.  The map's forcing is computed for all remaining
    rows at once, one contiguous array per V component, and the
    recurrence in R is a generator that np.fromiter drains.
    """
    a11, a12 = float(a[0, 0]), float(a[0, 1])
    a21, a22 = float(a[1, 0]), float(a[1, 1])
    b1, b2 = float(b[0]), float(b[1])
    q2_11, q2_12, q2_22 = float(q2[0, 0]), float(q2[0, 1]), float(q2[1, 1])
    rinv = 1.0 / r
    h = -u_nom.dt
    hh = 0.5 * h
    h6 = h / 6.0

    def s_rhs(s11, s12, s22):
        m11 = s11 * a11 + s12 * a21
        m12 = s11 * a12 + s12 * a22
        m21 = s12 * a11 + s22 * a21
        m22 = s12 * a12 + s22 * a22
        p1 = s11 * b1 + s12 * b2
        p2 = s12 * b1 + s22 * b2
        ds11 = -(2.0 * m11 - p1 * p1 * rinv + q2_11)
        ds12 = -(m12 + m21 - p1 * p2 * rinv + q2_12)
        ds22 = -(2.0 * m22 - p2 * p2 * rinv + q2_22)
        return p1, p2, ds11, ds12, ds22

    def rk4_step(s11, s12, s22, v1, v2, un_hi, xr1_hi, xr2_hi, un_lo, xr1_lo, xr2_lo):
        # the V equation sees S only through p = b'S (S symmetric, so S b)
        pa1, pa2, ka11, ka12, ka22 = s_rhs(s11, s12, s22)
        pb1, pb2, kb11, kb12, kb22 = s_rhs(s11 + hh * ka11, s12 + hh * ka12, s22 + hh * ka22)
        pc1, pc2, kc11, kc12, kc22 = s_rhs(s11 + hh * kb11, s12 + hh * kb12, s22 + hh * kb22)
        pd1, pd2, kd11, kd12, kd22 = s_rhs(s11 + h * kc11, s12 + h * kc12, s22 + h * kc22)
        # e.._hi, e.._mid, e.._lo are the q2 x_ref products of dv1 (e11, e12)
        # and dv2 (e21, e22) at the upper node, the midpoint and the lower node
        xr1_mid = 0.5 * (xr1_hi + xr1_lo)
        xr2_mid = 0.5 * (xr2_hi + xr2_lo)
        un_mid = 0.5 * (un_hi + un_lo)
        e11_hi, e12_hi = q2_11 * xr1_hi, q2_12 * xr2_hi
        e21_hi, e22_hi = q2_12 * xr1_hi, q2_22 * xr2_hi
        e11_mid, e12_mid = q2_11 * xr1_mid, q2_12 * xr2_mid
        e21_mid, e22_mid = q2_12 * xr1_mid, q2_22 * xr2_mid
        e11_lo, e12_lo = q2_11 * xr1_lo, q2_12 * xr2_lo
        e21_lo, e22_lo = q2_12 * xr1_lo, q2_22 * xr2_lo
        btv = b1 * v1 + b2 * v2
        ka1 = -(a11 * v1 + a21 * v2 - pa1 * btv * rinv - pa1 * un_hi + e11_hi + e12_hi)
        ka2 = -(a12 * v1 + a22 * v2 - pa2 * btv * rinv - pa2 * un_hi + e21_hi + e22_hi)
        w1 = v1 + hh * ka1
        w2 = v2 + hh * ka2
        btv = b1 * w1 + b2 * w2
        kb1 = -(a11 * w1 + a21 * w2 - pb1 * btv * rinv - pb1 * un_mid + e11_mid + e12_mid)
        kb2 = -(a12 * w1 + a22 * w2 - pb2 * btv * rinv - pb2 * un_mid + e21_mid + e22_mid)
        w1 = v1 + hh * kb1
        w2 = v2 + hh * kb2
        btv = b1 * w1 + b2 * w2
        kc1 = -(a11 * w1 + a21 * w2 - pc1 * btv * rinv - pc1 * un_mid + e11_mid + e12_mid)
        kc2 = -(a12 * w1 + a22 * w2 - pc2 * btv * rinv - pc2 * un_mid + e21_mid + e22_mid)
        w1 = v1 + h * kc1
        w2 = v2 + h * kc2
        btv = b1 * w1 + b2 * w2
        kd1 = -(a11 * w1 + a21 * w2 - pd1 * btv * rinv - pd1 * un_lo + e11_lo + e12_lo)
        kd2 = -(a12 * w1 + a22 * w2 - pd2 * btv * rinv - pd2 * un_lo + e21_lo + e22_lo)
        return (
            s11 + h6 * (ka11 + 2.0 * kb11 + 2.0 * kc11 + kd11),
            s12 + h6 * (ka12 + 2.0 * kb12 + 2.0 * kc12 + kd12),
            s22 + h6 * (ka22 + 2.0 * kb22 + 2.0 * kc22 + kd22),
            v1 + h6 * (ka1 + 2.0 * kb1 + 2.0 * kc1 + kd1),
            v2 + h6 * (ka2 + 2.0 * kb2 + 2.0 * kc2 + kd2),
        )

    n = len(u_nom)
    s_out = np.empty((n, 2, 2))
    v_out = np.empty((n, 2))
    # terminal conditions assigned exactly, not integrated
    s_out[-1] = q1
    v_out[-1] = q1 @ xref[-1]
    s11, s12, s22 = float(q1[0, 0]), float(q1[0, 1]), float(q1[1, 1])
    v1, v2 = float(v_out[-1, 0]), float(v_out[-1, 1])
    # The stepping loop and the tail's recurrence read plain floats
    # through memoryviews, so they neither do numpy scalar arithmetic nor
    # keep per-row Python objects alive; a diverging sweep overflows to inf silently and is caught
    # by the finite checks instead of spraying numpy warnings.
    s_mv = memoryview(s_out.reshape(-1))
    v_mv = memoryview(v_out.reshape(-1))
    x_mv = memoryview(xref.reshape(-1))
    u_mv = memoryview(u_nom.samples)
    # the lower node of each step, from the last step back to the first
    lows = zip(
        range(n - 2, -1, -1),
        x_mv[2 * n - 4 :: -2],
        x_mv[2 * n - 3 :: -2],
        u_mv[n - 2 :: -1],
    )
    un_hi = u_mv[n - 1]
    xr1_hi, xr2_hi = x_mv[2 * n - 2], x_mv[2 * n - 1]
    # S is compared by its bits, not by ==, so that 0.0 and -0.0 differ
    pack = struct.Struct("3d").pack
    isfinite = math.isfinite
    s_key = None
    for i, xr1_lo, xr2_lo, un_lo in lows:
        key = pack(s11, s12, s22)
        if key == s_key:
            break  # S is stationary from here back to the start
        s_key = key
        s11, s12, s22, v1, v2 = rk4_step(
            s11, s12, s22, v1, v2, un_hi, xr1_hi, xr2_hi, un_lo, xr1_lo, xr2_lo
        )
        if not (isfinite(s11) and isfinite(s12) and isfinite(s22)):
            raise _diverged(u_nom, i)
        if not (isfinite(v1) and isfinite(v2)):
            raise _overflowed(u_nom, i)  # S is still finite here
        j = 4 * i
        s_mv[j] = s11
        s_mv[j + 1] = s12
        s_mv[j + 2] = s12
        s_mv[j + 3] = s22
        v_mv[2 * i] = v1
        v_mv[2 * i + 1] = v2
        xr1_hi, xr2_hi, un_hi = xr1_lo, xr2_lo, un_lo
    else:  # S never repeated
        return s_out, v_out

    # the columns of R, G_hi and G_lo, in rk4_step's argument order
    cols = [rk4_step(s11, s12, s22, *unit)[3:] for unit in np.eye(8).tolist()]
    (r11, r21), (r12, r22) = cols[:2]
    g_hi, g_lo = cols[2:5], cols[5:]
    # Rows i, ..., 0 remain.  Each V component's forcing, the c-th entry
    # of G_hi f_{k+1} + G_lo f_k, is summed into its own length-m array
    # from 0.0, one input column at a time (f_k, then f_{k+1}), so every
    # ufunc runs along the grid, never along a length-2 axis.
    m = i + 1
    f_lo = (u_nom.samples[:m], xref[:m, 0], xref[:m, 1])
    f_hi = (u_nom.samples[1 : m + 1], xref[1 : m + 1, 0], xref[1 : m + 1, 1])
    term = np.empty(m)
    forcing = (np.zeros(m), np.zeros(m))
    with np.errstate(over="ignore", invalid="ignore"):
        for c, total in enumerate(forcing):
            for f, g in zip(f_lo + f_hi, g_lo + g_hi):
                np.multiply(f, g[c], out=term)
                total += term
    del term  # freed before the drain allocates its 2 m floats
    # the recurrence runs from row i back to row 0
    f1s, f2s = (memoryview(total)[::-1] for total in forcing)
    steps = _affine_recurrence(r11, r12, r21, r22, v1, v2, f1s, f2s)
    tail = v_out[:m]
    tail[:] = np.fromiter(steps, float, count=2 * m).reshape(m, 2)[::-1]
    s_out[:m] = ((s11, s12), (s12, s22))
    # x * inf and x * nan are never finite, so a non-finite row makes
    # every earlier one non-finite too, and row 0 tells; S is the
    # stationary S, finite, on all of them
    if not np.isfinite(tail[0]).all():
        finite = np.isfinite(tail).all(axis=1)
        raise _overflowed(u_nom, int(np.flatnonzero(~finite)[-1]))
    return s_out, v_out


def _affine_recurrence(r11, r12, r21, r22, v1, v2, f1s, f2s):
    """v1, v2 after each step v = R v + f, for each (f1, f2) of zip(f1s, f2s).

    A generator that np.fromiter drains, as the recurrences of ecm.py are.
    """
    for f1, f2 in zip(f1s, f2s):
        v1, v2 = r11 * v1 + r12 * v2 + f1, r21 * v1 + r22 * v2 + f2
        yield v1
        yield v2


def _diverged(u_nom: TimeSeries, k: int) -> DivergenceError:
    """S left the finite numbers on row k."""
    return DivergenceError(
        f"riccati sweep diverged at t={u_nom.times()[k]} (weights too stiff for this grid step)"
    )


def _overflowed(u_nom: TimeSeries, k: int) -> DivergenceError:
    """V left the finite numbers on row k, where S is still finite."""
    return DivergenceError(
        f"riccati sweep: the forcing overflowed at t={u_nom.times()[k]} "
        "(profile or reference too large)"
    )


def solve_riccati(
    params: EcmParams,
    weights: AttackWeights,
    ref: ReferenceTrajectory,
    u_nom: TimeSeries,
) -> RiccatiSolution:
    """Backward sweep on the u_nom sample grid."""
    xref = build_reference(ref, len(u_nom))
    a, b = state_matrices(params)
    s, v = _sweep_backward(a, b, weights.q1, weights.q2, weights.r, xref, u_nom)
    solution = RiccatiSolution(grid=u_nom.times(), s=s, v=v)
    _check_psd(solution)
    return solution


# how far a row of S, scaled by its largest entry, may sit outside the
# positive semidefinite cone: the diagonal by this, the determinant by its square
_PSD_TOL = 1e-6


def _check_psd(solution: RiccatiSolution) -> None:
    """Raise DivergenceError where the sweep stepped S out of the PSD cone.

    An RK4 step past its stability limit can stay finite and still give
    an indefinite S, whose feedback then drives the state away from the
    reference.  The check runs on the finished sweep, so that
    _sweep_backward stays the RK4 integration.  Rows before
    stationary_from repeat its S, so only the rows from there on are
    checked; the first bad row in sweep order, the last in time, is named.
    """
    start = solution.stationary_from or 0
    s = solution.s[start:]
    scale = np.abs(s).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0
    s11, s12, s22 = s[:, 0, 0] / scale, s[:, 0, 1] / scale, s[:, 1, 1] / scale
    det = s11 * s22 - s12 * s12
    bad = (s11 < -_PSD_TOL) | (s22 < -_PSD_TOL) | (det < -_PSD_TOL * _PSD_TOL)
    if bad.any():
        k = int(np.flatnonzero(bad)[-1])
        (r11, r12), (_, r22) = s[k].tolist()
        if s11[k] < -_PSD_TOL:
            entry = f"s11 = {r11!r}"
        elif s22[k] < -_PSD_TOL:
            entry = f"s22 = {r22!r}"
        else:
            entry = f"s11*s22 - s12**2 < 0 at s11 = {r11!r}, s12 = {r12!r}, s22 = {r22!r}"
        raise DivergenceError(
            f"riccati sweep left the positive semidefinite cone at t={solution.grid[start + k]}: "
            f"{entry} (weights too stiff for this grid step)"
        )


# rounding leeway on the spectral radius of the closed loop: far above the
# rounding of one step, and (1 + 1e-9) ** MAX_SAMPLES is below 1.01
_ZOH_RADIUS_TOL = 1e-9


def _zoh_radius(s, b1, b2, rinv, gamma1, alpha, beta) -> float:
    """Spectral radius of one zero-order-hold step of the closed loop at a fixed S.

    The step is M = Phi - Gamma (1/r) b'S with Phi = diag(1, alpha) and
    Gamma = (gamma1, beta) = (-dt/Q, r1 (1 - alpha)); its two eigenvalues
    are taken in closed form on plain floats.
    """
    s11, s12, s22 = float(s[0, 0]), float(s[0, 1]), float(s[1, 1])
    k1 = (b1 * s11 + b2 * s12) * rinv
    k2 = (b1 * s12 + b2 * s22) * rinv
    m11, m12 = 1.0 - gamma1 * k1, -gamma1 * k2
    m21, m22 = -beta * k1, alpha - beta * k2
    half_gap = 0.5 * (m11 - m22)
    # (trace/2)**2 - det without its cancellation: exact for a triangular M
    disc = half_gap * half_gap + m12 * m21
    if disc < 0.0:  # a complex pair, of modulus sqrt(det)
        return math.sqrt(m11 * m22 - m12 * m21)
    return abs(0.5 * (m11 + m22)) + math.sqrt(disc)  # nan if an entry overflowed


@dataclass(frozen=True, eq=False)
class InputAttackResult:
    """Synthesized injection u_a plus the attacked model trajectory.

    params and u_nom are the adversary's model and the profile the
    injection was synthesized on.  model is that model simulated under
    u_nom + u_a, the states the feedback law was evaluated on; its
    first state is the start x0.  i_max_violated reports whether the
    total current ever exceeded the optional bound (never clipped).
    """

    params: EcmParams
    u_nom: TimeSeries
    u_a: TimeSeries
    model: SimulationResult
    riccati: RiccatiSolution
    i_max_violated: bool


def synthesize_input_attack(
    params: EcmParams,
    weights: AttackWeights,
    ref: ReferenceTrajectory,
    u_nom: TimeSeries,
    x0: BatteryState,
    i_max: float | None = None,
) -> InputAttackResult:
    """Sweep backward, then roll the closed loop forward from x0.

    The forward pass advances the adversary's model with the exact
    zero-order-hold step under u_nom[k] + u_a[k], evaluating the feedback
    law at each grid node along the simulated state.  It does the float
    operations of the stepping kernel in the same order, so the model
    trajectory equals simulate(params, x0, add(u_nom, u_a)) bit for bit.
    """
    riccati = solve_riccati(params, weights, ref, u_nom)
    _, b = state_matrices(params)
    b1, b2 = float(b[0]), float(b[1])
    rinv = 1.0 / weights.r
    dt = u_nom.dt
    alpha = math.exp(-dt / params.tau1)
    beta = params.r1 * (1.0 - alpha)
    scale = dt / params.capacity_q
    j = riccati.stationary_from
    if j is not None:
        rho = _zoh_radius(riccati.s[j], b1, b2, rinv, -scale, alpha, beta)
        if not rho <= 1.0 + _ZOH_RADIUS_TOL:
            raise DivergenceError(
                f"zero-order-hold closed loop is unstable where S is stationary "
                f"(t={riccati.grid[0]} to t={riccati.grid[j]}): spectral radius {rho!r} > 1 "
                "(feedback gain too stiff for this grid step)"
            )
    unom = u_nom.samples
    n = unom.size
    u_a = np.empty(n)
    soc_arr = np.empty(n)
    vc_arr = np.empty(n)
    u_a_mv = memoryview(u_a)
    soc_mv = memoryview(soc_arr)
    vc_mv = memoryview(vc_arr)
    s_mv = memoryview(riccati.s.reshape(-1))
    v_mv = memoryview(riccati.v.reshape(-1))
    nodes = zip(
        range(n),
        s_mv[0::4],
        s_mv[1::4],
        s_mv[2::4],
        s_mv[3::4],
        v_mv[0::2],
        v_mv[1::2],
        memoryview(unom),
    )
    soc = x0.soc
    vc = x0.vc
    charge = 0.0
    comp = 0.0
    soc0 = x0.soc
    # the step taken after the last node is computed and dropped
    for k, s11, s12, s21, s22, v1, v2, un in nodes:
        soc_mv[k] = soc
        vc_mv[k] = vc
        lam1 = s11 * soc + s12 * vc - v1
        lam2 = s21 * soc + s22 * vc - v2
        ua = -(b1 * lam1 + b2 * lam2) * rinv
        u_a_mv[k] = ua
        total = un + ua
        y = total - comp
        t = charge + y
        comp = (t - charge) - y
        charge = t
        soc = soc0 - scale * charge
        vc = alpha * vc + beta * total
    # A non-finite state makes the next injection non-finite too (b has
    # no zero entry), so u_a alone tells where the closed loop diverged.
    finite = np.isfinite(u_a)
    if not finite.all():
        k = int(finite.argmin())
        raise DivergenceError(
            f"closed-loop rollout diverged at t={riccati.grid[k]} "
            "(feedback gain too stiff for this grid step)"
        )
    applied = unom + u_a
    volts = _terminal_voltages(params, soc_arr, vc_arr, applied)
    return InputAttackResult(
        params=params,
        u_nom=u_nom,
        u_a=u_nom.with_samples(u_a),
        model=SimulationResult(soc_arr, vc_arr, _voltage_series(u_nom, volts)),
        riccati=riccati,
        i_max_violated=i_max is not None and bool(np.abs(applied).max() > i_max),
    )
