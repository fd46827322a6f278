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

The sweep is integrated with classic 4th-order Runge-Kutta at the grid
resolution; u_nom and X_ref are linearly interpolated at the half-step
stage points.  The synthesized trajectory is then rolled out forward with
the exact zero-order-hold cell model, closing the loop on the adversary's
own simulated state.

solve_riccati runs the sweep alone and returns a RiccatiSolution on the
profile grid.  synthesize_input_attack runs it and then the rollout,
which evaluates the feedback law at the grid nodes only; S and V are
never interpolated in time.  build_reference samples X_ref on a grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .ecm import BatteryState, EcmParams, SimulationResult, _terminal_voltages, state_matrices
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
    """The backward sweep or the forward rollout produced non-finite values."""


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
    grid's first time to its last; 'hold_target' sits at soc_target
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


def build_reference(ref: ReferenceTrajectory, grid: np.ndarray) -> np.ndarray:
    """Sample the reference on a time grid; returns an (n, 2) array."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError(f"grid needs at least 2 points, got {grid.size}")
    out = np.zeros((grid.size, 2))
    if ref.shape == "hold_target":
        out[:, 0] = ref.soc_target
    else:
        frac = (grid - grid[0]) / (grid[-1] - grid[0])
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
        rows = np.ascontiguousarray(self.s, dtype=float).reshape(len(self.s), -1).view(np.uint64)
        same = (rows == rows[0]).all(axis=1)
        settled = int(same.argmin()) - 1 if not same.all() else same.size - 1
        object.__setattr__(self, "stationary_from", settled if settled > 0 else None)


def _sweep_backward(
    a: np.ndarray,
    b: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    r: float,
    xref: np.ndarray,
    unom: np.ndarray,
    grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 backward integration of the coupled S / V equations.

    Works on scalarized entries (S symmetric, so three S scalars plus two
    for V), and splits each RK4 step in two parts.  The S part depends
    only on (h, S), because the S equation never sees u_nom or x_ref; it
    returns b'S at the four stage points and the stepped S.  It is kept
    and reused while (h, S) stays the same bit for bit, which is every
    step once S is stationary.  The V part is one unrolled update that
    uses the four b'S pairs.  Both parts do the float operations of one
    RK4 step of the five coupled scalars in the same order, so the
    reuse changes no output bit.
    """
    a11, a12 = float(a[0, 0]), float(a[0, 1])
    a21, a22 = float(a[1, 0]), float(a[1, 1])
    b1, b2 = float(b[0]), float(b[1])
    q2_11, q2_12, q2_22 = float(q2[0, 0]), float(q2[0, 1]), float(q2[1, 1])
    rinv = 1.0 / r

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

    def s_part(h, s11, s12, s22):
        hh = 0.5 * h
        pa1, pa2, ka11, ka12, ka22 = s_rhs(s11, s12, s22)
        pb1, pb2, kb11, kb12, kb22 = s_rhs(s11 + hh * ka11, s12 + hh * ka12, s22 + hh * ka22)
        pc1, pc2, kc11, kc12, kc22 = s_rhs(s11 + hh * kb11, s12 + hh * kb12, s22 + hh * kb22)
        pd1, pd2, kd11, kd12, kd22 = s_rhs(s11 + h * kc11, s12 + h * kc12, s22 + h * kc22)
        h6 = h / 6.0
        return (
            pa1, pa2, pb1, pb2, pc1, pc2, pd1, pd2,
            s11 + h6 * (ka11 + 2.0 * kb11 + 2.0 * kc11 + kd11),
            s12 + h6 * (ka12 + 2.0 * kb12 + 2.0 * kc12 + kd12),
            s22 + h6 * (ka22 + 2.0 * kb22 + 2.0 * kc22 + kd22),
        )

    n = grid.size
    s_out = np.empty((n, 2, 2))
    v_out = np.empty((n, 2))
    # terminal conditions assigned exactly, not integrated
    s_out[-1] = q1
    v_out[-1] = q1 @ xref[-1]
    s11, s12, s22 = float(q1[0, 0]), float(q1[0, 1]), float(q1[1, 1])
    v1, v2 = float(v_out[-1, 0]), float(v_out[-1, 1])
    # The loop reads and writes plain floats through memoryviews, so it
    # neither does numpy scalar arithmetic nor keeps per-row Python
    # objects alive; a diverging sweep overflows to inf silently and is
    # caught by the finite check instead of spraying numpy warnings.
    s_mv = memoryview(s_out.reshape(-1))
    v_mv = memoryview(v_out.reshape(-1))
    t_mv = memoryview(grid)
    x_mv = memoryview(xref.reshape(-1))
    u_mv = memoryview(unom)
    # the lower node of each step, from the last step back to the first
    lows = zip(
        range(n - 2, -1, -1),
        t_mv[n - 2 :: -1],
        x_mv[2 * n - 4 :: -2],
        x_mv[2 * n - 3 :: -2],
        u_mv[n - 2 :: -1],
    )
    # e.._hi, e.._mid, e.._lo are the q2 x_ref products of dv1 (e11, e12)
    # and dv2 (e21, e22) at the upper node, the midpoint and the lower node
    t_hi, un_hi = t_mv[n - 1], u_mv[n - 1]
    xr1_hi, xr2_hi = x_mv[2 * n - 2], x_mv[2 * n - 1]
    e11_hi, e12_hi, e21_hi, e22_hi = q2_11 * xr1_hi, q2_12 * xr2_hi, q2_12 * xr1_hi, q2_22 * xr2_hi
    # (h, S) is compared by its bits, not by ==, so that 0.0 and -0.0 differ
    pack = struct.Struct("4d").pack
    isfinite = math.isfinite
    s_key = None
    for i, t_lo, xr1_lo, xr2_lo, un_lo in lows:
        h = t_lo - t_hi  # negative
        key = pack(h, s11, s12, s22)
        if key != s_key:
            s_key = key
            pa1, pa2, pb1, pb2, pc1, pc2, pd1, pd2, s11, s12, s22 = s_part(h, s11, s12, s22)
            if not (isfinite(s11) and isfinite(s12) and isfinite(s22)):
                break
        # otherwise the last S part, stepped S included, holds bit for bit

        xr1_mid = 0.5 * (xr1_hi + xr1_lo)
        xr2_mid = 0.5 * (xr2_hi + xr2_lo)
        un_mid = 0.5 * (un_hi + un_lo)
        e11_mid, e12_mid = q2_11 * xr1_mid, q2_12 * xr2_mid
        e21_mid, e22_mid = q2_12 * xr1_mid, q2_22 * xr2_mid
        e11_lo, e12_lo = q2_11 * xr1_lo, q2_12 * xr2_lo
        e21_lo, e22_lo = q2_12 * xr1_lo, q2_22 * xr2_lo
        hh = 0.5 * h
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
        h6 = h / 6.0
        v1 = v1 + h6 * (ka1 + 2.0 * kb1 + 2.0 * kc1 + kd1)
        v2 = v2 + h6 * (ka2 + 2.0 * kb2 + 2.0 * kc2 + kd2)
        if not (isfinite(v1) and isfinite(v2)):
            break

        j = 4 * i
        s_mv[j] = s11
        s_mv[j + 1] = s12
        s_mv[j + 2] = s12
        s_mv[j + 3] = s22
        v_mv[2 * i] = v1
        v_mv[2 * i + 1] = v2
        t_hi, xr1_hi, xr2_hi, un_hi = t_lo, xr1_lo, xr2_lo, un_lo
        e11_hi, e12_hi, e21_hi, e22_hi = e11_lo, e12_lo, e21_lo, e22_lo
    else:  # no break: every value stayed finite
        return s_out, v_out
    raise DivergenceError(
        f"riccati sweep diverged at t={grid[i]} (weights too stiff for this grid step)"
    )


def solve_riccati(
    params: EcmParams,
    weights: AttackWeights,
    ref: ReferenceTrajectory,
    u_nom: TimeSeries,
) -> RiccatiSolution:
    """Backward sweep on the u_nom sample grid."""
    grid = u_nom.times()
    xref = build_reference(ref, grid)
    a, b = state_matrices(params)
    s, v = _sweep_backward(a, b, weights.q1, weights.q2, weights.r, xref, u_nom.samples, grid)
    return RiccatiSolution(grid=grid, s=s, v=v)


@dataclass(frozen=True, eq=False)
class InputAttackResult:
    """Synthesized injection u_a plus the attacked model trajectory.

    model is the adversary's model simulated under u_nom + u_a, the
    states the feedback law was evaluated on.  i_max_violated reports
    whether the total current ever exceeded the optional bound (never
    clipped).
    """

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
        u_a=u_nom.with_samples(u_a),
        model=SimulationResult(soc_arr, vc_arr, u_nom.with_samples(volts)),
        riccati=riccati,
        i_max_violated=i_max is not None and bool(np.abs(applied).max() > i_max),
    )
