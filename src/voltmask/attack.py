"""Optimal input-current attack synthesis by a backward Riccati sweep.

The adversary injects an additional current u_a on top of the user's
profile u_nom and wants the state X = (soc, vc) to follow a reference
trajectory X_ref = (soc_ref, 0), where soc_ref is typically a ramp from
the present SoC to an over-charge or over-discharge target, at minimal
injection effort.  The cost is the finite-horizon quadratic tracker

    J = 1/2 (X(tf)-X_ref(tf))' Q1 (X(tf)-X_ref(tf))
      + 1/2 int (X-X_ref)' Q2 (X-X_ref) + r u_a^2 dt

over the linear cell dynamics X' = A X + B (u_nom + u_a).  The optimal
injection is the time-varying state feedback

    u_a(t) = -(1/r) B' (S(t) X(t) - V(t))

where S (2x2, symmetric) and V (2-vector) solve, backward from tf,

    S' = -(S A + A' S - S B r^-1 B' S + Q2)          S(tf) = Q1
    V' = -(A' V - S B r^-1 B' V - S B u_nom + Q2 X_ref)   V(tf) = Q1 X_ref(tf)

_sweep_backward states how the sweep integrates S and V backward from
tf and why its bits equal plain RK4's; synthesize_input_attack states
how the closed loop is rolled out forward and why its model trajectory
equals simulate's.

solve_riccati runs the sweep alone, rejects one that left the finite
numbers or stepped S out of the positive semidefinite cone, and returns
a RiccatiSolution on the profile grid.
synthesize_input_attack runs it, rejects a zero-order-hold closed loop
that is unstable where S is stationary (h*lambda > 2 on the SoC
channel, which the RK4 sweep itself survives up to about 2.785), and
then runs the rollout, which evaluates the feedback law at the grid
nodes only; S and V are never interpolated in time.  build_reference
samples soc_ref at the n points of a uniform grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .config import DivergenceError, checked
from .ecm import BatteryState, EcmParams, SimulationResult, state_matrices
from .ecm import _terminal_voltages, _voltage_series, _zoh_recurrence
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


def _check_weight_matrix(name: str, q: np.ndarray) -> None:
    """Check q and make it exactly symmetric: once its asymmetry is within
    tolerance, its lower off-diagonal entry is set to the upper one.  Every
    -0.0 entry then becomes +0.0, so the sweep's right-hand sides, which
    drop A's zero products, keep the signed zeros of RK4 on the full A."""
    if q.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError(f"{name} must be finite")
    tol = 1e-12 * max(1.0, float(np.abs(q).max()))
    if float(np.abs(q - q.T).max()) > tol:
        raise ValueError(f"{name} must be symmetric to 1e-12")
    q[1, 0] = q[0, 1]
    q += 0.0
    # the smaller eigenvalue in closed form, halved first so that no finite entry overflows
    a, b, c = float(q[0, 0]), float(q[0, 1]), float(q[1, 1])
    if 0.5 * a + 0.5 * c - math.hypot(0.5 * a - 0.5 * c, b) < -tol:
        raise ValueError(f"{name} must be positive semidefinite (eigenvalues >= -1e-12)")


@dataclass(frozen=True, eq=False)
class AttackWeights:
    """Tracking weights (q1 terminal, q2 running, r > 0 on injection effort).

    Defaults are the documented baseline diag(1e4, 0), diag(10, 0), 1;
    shipped scenario files record their own, scaled to the cell capacity.
    A weight may be asymmetric by 1e-12 relative; its lower off-diagonal
    entry is then set to the upper one, so every stage sees one matrix.
    A -0.0 entry is stored as +0.0.
    """

    q1: np.ndarray = None
    q2: np.ndarray = None
    r: float = 1.0

    def __post_init__(self):
        q1 = np.array([[1e4, 0.0], [0.0, 0.0]] if self.q1 is None else self.q1, dtype=float)
        q2 = np.array([[10.0, 0.0], [0.0, 0.0]] if self.q2 is None else self.q2, dtype=float)
        _check_weight_matrix("q1", q1)
        _check_weight_matrix("q2", q2)
        r = checked(self.r, float)
        if r is None or r <= 0:
            raise ValueError(f"r must be positive and finite, got {self.r}")
        q1.setflags(write=False)
        q2.setflags(write=False)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "r", r)


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
    """Sample the SoC reference at the n points of a uniform grid; returns
    an (n,) array.  The ramp goes by sample index, which is linear in time."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if ref.shape == "hold_target":
        return np.full(n, ref.soc_target, dtype=float)
    frac = np.arange(n) / (n - 1)
    return ref.soc_start + (ref.soc_target - ref.soc_start) * frac


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
    a22: float,
    b: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    r: float,
    soc_ref: np.ndarray,
    u_nom: TimeSeries,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 backward integration of the coupled S / V equations on u_nom's grid.

    Every step is -u_nom.dt.  Step size and position come from the
    uniform grid alone, never from differences of rounded grid times, so
    no output but a time column depends on u_nom.t0.  u_nom and soc_ref
    enter the midpoint stages as the mean of the step's two nodes, their
    linear interpolation.  A is the cell's [[0, 0], [0, a22]], as
    state_matrices builds it, so the sweep takes a22 alone and the right-hand
    sides carry no product with A's zeros.  With the weights' zeros +0.0,
    as AttackWeights stores them, S and V equal those of RK4 on the full
    A bit for bit.  The reference's vc component is zero, so the V
    equation sees it only as soc_ref times q2's first column.
    Works on scalarized entries (S symmetric, so three S scalars plus two
    for V); rk4_step takes one RK4 step of the five coupled scalars from
    the inputs (u_nom, soc_ref) at both ends of the step.

    When every entry of q1 and q2 but [0, 0] is +0.0, so vc is
    unweighted, s12, s22 and v2 start at +0.0 and every stage keeps them
    there: their right-hand sides are sums of products of those zeros
    with a22 and b2, which every EcmParams makes finite.  The sweep then
    steps s11 and v1 alone with soc_step, rk4_step with those zeros put
    in, and writes s12, s22 and v2 as +0.0.  The only dropped products
    that reach a kept sum, s12 * b2 and b2 * v2, are +0.0 for b2 = 1/c1,
    as soc_step adds.  So S, V and every divergence are those of
    rk4_step, bit for bit.  Weights on vc take rk4_step.

    Once S is the same bit for bit as on the step before, the S equation
    (which never sees u_nom or soc_ref) returns the same S on every
    remaining step, so S is stationary.  At a fixed S the V step is
    linear in V and in the inputs at both ends of the step, so it is the
    affine map v_k = R v_{k+1} + G_hi f_{k+1} + G_lo f_k with
    f = (u_nom, soc_ref), whose columns are the V outputs of rk4_step on
    the six unit inputs.  The rest of the sweep runs that map: S rows
    are the stationary S, bit for bit, and V rows differ from the
    stepwise RK4 at rounding level only (about 1e-15 relative), as does
    everything downstream of u_a.  The map's forcing is computed for all
    remaining rows at once, one contiguous array per V component, and
    the recurrence in R is a generator that np.fromiter drains.  With vc
    unweighted, v2 stays +0.0 and the map is v1 = r11 v1 + f1 on v1's
    forcing alone; v1's forcing is never -0.0, so the dropped r12 * v2,
    a zero, cannot change a row.  Where dt / tau1 passes about 1e77, R's
    r12 and r22 overflow and the five-scalar map's v2 becomes 0 * inf,
    nan, though plain RK4 keeps v2 at 0; the scalar map has neither.
    """
    b1, b2 = float(b[0]), float(b[1])
    q2_11, q2_12, q2_22 = float(q2[0, 0]), float(q2[0, 1]), float(q2[1, 1])
    rinv = 1.0 / r
    h = -u_nom.dt
    hh = 0.5 * h
    h6 = h / 6.0

    def rk4_step(s11, s12, s22, v1, v2, un_hi, xr_hi, un_lo, xr_lo):
        # the four S stages; S A + A'S has a22 in its second column only,
        # and the V equation sees S only through p = b'S (S symmetric, so S b)
        pa1 = s11 * b1 + s12 * b2
        pa2 = s12 * b1 + s22 * b2
        ka11 = -(-(pa1 * pa1 * rinv) + q2_11)
        ka12 = -(s12 * a22 - pa1 * pa2 * rinv + q2_12)
        ka22 = -(2.0 * (s22 * a22) - pa2 * pa2 * rinv + q2_22)
        t11, t12, t22 = s11 + hh * ka11, s12 + hh * ka12, s22 + hh * ka22
        pb1 = t11 * b1 + t12 * b2
        pb2 = t12 * b1 + t22 * b2
        kb11 = -(-(pb1 * pb1 * rinv) + q2_11)
        kb12 = -(t12 * a22 - pb1 * pb2 * rinv + q2_12)
        kb22 = -(2.0 * (t22 * a22) - pb2 * pb2 * rinv + q2_22)
        t11, t12, t22 = s11 + hh * kb11, s12 + hh * kb12, s22 + hh * kb22
        pc1 = t11 * b1 + t12 * b2
        pc2 = t12 * b1 + t22 * b2
        kc11 = -(-(pc1 * pc1 * rinv) + q2_11)
        kc12 = -(t12 * a22 - pc1 * pc2 * rinv + q2_12)
        kc22 = -(2.0 * (t22 * a22) - pc2 * pc2 * rinv + q2_22)
        t11, t12, t22 = s11 + h * kc11, s12 + h * kc12, s22 + h * kc22
        pd1 = t11 * b1 + t12 * b2
        pd2 = t12 * b1 + t22 * b2
        kd11 = -(-(pd1 * pd1 * rinv) + q2_11)
        kd12 = -(t12 * a22 - pd1 * pd2 * rinv + q2_12)
        kd22 = -(2.0 * (t22 * a22) - pd2 * pd2 * rinv + q2_22)
        # e1_.. and e2_.. are the q2 soc_ref products of dv1 and dv2 at the
        # upper node, the midpoint and the lower node
        xr_mid = 0.5 * (xr_hi + xr_lo)
        un_mid = 0.5 * (un_hi + un_lo)
        e1_hi, e2_hi = q2_11 * xr_hi, q2_12 * xr_hi
        e1_mid, e2_mid = q2_11 * xr_mid, q2_12 * xr_mid
        e1_lo, e2_lo = q2_11 * xr_lo, q2_12 * xr_lo
        btv = b1 * v1 + b2 * v2
        ka1 = -(-pa1 * btv * rinv - pa1 * un_hi + e1_hi)
        ka2 = -(a22 * v2 - pa2 * btv * rinv - pa2 * un_hi + e2_hi)
        w1 = v1 + hh * ka1
        w2 = v2 + hh * ka2
        btv = b1 * w1 + b2 * w2
        kb1 = -(-pb1 * btv * rinv - pb1 * un_mid + e1_mid)
        kb2 = -(a22 * w2 - pb2 * btv * rinv - pb2 * un_mid + e2_mid)
        w1 = v1 + hh * kb1
        w2 = v2 + hh * kb2
        btv = b1 * w1 + b2 * w2
        kc1 = -(-pc1 * btv * rinv - pc1 * un_mid + e1_mid)
        kc2 = -(a22 * w2 - pc2 * btv * rinv - pc2 * un_mid + e2_mid)
        w1 = v1 + h * kc1
        w2 = v2 + h * kc2
        btv = b1 * w1 + b2 * w2
        kd1 = -(-pd1 * btv * rinv - pd1 * un_lo + e1_lo)
        kd2 = -(a22 * w2 - pd2 * btv * rinv - pd2 * un_lo + e2_lo)
        return (
            s11 + h6 * (ka11 + 2.0 * kb11 + 2.0 * kc11 + kd11),
            s12 + h6 * (ka12 + 2.0 * kb12 + 2.0 * kc12 + kd12),
            s22 + h6 * (ka22 + 2.0 * kb22 + 2.0 * kc22 + kd22),
            v1 + h6 * (ka1 + 2.0 * kb1 + 2.0 * kc1 + kd1),
            v2 + h6 * (ka2 + 2.0 * kb2 + 2.0 * kc2 + kd2),
        )

    def soc_step(s11, v1, un_hi, xr_hi, un_lo, xr_lo):
        # rk4_step's s11 and v1 outputs at s12 = s22 = v2 = +0.0, bit for
        # bit; each + 0.0 is rk4_step's s12 * b2 or b2 * v2
        pa = s11 * b1 + 0.0
        ka = -(-(pa * pa * rinv) + q2_11)
        t = s11 + hh * ka
        pb = t * b1 + 0.0
        kb = -(-(pb * pb * rinv) + q2_11)
        t = s11 + hh * kb
        pc = t * b1 + 0.0
        kc = -(-(pc * pc * rinv) + q2_11)
        t = s11 + h * kc
        pd = t * b1 + 0.0
        kd = -(-(pd * pd * rinv) + q2_11)
        xr_mid = 0.5 * (xr_hi + xr_lo)
        un_mid = 0.5 * (un_hi + un_lo)
        btv = b1 * v1 + 0.0
        ka1 = -(-pa * btv * rinv - pa * un_hi + q2_11 * xr_hi)
        btv = b1 * (v1 + hh * ka1) + 0.0
        kb1 = -(-pb * btv * rinv - pb * un_mid + q2_11 * xr_mid)
        btv = b1 * (v1 + hh * kb1) + 0.0
        kc1 = -(-pc * btv * rinv - pc * un_mid + q2_11 * xr_mid)
        btv = b1 * (v1 + h * kc1) + 0.0
        kd1 = -(-pd * btv * rinv - pd * un_lo + q2_11 * xr_lo)
        return (
            s11 + h6 * (ka + 2.0 * kb + 2.0 * kc + kd),
            v1 + h6 * (ka1 + 2.0 * kb1 + 2.0 * kc1 + kd1),
        )

    n = len(u_nom)
    # zeros, so that the SoC-only path writes s11 and v1 alone
    s_out = np.zeros((n, 2, 2))
    v_out = np.zeros((n, 2))
    # terminal conditions assigned exactly, not integrated
    s_out[-1] = q1
    v_out[-1] = q1[:, 0] * soc_ref[-1] + q1[:, 1] * 0.0  # q1 (soc, 0), the zero's sign kept
    s11, s12, s22 = float(q1[0, 0]), float(q1[0, 1]), float(q1[1, 1])
    v1, v2 = float(v_out[-1, 0]), float(v_out[-1, 1])
    # The stepping loops and the tail's recurrence work on plain floats
    # through memoryviews: no numpy scalar arithmetic, no per-row Python
    # object kept alive, and a row that overflows, for _check_finite to
    # name after the sweep, raises no numpy warning.
    s_mv = memoryview(s_out.reshape(-1))
    v_mv = memoryview(v_out.reshape(-1))
    x_mv = memoryview(soc_ref)
    u_mv = memoryview(u_nom.samples)
    # the lower node of each step, from the last step back to the first
    lows = zip(range(n - 2, -1, -1), x_mv[n - 2 :: -1], u_mv[n - 2 :: -1])
    un_hi, xr_hi = u_mv[n - 1], x_mv[n - 1]
    # S is compared by its bits, not by ==, so that 0.0 and -0.0 differ
    s_key = None
    coupled = not _soc_only(q1, q2)
    if coupled:
        pack = struct.Struct("3d").pack
        for i, xr_lo, un_lo in lows:
            key = pack(s11, s12, s22)
            if key == s_key:
                break  # S is stationary from here back to the start
            s_key = key
            s11, s12, s22, v1, v2 = rk4_step(s11, s12, s22, v1, v2, un_hi, xr_hi, un_lo, xr_lo)
            j = 4 * i
            s_mv[j] = s11
            s_mv[j + 1] = s12
            s_mv[j + 2] = s12
            s_mv[j + 3] = s22
            v_mv[2 * i] = v1
            v_mv[2 * i + 1] = v2
            xr_hi, un_hi = xr_lo, un_lo
        else:  # S never repeated
            return s_out, v_out
    else:
        pack = struct.Struct("d").pack
        for i, xr_lo, un_lo in lows:
            key = pack(s11)
            if key == s_key:
                break
            s_key = key
            s11, v1 = soc_step(s11, v1, un_hi, xr_hi, un_lo, xr_lo)
            s_mv[4 * i] = s11
            v_mv[2 * i] = v1
            xr_hi, un_hi = xr_lo, un_lo
        else:
            return s_out, v_out

    # the columns of R, G_hi and G_lo, in rk4_step's argument order
    cols = [rk4_step(s11, s12, s22, *unit)[3:] for unit in np.eye(6).tolist()]
    (r11, r21), (r12, r22) = cols[:2]
    g_hi, g_lo = cols[2:4], cols[4:]
    # Rows i, ..., 0 remain.  Each V component's forcing, the c-th entry
    # of G_hi f_{k+1} + G_lo f_k, is summed into its own length-m array
    # from 0.0, one input column at a time (f_k, then f_{k+1}), so every
    # ufunc runs along the grid, never along a length-2 axis.
    m = i + 1
    f_lo = (u_nom.samples[:m], soc_ref[:m])
    f_hi = (u_nom.samples[1 : m + 1], soc_ref[1 : m + 1])
    term = np.empty(m)
    # the SoC-only map leaves v2 at +0.0 and needs v1's forcing alone
    forcing = (np.zeros(m), np.zeros(m)) if coupled else (np.zeros(m),)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, total in enumerate(forcing):
            for f, g in zip(f_lo + f_hi, g_lo + g_hi):
                np.multiply(f, g[c], out=term)
                total += term
    del term  # freed before the drain allocates its floats
    # the recurrence runs from row i back to row 0
    tail = v_out[:m]
    if coupled:
        f1s, f2s = (memoryview(total)[::-1] for total in forcing)
        steps = _affine_recurrence(r11, r12, r21, r22, v1, v2, f1s, f2s)
        tail[:] = np.fromiter(steps, float, count=2 * m).reshape(m, 2)[::-1]
    else:
        # v1 = r11 v1 + f1, whose first yield is row i + 1
        steps = _zoh_recurrence(r11, v1, memoryview(forcing[0])[::-1])
        tail[:, 0] = np.fromiter(steps, float, count=m + 1)[:0:-1]
    s_out[:m] = ((s11, s12), (s12, s22))
    return s_out, v_out


def _soc_only(q1: np.ndarray, q2: np.ndarray) -> bool:
    """Whether the sweep steps s11 and v1 alone: q1 and q2 weight the SoC
    alone, every entry but [0, 0] +0.0 (the all-zero bits)."""
    rest = np.stack((q1, q2)).reshape(2, 4)[:, 1:]
    return not rest.view(np.uint64).any()


def _affine_recurrence(r11, r12, r21, r22, v1, v2, f1s, f2s):
    """v1, v2 after each step v = R v + f, for each (f1, f2) of zip(f1s, f2s).

    A generator that np.fromiter drains, as the recurrences of ecm.py are.
    """
    for f1, f2 in zip(f1s, f2s):
        v1, v2 = r11 * v1 + r12 * v2 + f1, r21 * v1 + r22 * v2 + f2
        yield v1
        yield v2


def solve_riccati(
    params: EcmParams,
    weights: AttackWeights,
    ref: ReferenceTrajectory,
    u_nom: TimeSeries,
) -> RiccatiSolution:
    """Backward sweep on the u_nom sample grid."""
    soc_ref = build_reference(ref, len(u_nom))
    a, b = state_matrices(params)
    s, v = _sweep_backward(float(a[1, 1]), b, weights.q1, weights.q2, weights.r, soc_ref, u_nom)
    solution = RiccatiSolution(grid=u_nom.times(), s=s, v=v)
    _check_finite(solution)
    _check_psd(solution)
    return solution


def _check_finite(solution: RiccatiSolution) -> None:
    """Raise DivergenceError where the sweep left the finite numbers.

    Each stepped scalar is itself plus an increment, and the tail's
    x * inf and x * nan are never finite, so the rows of S, and of V,
    that are not finite are rows 0 to the last of them.  S diverged on
    its last such row, unless V's is later: the forcing overflowed there.
    """
    if np.isfinite(solution.s[0]).all() and np.isfinite(solution.v[0]).all():
        return
    last_s = np.count_nonzero(~np.isfinite(solution.s).all(axis=(1, 2))) - 1
    last_v = np.count_nonzero(~np.isfinite(solution.v).all(axis=1)) - 1
    t = solution.grid[max(last_s, last_v)]
    if last_s >= last_v:
        raise DivergenceError(
            f"riccati sweep diverged at t={t} (weights too stiff for this grid step)"
        )
    raise DivergenceError(
        f"riccati sweep: the forcing overflowed at t={t} (profile or reference too large)"
    )


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


def _roll_soc(b1, rinv, scale, soc0, nodes, soc_mv, u_a_mv):
    """The closed loop on the SoC alone, for weights that leave vc unweighted.

    nodes yields (k, s11, v1, u_nom) for every row.  s12, s22 and v2 are
    +0.0 on every row, so the five-scalar loop's b1 lam1 + b2 lam2 is
    p = b1 (s11 soc - v1) plus products of those zeros: a signed zero,
    which cannot change a nonzero p.  So wherever p is nonzero, -p * rinv
    is that loop's u_a bit for bit, and a zero wherever p is; soc is its
    coulomb count, never reading vc.
    """
    soc = soc0
    charge = 0.0
    comp = 0.0
    for k, s11, v1, un in nodes:
        p = b1 * (s11 * soc - v1)
        soc_mv[k] = soc
        ua = -p * rinv
        u_a_mv[k] = ua
        total = un + ua
        y = total - comp
        t = charge + y
        comp = (t - charge) - y
        charge = t
        soc = soc0 - scale * charge


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

    Weights that leave vc unweighted, as every shipped scenario's do,
    roll the SoC alone (_roll_soc) and then take vc from the kernel's
    own _zoh_recurrence on beta * (u_nom + u_a).  Weights on vc roll all
    five scalars, with the RC step inline.  So the compensated count has
    three copies: the kernel's, which has no feedback to evaluate, and
    these two loops', which need their row's state before they step.  A
    rollout that drives the kernel's own generators from the closed loop
    gives the same bits but is slower.
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
    u_a_mv = memoryview(u_a)
    soc_mv = memoryview(soc_arr)
    s_mv = memoryview(riccati.s.reshape(-1))
    v_mv = memoryview(riccati.v.reshape(-1))
    un_mv = memoryview(unom)
    soc0 = x0.soc
    if _soc_only(weights.q1, weights.q2):
        # s12, s22 and v2 are +0.0 on every row; rows before j repeat S[j]
        first = j or 0
        s11s = chain(repeat(s_mv[4 * first], first), s_mv[4 * first :: 4])
        nodes = zip(range(n), s11s, v_mv[0::2], un_mv)
        _roll_soc(b1, rinv, scale, soc0, nodes, soc_mv, u_a_mv)
        # vc by the kernel's recurrence, on the n - 1 steps the rows take
        with np.errstate(over="ignore", invalid="ignore"):
            drive = np.add(unom[:-1], u_a[:-1])
            drive *= beta
        vc_arr = np.fromiter(_zoh_recurrence(alpha, x0.vc, memoryview(drive)), float, count=n)
        del drive  # freed before the voltage readout allocates
    else:
        vc_arr = np.empty(n)
        vc_mv = memoryview(vc_arr)
        soc, vc, charge, comp = soc0, x0.vc, 0.0, 0.0
        # every row of S is symmetric bit for bit, the terminal q1 included
        nodes = zip(range(n), s_mv[0::4], s_mv[1::4], s_mv[3::4], v_mv[0::2], v_mv[1::2], un_mv)
        # the step taken after the last node is computed and dropped
        for k, s11, s12, s22, v1, v2, un in nodes:
            soc_mv[k] = soc
            vc_mv[k] = vc
            lam1 = s11 * soc + s12 * vc - v1
            lam2 = s12 * soc + s22 * vc - v2
            ua = -(b1 * lam1 + b2 * lam2) * rinv
            u_a_mv[k] = ua
            total = un + ua
            y = total - comp
            t = charge + y
            comp = (t - charge) - y
            charge = t
            soc = soc0 - scale * charge
            vc = alpha * vc + beta * total
    # A non-finite state makes the five-scalar loop's next injection
    # non-finite too (b has no zero entry); the SoC loop never reads vc,
    # so vc is tested with u_a, which names the same first row.
    finite = np.isfinite(u_a) & np.isfinite(vc_arr)
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
        i_max_violated=i_max is not None and bool(max(applied.max(), -applied.min()) > i_max),
    )
