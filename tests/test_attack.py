"""Injection synthesis: backward sweep correctness and the feedback law.

The sweep is held to generic_rk4_sweep, a plain RK4 step of all five
coupled scalars on the full 2x2 A, fed the reference rows
(soc_ref, 0.0): S on every row and V up to the stationary tail bit for
bit, the tail's V to 1e-12 of max|V|.  The oracle takes cell-shaped A
([[0, 0], [0, a22]]) and weights as AttackWeights stores them (zeros
+0.0); its examples include the five shipped scenarios with A from
state_matrices and a terminal-only case, so a change to A's structure
fails it.  About half of each property's draws weight the SoC alone,
which the sweep steps on s11 and v1 alone, and the rest weight vc too.
The sweep names its failure once, from row 0 and the count of rows that
are not finite; a property on stiff draws and on tail overflows checks
that those rows are always rows 0 to some k.  A second property holds
the stationary tail's V rows bit for bit to a plain-float loop of the
tail map, with R, G_hi and G_lo from the generic step on unit inputs
and each row's six forcing terms summed in a fixed order; its draws
include all-zero, all -0.0 and mixed signed-zero currents.  Direct
calls with a -0.0 in the terminal S, which no AttackWeights stores,
check that each stepping loop hands over to the tail's map only where
S repeats bit for bit, not where it repeats by == alone.

The rollout is held to reference_rollout, the loop as first written,
indexing numpy scalars one by one.  On the shipped scenarios, and by a
property whose draws weight vc on about half the set-ups and include
all-zero weights, signed-zero starts and currents, overflowing
currents, a zero feedback product mid-run or on the last row alone
(tc1 at q1 = 0) and a vc that overflows alone, the model's SoC and
voltage equal it bit for bit, or the error's type and text do.  u_a and
vc equal it bit for bit wherever the reference's value is nonzero and
are zero wherever it is: for weights that leave vc unweighted, the
rollout's SoC loop writes every row as -p * rinv, and at a zero product
that zero's sign can differ from the reference's, which carries it into
vc only through a -0.0 current onto a -0.0 vc.  Spy tests check that
the shipped scenarios take the two-scalar sweep step, and that the
rollout's SoC loop writes every row for SoC-only weights, the zero
products included, and is never called for weights on vc.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from attack_setups import attack_setups
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scalar_model import attack_current

import voltmask.attack
from voltmask import (
    AttackWeights,
    BatteryState,
    DivergenceError,
    EcmParams,
    OcvCurve,
    ReferenceTrajectory,
    RiccatiSolution,
    TimeSeries,
    add,
    attack_energy,
    build_reference,
    simulate,
    solve_riccati,
    state_matrices,
    synthesize_input_attack,
    synthetic_profile,
)
from voltmask.attack import (
    _PSD_TOL,
    _ZOH_RADIUS_TOL,
    _check_finite,
    _check_psd,
    _sweep_backward,
    _zoh_radius,
)
from voltmask.scenario import load_scenario, prepare


@st.composite
def symmetric_weights(draw):
    """A symmetric 2x2 at a scale from 1e-20 to 1e20; a third of those with
    a, c >= 0 are within a relative 1e-6 of singular, on either side."""
    scale = 10.0 ** draw(st.floats(-20.0, 20.0))
    a, c = (scale * draw(st.floats(-0.2, 1.0)) for _ in range(2))
    if a >= 0.0 and c >= 0.0 and draw(st.integers(0, 2)) == 0:
        gap = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -6.0))
        b = draw(st.sampled_from([-1.0, 1.0])) * math.sqrt(a * c) * (1.0 + gap)
    else:
        b = scale * draw(st.floats(-1.0, 1.0))
    return np.array([[a, b], [b, c]])


def scalar_riccati_euler(b1, r, q, s_terminal, grid, refine=100):
    """Backward explicit Euler on ds/dt = s^2 b^2 / r - q at a finer step.

    With A = 0, B = (b1, 0), and weights on the (1,1) entries only, the
    matrix sweep collapses to this scalar equation, which gives an
    independent check on the integrator (different method, different
    order, different step).
    """
    n = grid.size
    out = np.empty(n)
    out[-1] = s_terminal
    s = s_terminal
    for k in range(n - 1, 0, -1):
        h = (grid[k] - grid[k - 1]) / refine
        for _ in range(refine):
            s -= h * (s * s * b1 * b1 / r - q)
        out[k - 1] = s
    return out


class TestWeights:
    def test_defaults(self):
        w = AttackWeights()
        np.testing.assert_array_equal(w.q1, [[1e4, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(w.q2, [[10.0, 0.0], [0.0, 0.0]])
        assert w.r == 1.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="q1 must be symmetric"):
            AttackWeights(q1=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_asymmetry_within_tolerance_is_made_exact(self, cell):
        # q1's lower entry is set to its upper one, so the terminal S row
        # that the rollout reads is symmetric bit for bit
        q1 = np.array([[1e4, 1e-9], [0.0, 0.0]])
        w = AttackWeights(q1=q1, q2=np.array([[10.0, 0.0], [-0.0, 0.0]]))
        assert w.q1.tobytes() == np.array([[1e4, 1e-9], [1e-9, 0.0]]).tobytes()
        assert w.q2.tobytes() == np.array([[10.0, 0.0], [0.0, 0.0]]).tobytes()
        assert q1[1, 0] == 0.0  # the caller's array is left as it was
        u_nom = synthetic_profile("constant", 0.0, 1.0, 50.0, 1.0)
        sol = solve_riccati(cell, w, ReferenceTrajectory(0.6, 0.5), u_nom)
        assert sol.s[-1, 1, 0].tobytes() == sol.s[-1, 0, 1].tobytes()
        assert sol.s.tobytes() == np.transpose(sol.s, (0, 2, 1)).tobytes()

    @pytest.mark.parametrize(("name", "entry"), [("q1", math.inf), ("q2", math.nan)])
    def test_rejects_non_finite(self, name, entry):
        with pytest.raises(ValueError) as exc:
            AttackWeights(**{name: np.diag([1.0, entry])})
        assert str(exc.value) == f"{name} must be finite"

    def test_zeros_are_stored_as_positive_zeros(self):
        w = AttackWeights(q1=np.diag([1e4, -0.0]), q2=[[10.0, -0.0], [-0.0, -0.0]])
        assert not np.signbit(w.q1).any() and not np.signbit(w.q2).any()

    def test_negative_zero_weights_sweep_as_positive_zeros(self, cell):
        # the sweep drops A's zero products, which keeps RK4's signed zeros
        # only for weights whose zeros are +0.0
        u_nom = synthetic_profile("sin_mix", 1.0, 0.5, 300.0, 1.0, seed=2)
        ref = ReferenceTrajectory(0.6, 0.4)
        negative = AttackWeights(q1=np.diag([1e4, -0.0]), q2=[[10.0, -0.0], [-0.0, -0.0]])
        positive = AttackWeights(q1=np.diag([1e4, 0.0]), q2=[[10.0, 0.0], [0.0, 0.0]])
        got = solve_riccati(cell, negative, ref, u_nom)
        want = solve_riccati(cell, positive, ref, u_nom)
        assert got.s.tobytes() == want.s.tobytes()
        assert got.v.tobytes() == want.v.tobytes()

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            AttackWeights(q2=np.diag([-1.0, 0.0]))

    @settings(max_examples=300, deadline=None)
    @given(q=symmetric_weights())
    # a + c overflows here, so the sum is taken on the halves
    @example(q=np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))
    @example(q=np.array([[1e308, 0.0], [0.0, 1e308]]))
    def test_closed_form_decides_as_eigvalsh(self, q):
        # the weight check takes the smaller eigenvalue in closed form; away
        # from the tolerance it accepts and rejects what LAPACK's does
        tol = 1e-12 * max(1.0, float(np.abs(q).max()))
        lowest = float(np.linalg.eigvalsh(q).min())
        assume(abs(lowest + tol) > 0.01 * tol)
        if lowest < -tol:
            with pytest.raises(ValueError, match="q1 must be positive semidefinite"):
                AttackWeights(q1=q)
        else:
            AttackWeights(q1=q)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError, match="r must be positive"):
            AttackWeights(r=0.0)

    @pytest.mark.parametrize("r", [True, False, "1", math.inf, math.nan])
    def test_r_must_be_a_finite_number(self, r):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            AttackWeights(r=r)

    def test_integer_r_is_a_float(self):
        assert AttackWeights(r=2).r.hex() == (2.0).hex()

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            AttackWeights(q1=np.eye(3))


class TestReference:
    def test_linear_ramp_endpoints(self):
        ref = ReferenceTrajectory(0.8, 0.2)
        soc_ref = build_reference(ref, 11)
        assert soc_ref.shape == (11,)
        assert soc_ref[0] == 0.8 and math.isclose(soc_ref[-1], 0.2)
        assert math.isclose(soc_ref[5], 0.5)

    def test_hold_target(self):
        ref = ReferenceTrajectory(0.8, 0.2, shape="hold_target")
        soc_ref = build_reference(ref, 5)
        np.testing.assert_array_equal(soc_ref, np.full(5, 0.2))

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points, got 1"):
            build_reference(ReferenceTrajectory(0.8, 0.2), 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown reference shape"):
            ReferenceTrajectory(0.8, 0.2, shape="step")
        with pytest.raises(ValueError, match="soc_target"):
            ReferenceTrajectory(0.8, 1.2)

    @settings(max_examples=100, deadline=None)
    @given(
        dt=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        n=st.integers(2, 500),
        soc_start=st.floats(0.0, 1.0),
        soc_target=st.floats(0.0, 1.0),
        shape=st.sampled_from(["linear_ramp", "hold_target"]),
    )
    def test_ramp_depends_only_on_the_sample_index(self, dt, n, soc_start, soc_target, shape):
        # sample k of the ramp is k / (n - 1) of the way, the time ramp
        # t_k / t_last on a grid from 0 whose times are exact, bit for bit
        ref = ReferenceTrajectory(soc_start, soc_target, shape)
        soc_ref = build_reference(ref, n)
        if shape == "hold_target":
            want = np.full(n, soc_target)
        else:
            times = TimeSeries(0.0, dt, np.zeros(n)).times()
            want = soc_start + (soc_target - soc_start) * (times / times[-1])
        assert soc_ref.tobytes() == want.tobytes()


def test_sweep_matches_scalar_euler_oracle():
    # A = 0 and b = (1, 0) reduce the matrix equations to one scalar
    # Riccati equation; constants frozen after tuning the oracle step
    u_nom = TimeSeries(0.0, 0.002, np.zeros(1001))
    b = np.array([1.0, 0.0])
    q1 = np.diag([0.4, 0.0])
    q2 = np.diag([0.25, 0.0])
    s, v = _sweep_backward(0.0, b, q1, q2, 1.0, np.zeros(len(u_nom)), u_nom)

    oracle = scalar_riccati_euler(1.0, 1.0, 0.25, 0.4, u_nom.times(), refine=100)
    dev = np.abs(s[:, 0, 0] - oracle).max() / np.abs(oracle).max()
    assert dev <= 1e-6

    # the uncoupled entries stay exactly zero in this subcase
    assert np.abs(s[:, 0, 1]).max() == 0.0
    assert np.abs(s[:, 1, 1]).max() == 0.0
    assert np.abs(v).max() == 0.0


def test_terminal_conditions_are_assigned_exactly(cell):
    u_nom = synthetic_profile("constant", 0.0, 2.0, 300.0, 1.0)
    ref = ReferenceTrajectory(0.6, 0.4)
    q1 = np.array([[5.0, 1.0], [1.0, 2.0]])
    weights = AttackWeights(q1=q1, q2=np.array([[2.0, 0.3], [0.3, 0.5]]), r=0.5)
    sol = solve_riccati(cell, weights, ref, u_nom)
    soc_ref = build_reference(ref, len(u_nom))
    np.testing.assert_array_equal(sol.s[-1], q1)
    np.testing.assert_array_equal(sol.v[-1], q1 @ (soc_ref[-1], 0.0))


def test_sweep_stays_symmetric_and_psd(cell):
    u_nom = synthetic_profile("sin_mix", 1.0, 2.0, 400.0, 1.0, seed=6)
    ref = ReferenceTrajectory(0.7, 0.3)
    weights = AttackWeights(
        q1=np.array([[5.0, 1.0], [1.0, 2.0]]),
        q2=np.array([[2.0, 0.3], [0.3, 0.5]]),
        r=0.5,
    )
    sol = solve_riccati(cell, weights, ref, u_nom)
    assert np.isfinite(sol.s).all() and np.isfinite(sol.v).all()
    sym = np.abs(sol.s - np.transpose(sol.s, (0, 2, 1))).max()
    assert sym <= 1e-9
    eigs = np.linalg.eigvalsh(sol.s)
    assert eigs.min() >= -1e-9


def test_solve_riccati_needs_two_samples(cell):
    ref = ReferenceTrajectory(0.5, 0.4)
    lone = TimeSeries(0.0, 1.0, np.array([1.0]))
    with pytest.raises(ValueError, match="at least 2"):
        solve_riccati(cell, AttackWeights(), ref, lone)


def test_zero_weights_mean_zero_attack(cell):
    u_nom = synthetic_profile("sin_mix", 2.0, 1.0, 500.0, 1.0, seed=8)
    x0 = BatteryState(0.6, 0.0)
    weights = AttackWeights(q1=np.zeros((2, 2)), q2=np.zeros((2, 2)), r=1.0)
    ref = ReferenceTrajectory(0.6, 0.1)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    assert (atk.u_a.samples == 0.0).all()
    # S and V are +0.0 and the SoC stays positive, so the SoC loop's
    # p = b1 (s11 soc - v1) is b1 * +0.0 = -0.0 (b1 = -1/Q < 0) on every
    # row, and -p * rinv is +0.0
    assert not np.signbit(atk.u_a.samples).any()
    nominal = simulate(cell, x0, u_nom)
    np.testing.assert_array_equal(atk.model.soc, nominal.soc)
    np.testing.assert_array_equal(atk.model.vc, nominal.vc)


@settings(max_examples=40, deadline=None)
@given(setup=attack_setups(), r=st.floats(1e-3, 1e3))
def test_zero_weights_give_zero_attack_for_random_setups(setup, r):
    cell, _, ref, u_nom, x0 = setup
    weights = AttackWeights(q1=np.zeros((2, 2)), q2=np.zeros((2, 2)), r=r)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    assert (atk.u_a.samples == 0.0).all()
    nominal = simulate(cell, x0, u_nom)
    assert atk.model.soc.tobytes() == nominal.soc.tobytes()
    assert atk.model.vc.tobytes() == nominal.vc.tobytes()


def test_synthesis_reaches_target(cell):
    u_nom = synthetic_profile("constant", 0.0, 0.0, 600.0, 1.0)
    x0 = BatteryState(0.6, 0.0)
    ref = ReferenceTrajectory(0.6, 0.5)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    assert abs(atk.model.soc[-1] - 0.5) < 5e-3
    assert not atk.model.soc_violation


def test_grid_refinement_changes_little(cell):
    # halving dt must not move the synthesized endpoint materially
    x0 = BatteryState(0.6, 0.0)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    finals = []
    for dt in (2.0, 1.0):
        u_nom = synthetic_profile("constant", 0.0, 1.0, 600.0, dt)
        ref = ReferenceTrajectory(0.6, 0.5)
        atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
        finals.append(atk.model.soc[-1])
    assert abs(finals[0] - finals[1]) <= 1e-4


def test_higher_effort_price_shrinks_energy(cell):
    u_nom = synthetic_profile("constant", 0.0, 1.0, 600.0, 1.0)
    x0 = BatteryState(0.6, 0.0)
    ref = ReferenceTrajectory(0.6, 0.5)
    energies = []
    for r in (1.0, 2.0, 4.0):
        weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=r)
        atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
        energies.append(attack_energy(atk.u_a))
    assert energies[0] >= energies[1] >= energies[2]
    assert energies[2] > 0.0


def test_i_max_is_reported_never_clipped(cell):
    u_nom = synthetic_profile("constant", 0.0, 1.0, 600.0, 1.0)
    x0 = BatteryState(0.6, 0.0)
    ref = ReferenceTrajectory(0.6, 0.5)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    tight = synthesize_input_attack(cell, weights, ref, u_nom, x0, i_max=0.5)
    loose = synthesize_input_attack(cell, weights, ref, u_nom, x0, i_max=1e4)
    assert tight.i_max_violated
    assert not loose.i_max_violated
    np.testing.assert_array_equal(tight.u_a.samples, loose.u_a.samples)


def test_divergence_raises(cell):
    # absurdly stiff terminal weight versus a 1 s step blows up the RK4
    u_nom = synthetic_profile("constant", 0.0, 1.0, 50.0, 1.0)
    ref = ReferenceTrajectory(0.6, 0.5)
    weights = AttackWeights(q1=np.diag([1e19, 0.0]), q2=np.zeros((2, 2)), r=1e-12)
    with pytest.raises(DivergenceError, match="diverged"):
        synthesize_input_attack(cell, weights, ref, u_nom, BatteryState(0.6, 0.0))


def test_feedback_law_consistency(cell):
    # the rolled-out injection equals the law evaluated along the rolled
    # trajectory at the grid nodes
    u_nom = synthetic_profile("sin_mix", 1.0, 1.5, 300.0, 1.0, seed=5)
    x0 = BatteryState(0.65, 0.0)
    ref = ReferenceTrajectory(0.65, 0.45)
    weights = AttackWeights(q1=np.diag([1e6, 0.0]), q2=np.diag([1e3, 0.0]), r=1.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    _, b = state_matrices(cell)
    for k in (0, 7, 150, 300):
        state = BatteryState(atk.model.soc[k], atk.model.vc[k])
        t = u_nom.t0 + k * u_nom.dt
        u = attack_current(atk.riccati, b, weights.r, state, t)
        assert math.isclose(u, atk.u_a.samples[k], rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------- bit-exactness oracle


def generic_rk4_step(a, b, q2, r, h):
    """One plain RK4 step of h on the five coupled scalars, as a function.

    The step maps y = (s11, s12, s22, v1, v2) at the upper node to its
    value at the lower node; hi and lo are (u_nom, x_ref1, x_ref2) at
    those two nodes, and the midpoint inputs are their averages.
    """
    a11, a12 = float(a[0, 0]), float(a[0, 1])
    a21, a22 = float(a[1, 0]), float(a[1, 1])
    b1, b2 = float(b[0]), float(b[1])
    q2_11, q2_12, q2_22 = float(q2[0, 0]), float(q2[0, 1]), float(q2[1, 1])
    rinv = 1.0 / r

    def rhs(y, un, xr1, xr2):
        s11, s12, s22, v1, v2 = y
        m11 = s11 * a11 + s12 * a21
        m12 = s11 * a12 + s12 * a22
        m21 = s12 * a11 + s22 * a21
        m22 = s12 * a12 + s22 * a22
        p1 = s11 * b1 + s12 * b2
        p2 = s12 * b1 + s22 * b2
        ds11 = -(2.0 * m11 - p1 * p1 * rinv + q2_11)
        ds12 = -(m12 + m21 - p1 * p2 * rinv + q2_12)
        ds22 = -(2.0 * m22 - p2 * p2 * rinv + q2_22)
        btv = b1 * v1 + b2 * v2
        dv1 = -(a11 * v1 + a21 * v2 - p1 * btv * rinv - p1 * un + q2_11 * xr1 + q2_12 * xr2)
        dv2 = -(a12 * v1 + a22 * v2 - p2 * btv * rinv - p2 * un + q2_12 * xr1 + q2_22 * xr2)
        return (ds11, ds12, ds22, dv1, dv2)

    def step(y, hi, lo):
        mid = tuple(0.5 * (x_hi + x_lo) for x_hi, x_lo in zip(hi, lo))
        k1 = rhs(y, *hi)
        y2 = tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1))
        k2 = rhs(y2, *mid)
        y3 = tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2))
        k3 = rhs(y3, *mid)
        y4 = tuple(yi + h * ki for yi, ki in zip(y, k3))
        k4 = rhs(y4, *lo)
        return tuple(
            yi + (h / 6.0) * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
            for yi, k1i, k2i, k3i, k4i in zip(y, k1, k2, k3, k4)
        )

    return step


def generic_rk4_sweep(a, b, q1, q2, r, xref, u_nom):
    """Plain RK4 on the five coupled scalars, one full step of -dt at a time.

    This is the sweep as first written: it steps every row, where
    _sweep_backward runs the stationary tail as an affine map built from
    its own RK4 step.
    """
    n = len(u_nom)
    s_out = np.empty((n, 2, 2))
    v_out = np.empty((n, 2))
    s_out[-1] = q1
    v_out[-1] = q1 @ xref[-1]
    y = (
        float(q1[0, 0]),
        float(q1[0, 1]),
        float(q1[1, 1]),
        float(v_out[-1, 0]),
        float(v_out[-1, 1]),
    )
    step = generic_rk4_step(a, b, q2, r, -u_nom.dt)
    nodes = list(zip(u_nom.samples.tolist(), xref[:, 0].tolist(), xref[:, 1].tolist()))
    for k in range(n - 1, 0, -1):
        y = step(y, nodes[k], nodes[k - 1])
        if not all(math.isfinite(yi) for yi in y):
            t = u_nom.times()[k - 1]
            if all(math.isfinite(yi) for yi in y[:3]):
                raise DivergenceError(
                    f"riccati sweep: the forcing overflowed at t={t} "
                    "(profile or reference too large)"
                )
            raise DivergenceError(
                f"riccati sweep diverged at t={t} (weights too stiff for this grid step)"
            )
        s11, s12, s22, v1, v2 = y
        s_out[k - 1] = [[s11, s12], [s12, s22]]
        v_out[k - 1] = [v1, v2]
    return s_out, v_out


def with_vc_column(case):
    """A sweep case with its SoC reference widened to the (soc_ref, 0.0)
    rows that the generic oracles take."""
    *head, soc_ref, u_nom = case
    return (*head, np.column_stack([soc_ref, np.zeros(soc_ref.size)]), u_nom)


def sweep(case):
    """_sweep_backward on a case, whose A is the full matrix the generic
    oracles take, failing where it is not finite as solve_riccati does;
    the sweep reads only A's a22."""
    a, *rest = case
    s, v = _sweep_backward(float(a[1, 1]), *rest)
    _check_finite(RiccatiSolution(case[-1].times(), s, v))
    return s, v


def canonical(q):
    """q as AttackWeights stores it: symmetric, with every zero +0.0."""
    return AttackWeights(q1=q).q1


def assert_sweep_matches_generic_rk4(case):
    """_sweep_backward against the plain RK4 sweep on one case.

    Both must diverge with the same message, or neither.  Otherwise S
    must be equal bit for bit on every row.  V must be equal bit for bit
    on the rows the sweep steps one by one: every row from
    stationary_from - 1 on, or every row when S never settles.  On the
    earlier rows, the stationary tail that the sweep runs as one affine
    map, V may differ from plain RK4 by rounding only: 1e-12 of max|V|.
    """
    try:
        s, v = generic_rk4_sweep(*with_vc_column(case))
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as ours:
            sweep(case)
        assert str(ours.value) == str(exc)
        return
    s_ours, v_ours = sweep(case)
    assert s_ours.tobytes() == s.tobytes()
    j = RiccatiSolution(case[-1].times(), s, v).stationary_from
    stepped = 0 if j is None else j - 1
    assert v_ours[stepped:].tobytes() == v[stepped:].tobytes()
    assert np.abs(v_ours[:stepped] - v[:stepped]).max(initial=0.0) <= 1e-12 * np.abs(v).max()


def psd_weight(draw, scale1, scale2, size, soc_only=False):
    """A 2x2 PSD weight in cell units, as AttackWeights stores it; each entry
    is an exact zero on about one draw in four.  A soc_only weight has a
    zero vc row and column: it weights the SoC alone."""

    def entry(values, zeros):
        return draw(st.sampled_from(zeros)) if draw(st.integers(0, 3)) == 0 else draw(values)

    d1 = entry(st.floats(1e-3, size), [0.0])
    if soc_only:
        return canonical(np.diag([d1 * scale1 * scale1, 0.0]))
    d2 = entry(st.floats(1e-3, size), [0.0])
    corr = entry(st.floats(-1.0, 1.0), [0.0, -0.0])
    off = corr * math.sqrt(d1 * d2) * scale1 * scale2
    return canonical(np.array([[d1 * scale1 * scale1, off], [off, d2 * scale2 * scale2]]))


@st.composite
def sweep_cases(draw, stiffness=1.0):
    """Random cells, weights, references, inputs and grids for the sweep.

    Weights are drawn relative to the cell (capacity and c1), so that S
    settles within the horizon on many draws.  About half the draws weight
    the SoC alone, which the sweep steps on s11 and v1 alone; the rest
    draw full weights, which weight vc on most draws.  Grids start at
    t0 = 0 and elsewhere, and most of their steps dt are not dyadic.
    """
    capacity = draw(st.floats(500.0, 2e4))
    r1 = draw(st.floats(1e-3, 5e-2))
    c1 = draw(st.floats(50.0, 5e3))
    a = np.array([[0.0, 0.0], [0.0, -1.0 / (r1 * c1)]])
    b = np.array([-1.0 / capacity, 1.0 / c1])
    soc_only = draw(st.booleans())
    q1 = psd_weight(draw, capacity, c1, stiffness, soc_only)
    q2 = psd_weight(draw, capacity, c1, 1.0, soc_only)
    if draw(st.integers(0, 3)) == 0:
        q2 = np.zeros((2, 2))  # terminal-only: S never settles
    r = draw(st.floats(0.2, 5.0))
    dt = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]) | st.floats(0.05, 2.0))
    t0 = draw(st.sampled_from([0.0, 13.7, 1e3]))
    n = draw(st.integers(2, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    soc_ref = rng.uniform(0.0, 1.0, n)
    unom = rng.normal(0.0, 2.0, n) if draw(st.integers(0, 3)) else np.zeros(n)
    return a, b, q1, q2, r, soc_ref, TimeSeries(t0, dt, unom)


# a cell-scaled case with off-diagonal weights whose S settles about
# 1400 steps before the end of its 2000-step grid; its q2 weights vc,
# so the sweep steps all five scalars
_SETTLING = (
    np.array([[0.0, 0.0], [0.0, -1.0 / 20.0]]),
    np.array([-1.0 / 1e3, 1.0 / 1e3]),
    canonical(np.array([[2e5, -0.0], [-0.0, 0.0]])),
    np.array([[1e6, 2e5], [2e5, 1e6]]),
    1.0,
    np.linspace(0.8, 0.2, 2000),
    TimeSeries(0.0, 0.3, np.sin(np.arange(2000) * 0.01)),
)

# the same case with q2's vc row and column dropped: it weights the SoC
# alone, so the sweep steps s11 and v1 alone
_SETTLING_SOC = (*_SETTLING[:3], np.diag([1e6, 0.0]), *_SETTLING[4:])


def with_a22(case, a22):
    """case on a cell whose A has a22 in place of its own."""
    return (np.array([[0.0, 0.0], [0.0, a22]]), *case[1:])


def test_settling_case_settles():
    for case in (_SETTLING, _SETTLING_SOC):
        s, v = sweep(case)
        assert RiccatiSolution(case[-1].times(), s, v).stationary_from is not None


_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_case(name, terminal_only=False):
    """A shipped scenario's sweep inputs, with A as state_matrices builds it,
    so that a change to A's structure breaks the sweep's match with the
    generic RK4.  terminal_only drops q2, as sweep-fine's weights do, so S
    never settles and every row is stepped."""
    prep = prepare(load_scenario(_SCENARIOS / f"{name}.json"))
    a, b = state_matrices(prep.adv_params)
    w = prep.weights
    q2 = np.zeros((2, 2)) if terminal_only else w.q2
    return a, b, w.q1, q2, w.r, build_reference(prep.reference, len(prep.u_nom)), prep.u_nom


def test_shipped_scenarios_sweep_on_the_soc_alone(monkeypatch):
    # every shipped scenario weights the SoC alone, so its sweep steps s11
    # and v1 alone; _SETTLING's q2 weights vc, so it steps all five scalars
    soc_only = []
    pick = voltmask.attack._soc_only
    monkeypatch.setattr(
        voltmask.attack, "_soc_only", lambda *args: soc_only.append(pick(*args)) or soc_only[-1]
    )
    for name in ("tc1", "tc1_mismatch", "tc2", "tc3", "tc4"):
        prep = prepare(load_scenario(_SCENARIOS / f"{name}.json"))
        solve_riccati(prep.adv_params, prep.weights, prep.reference, prep.u_nom)
    sweep(_SETTLING)
    sweep(_SETTLING_SOC)
    assert soc_only == [True] * 5 + [False, True]


@settings(max_examples=100, deadline=None)
@given(case=sweep_cases())
@example(case=_SETTLING)
@example(case=_SETTLING_SOC)
# dt / tau1 = 3e79: the five-scalar tail map's r22 overflows, and its
# v2 = r22 * 0 would be nan, where plain RK4 keeps v2 at 0
@example(case=with_a22(_SETTLING_SOC, -1e80))
@example(case=scenario_case("tc1"))
@example(case=scenario_case("tc1_mismatch"))
@example(case=scenario_case("tc2"))
@example(case=scenario_case("tc3"))
@example(case=scenario_case("tc4"))
@example(case=scenario_case("tc3", terminal_only=True))
def test_sweep_matches_generic_rk4_up_to_rounding_in_the_tail(case):
    assert_sweep_matches_generic_rk4(case)


@settings(max_examples=30, deadline=None)
@given(case=sweep_cases(stiffness=1e6))
def test_sweep_diverges_where_generic_rk4_does(case):
    # stiff terminal weights: the divergence message, with its time, must match
    assert_sweep_matches_generic_rk4(case)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_divergence_in_the_stationary_tail_is_named(sign):
    for settling in (_SETTLING, _SETTLING_SOC):
        *head, u_nom = settling
        s, v = sweep(settling)
        k = RiccatiSolution(u_nom.times(), s, v).stationary_from // 2
        samples = u_nom.samples.copy()
        samples[k] = sign * 1e308
        case = (*head, u_nom.with_samples(samples))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                sweep(case)
        assert str(exc.value) == (
            f"riccati sweep: the forcing overflowed at t={u_nom.times()[k]} "
            "(profile or reference too large)"
        )
        assert_sweep_matches_generic_rk4(case)


@st.composite
def tail_overflow_cases(draw):
    """_SETTLING or _SETTLING_SOC with one current of +-1e308 at a drawn row
    of the stationary tail, which both run from row 585 back."""
    *head, u_nom = draw(st.sampled_from([_SETTLING, _SETTLING_SOC]))
    samples = u_nom.samples.copy()
    samples[draw(st.integers(0, 584))] = draw(st.sampled_from([1e308, -1e308]))
    return (*head, u_nom.with_samples(samples))


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases(stiffness=1e6) | tail_overflow_cases())
def test_rows_that_are_not_finite_run_from_row_0(case):
    # _check_finite reads row 0 alone and counts the rows that are not
    # finite, so those rows of S and of V must be rows 0 to some k
    a, *rest = case
    s, v = _sweep_backward(float(a[1, 1]), *rest)
    for rows in (s.reshape(-1, 4), v):
        bad = ~np.isfinite(rows).all(axis=1)
        assert (bad[:-1] >= bad[1:]).all()


_SIGNED =st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
_ZERO_OR_ONE = st.sampled_from([0.0, -0.0, 1.0])
_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def signed_zero_cases(draw):
    """Short sweeps on small cell-shaped matrices full of 0.0 and -0.0.

    A is [[0, 0], [0, a22]], as state_matrices builds it, and the weights'
    zeros are +0.0, as AttackWeights stores them; a22, b, the references
    and the currents may be -0.0.  Here S often steps to a value equal to
    the last one by == but not by its bits (-0.0 + 0.0 is 0.0), which is
    where a reuse keyed on == would repeat the wrong S part.  About half
    the draws weight the SoC alone; the rest weight vc in q1, q2 or both.
    """
    a = np.array([[0.0, 0.0], [0.0, draw(_SIGNED)]])
    b = np.array(draw(st.lists(_SIGNED, min_size=2, max_size=2)))
    if draw(st.booleans()):
        vc1, vc2 = draw(_SIGNED_ZERO), draw(_SIGNED_ZERO)
    else:
        vc1, vc2 = draw(st.sampled_from([(1.0, 0.0), (-0.0, 1.0), (1.0, 1.0)]))

    def weight(vc):
        off = draw(_SIGNED_ZERO)
        return canonical(np.array([[draw(_ZERO_OR_ONE), off], [off, vc]]))

    q1, q2 = weight(vc1), weight(vc2)
    n = draw(st.integers(2, 12))
    soc_ref = np.array(draw(st.lists(_ZERO_OR_ONE, min_size=n, max_size=n)))
    unom = np.array(draw(st.lists(_ZERO_OR_ONE, min_size=n, max_size=n)))
    t0 = draw(st.sampled_from([0.0, 2.5]))
    dt = draw(st.sampled_from([0.1, 0.3, 1.0]))
    return a, b, q1, q2, 1.0, soc_ref, TimeSeries(t0, dt, unom)


@settings(max_examples=300, deadline=None)
@given(case=signed_zero_cases())
@example(
    case=(
        np.zeros((2, 2)),
        np.zeros(2),
        canonical(np.array([[0.0, -0.0], [-0.0, -0.0]])),
        canonical(np.array([[0.0, 0.0], [0.0, -0.0]])),
        1.0,
        np.zeros(3),
        TimeSeries(0.0, 0.1, np.zeros(3)),
    )
)
def test_sweep_keeps_signed_zeros_of_generic_rk4(case):
    assert_sweep_matches_generic_rk4(case)


def negative_zero_terminal(q1, q2):
    """A five-row sweep whose terminal S holds a -0.0 where every earlier
    row of S holds 0.0, so that S repeats by == one step before it
    repeats bit for bit.  No AttackWeights stores a -0.0, so the weights
    are passed to _sweep_backward as they are."""
    return (
        np.array([[0.0, 0.0], [0.0, -1.0]]),
        np.array([1.0, 1.0]),
        np.array(q1),
        np.array(q2),
        1.0,
        np.array([0.5, 0.5, 0.5, 0.5, 0.0]),
        TimeSeries(0.0, 0.5, np.array([-1.0, 0.0, 1.0, 0.0, 1.0])),
    )


@pytest.mark.parametrize(
    "case",
    [
        # the SoC alone: s11 steps from -0.0 to 0.0 and stays there
        negative_zero_terminal([[-0.0, 0.0], [0.0, 0.0]], np.zeros((2, 2))),
        # vc too: s11 = 1 is already stationary, and s12 steps from -0.0 to 0.0
        negative_zero_terminal([[1.0, -0.0], [-0.0, 0.0]], np.diag([1.0, 0.0])),
    ],
    ids=["soc-only", "five-scalar"],
)
def test_s_is_stationary_only_once_it_repeats_bit_for_bit(monkeypatch, case):
    """Each stepping loop steps a row whose S equals the S before it by ==
    but not by its bits, and hands over to the tail's map only where S
    repeats bit for bit: the map drains rows 0 to stationary_from - 2."""
    drained = []

    def recording(recurrence):
        def counting(*args):
            drained.append(len(args[-1]))  # the forcing, one item per mapped row
            return recurrence(*args)

        return counting

    for name in ("_zoh_recurrence", "_affine_recurrence"):
        monkeypatch.setattr(voltmask.attack, name, recording(getattr(voltmask.attack, name)))
    assert_sweep_matches_generic_rk4(case)
    s, v = sweep(case)
    j = RiccatiSolution(case[-1].times(), s, v).stationary_from
    assert j == len(case[-1]) - 2
    assert drained == [j - 1, j - 1]


def stationary_tail_map(case, s, v_start, m):
    """V rows 0, ..., m-1 of the stationary tail, one plain-float row at a time.

    R, G_hi and G_lo are the V outputs of generic_rk4_step on the eight
    unit inputs at the stationary S.  Each row's forcing sums its six
    terms from 0.0, first f_k (u_nom, x_ref1, x_ref2), then f_{k+1},
    and v_k = R v_{k+1} + forcing starts from v_start, row m.
    """
    a, b, _, q2, r, xref, u_nom = case
    step = generic_rk4_step(a, b, q2, r, -u_nom.dt)
    s_part = (float(s[0, 0]), float(s[0, 1]), float(s[1, 1]))
    cols = [step(s_part + tuple(e[:2]), e[2:5], e[5:])[3:] for e in np.eye(8).tolist()]
    (r11, r21), (r12, r22) = cols[:2]
    gains = cols[5:] + cols[2:5]  # f_k's, then f_{k+1}'s
    f = list(zip(u_nom.samples.tolist(), xref[:, 0].tolist(), xref[:, 1].tolist()))
    v1, v2 = v_start.tolist()
    rows = [None] * m
    for k in range(m - 1, -1, -1):
        f1 = f2 = 0.0
        for x, (g1, g2) in zip(f[k] + f[k + 1], gains):
            f1 += x * g1
            f2 += x * g2
        v1, v2 = r11 * v1 + r12 * v2 + f1, r21 * v1 + r22 * v2 + f2
        rows[k] = (v1, v2)
    return np.array(rows, dtype=float).reshape(m, 2)


_INPUT_KINDS = st.sampled_from(["random", "zero", "negative zero", "mixed zeros"])


def draw_inputs(draw, rng, n, scale):
    """n input samples: random, all 0.0, all -0.0, or a mix of both zeros."""
    kind = draw(_INPUT_KINDS)
    if kind == "random":
        return rng.normal(0.0, scale, n)
    if kind == "mixed zeros":
        return np.where(rng.integers(0, 2, n) == 1, 0.0, -0.0)
    return np.full(n, 0.0 if kind == "zero" else -0.0)


@st.composite
def settling_cases(draw):
    """_SETTLING's or _SETTLING_SOC's cell and weights on random grids, SoC
    references and currents, zeros and signed zeros among the currents;
    S settles on every draw."""
    a, b, q1, q2, r, _, _ = draw(st.sampled_from([_SETTLING, _SETTLING_SOC]))
    n = draw(st.integers(1000, 2000))
    dt = draw(st.sampled_from([0.5, 0.7, 1.0]) | st.floats(0.5, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    soc_ref = rng.uniform(0.0, 1.0, n)
    unom = draw_inputs(draw, rng, n, 2.0)
    t0 = draw(st.sampled_from([0.0, 13.7]))
    return a, b, q1, q2, r, soc_ref, TimeSeries(t0, dt, unom)


# most sweep_cases and signed_zero_cases draws never settle and are filtered out
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=sweep_cases() | signed_zero_cases() | settling_cases())
@example(case=_SETTLING)
@example(case=_SETTLING_SOC)
def test_stationary_tail_equals_the_plain_float_map_bit_for_bit(case):
    try:
        s, v = sweep(case)
    except DivergenceError:
        assume(False)
    j = RiccatiSolution(case[-1].times(), s, v).stationary_from
    # the sweep steps rows j - 1 and up one by one and maps rows 0 to j - 2
    assume(j is not None and j >= 2)
    want = stationary_tail_map(with_vc_column(case), s[j], v[j - 1], j - 1)
    assert v[: j - 1].tobytes() == want.tobytes()


def test_stationary_from_marks_where_s_settles(scenario_dir):
    prep = prepare(load_scenario(scenario_dir / "tc1.json"))
    sol = solve_riccati(prep.adv_params, prep.weights, prep.reference, prep.u_nom)
    j = sol.stationary_from
    assert j is not None and 0 < j < sol.s.shape[0] - 1
    assert sol.s[: j + 1].tobytes() == np.tile(sol.s[j], (j + 1, 1, 1)).tobytes()
    assert sol.s[j + 1].tobytes() != sol.s[j].tobytes()

    terminal_only = AttackWeights(q1=prep.weights.q1, q2=np.zeros((2, 2)), r=prep.weights.r)
    sol = solve_riccati(prep.adv_params, terminal_only, prep.reference, prep.u_nom)
    assert sol.stationary_from is None


def test_stationary_from_counts_signed_zeros():
    grid = np.array([0.0, 1.0, 2.0])
    v = np.zeros((3, 2))
    zero = np.zeros((2, 2))
    negative_zero = np.array([[0.0, -0.0], [-0.0, 0.0]])
    assert RiccatiSolution(grid, np.array([zero, zero, zero]), v).stationary_from == 2
    assert RiccatiSolution(grid, np.array([zero, zero, negative_zero]), v).stationary_from == 1
    assert RiccatiSolution(grid, np.array([negative_zero, zero, zero]), v).stationary_from is None


def reference_rollout(params, weights, u_nom, x0, s, v):
    """The forward rollout as first written, indexing numpy scalars one by one."""
    _, b = state_matrices(params)
    b1, b2 = float(b[0]), float(b[1])
    rinv = 1.0 / weights.r
    dt = u_nom.dt
    alpha = math.exp(-dt / params.tau1)
    beta = params.r1 * (1.0 - alpha)
    scale = dt / params.capacity_q
    unom = u_nom.samples
    n = unom.size
    u_a, soc_arr, vc_arr = np.empty(n), np.empty(n), np.empty(n)
    soc, vc, charge, comp = x0.soc, x0.vc, 0.0, 0.0
    for k in range(n):
        soc_arr[k] = soc
        vc_arr[k] = vc
        lam1 = s[k, 0, 0] * soc + s[k, 0, 1] * vc - v[k, 0]
        lam2 = s[k, 1, 0] * soc + s[k, 1, 1] * vc - v[k, 1]
        ua = -(b1 * lam1 + b2 * lam2) * rinv
        u_a[k] = ua
        if k < n - 1:
            total = unom[k] + ua
            y = total - comp
            t = charge + y
            comp = (t - charge) - y
            charge = t
            soc = x0.soc - scale * charge
            vc = alpha * vc + beta * total
    return u_a, soc_arr, vc_arr


@pytest.mark.parametrize("name", ["tc1", "tc1_mismatch", "tc2", "tc3", "tc4"])
def test_rollout_matches_indexed_loop_bit_for_bit(scenario_dir, name):
    prep = prepare(load_scenario(scenario_dir / f"{name}.json"))
    atk = synthesize_input_attack(
        prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0
    )
    want = reference_rollout(
        prep.adv_params, prep.weights, prep.u_nom, prep.x0, atk.riccati.s, atk.riccati.v
    )
    for got, ref in zip((atk.u_a.samples, atk.model.soc, atk.model.vc), want):
        assert got.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(setup=attack_setups())
def test_rollout_model_equals_simulation_bit_for_bit(setup):
    # the masking takes the attacked model trajectory from the rollout
    # instead of simulating it again, so the two must agree in every bit
    cell, weights, ref, u_nom, x0 = setup
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    sim = simulate(cell, x0, add(u_nom, atk.u_a))
    model = atk.model
    assert model.soc.tobytes() == sim.soc.tobytes()
    assert model.vc.tobytes() == sim.vc.tobytes()
    assert model.voltage.samples.tobytes() == sim.voltage.samples.tobytes()
    assert (model.voltage.t0, model.voltage.dt) == (sim.voltage.t0, sim.voltage.dt)
    assert model.soc_violation == sim.soc_violation


def reference_synthesis(cell, weights, ref, u_nom, x0):
    """synthesize_input_attack with its rollout done by reference_rollout.

    Returns the bytes of u_a and of the model's SoC, vc and voltage, or
    the error's type and text.  The sweep and the stability check where
    S is stationary are the library's; the divergence is named at the
    first u_a that is not finite, and the voltage is simulate's.
    """
    try:
        riccati = solve_riccati(cell, weights, ref, u_nom)
        _, b = state_matrices(cell)
        alpha = math.exp(-u_nom.dt / cell.tau1)
        j = riccati.stationary_from
        if j is not None:
            rho = _zoh_radius(
                riccati.s[j], float(b[0]), float(b[1]), 1.0 / weights.r,
                -u_nom.dt / cell.capacity_q, alpha, cell.r1 * (1.0 - alpha),
            )
            if not rho <= 1.0 + _ZOH_RADIUS_TOL:
                raise DivergenceError(
                    "zero-order-hold closed loop is unstable where S is stationary "
                    f"(t={riccati.grid[0]} to t={riccati.grid[j]}): spectral radius {rho!r} > 1 "
                    "(feedback gain too stiff for this grid step)"
                )
        with np.errstate(all="ignore"):
            u_a, soc, vc = reference_rollout(cell, weights, u_nom, x0, riccati.s, riccati.v)
        bad = np.flatnonzero(~np.isfinite(u_a))
        if bad.size:
            raise DivergenceError(
                f"closed-loop rollout diverged at t={riccati.grid[bad[0]]} "
                "(feedback gain too stiff for this grid step)"
            )
        with np.errstate(all="ignore"):
            volts = simulate(cell, x0, TimeSeries(u_nom.t0, u_nom.dt, u_nom.samples + u_a))
    except (DivergenceError, FloatingPointError) as exc:
        return type(exc), str(exc)
    return tuple(a.tobytes() for a in (u_a, soc, vc, volts.voltage.samples))


def library_synthesis(cell, weights, ref, u_nom, x0):
    """synthesize_input_attack's results in reference_synthesis's terms."""
    try:
        atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    except (DivergenceError, FloatingPointError) as exc:
        return type(exc), str(exc)
    model = atk.model
    return tuple(
        a.tobytes() for a in (atk.u_a.samples, model.soc, model.vc, model.voltage.samples)
    )


@st.composite
def rollout_cases(draw):
    """attack_setups, with all-zero weights on about one draw in four,
    signed-zero starts, and currents with runs of 0.0, -0.0, +-1e300 and
    +-1e308, whose sums overflow."""
    cell, weights, ref, u_nom, x0 = draw(attack_setups())
    if draw(st.integers(0, 3)) == 0:
        weights = AttackWeights(q1=np.zeros((2, 2)), q2=np.zeros((2, 2)), r=weights.r)
    if draw(st.booleans()):
        x0 = BatteryState(
            draw(st.sampled_from([0.0, -0.0, x0.soc])), draw(st.sampled_from([0.0, -0.0, x0.vc]))
        )
    samples = u_nom.samples.copy()
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, samples.size - 1))
        hi = draw(st.integers(lo + 1, samples.size))
        samples[lo:hi] = draw(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e308, -1e308]))
    return cell, weights, ref, u_nom.with_samples(samples), x0


_LINE = OcvCurve((0.0, 1.0), (3.0, 4.2))

# A 1 A s cell at dt = 1 s and r = 1 with q1 = q2 = diag(1, 0): s11 stays
# 1.0 and V 0.0, so row 0's injection takes the SoC from 0.5 to 0.0 exactly
# and the feedback law's product is 0 on row 1, with vc still moving.
_ZERO_ON_ROW_1 = (
    EcmParams(1.0, 0.01, 0.01, 1e3, _LINE),
    AttackWeights(q1=np.diag([1.0, 0.0]), q2=np.diag([1.0, 0.0]), r=1.0),
    ReferenceTrajectory(0.5, 0.0, "hold_target"),
    TimeSeries(0.0, 1.0, np.zeros(6)),
    BatteryState(0.5, 0.03),
)

# vc overflows on row 2 while the SoC stays finite
_VC_OVERFLOW = (
    EcmParams(14322.0, 0.0135, 1e10, 1e-9, _LINE),
    AttackWeights(q1=np.diag([1.0, 0.0]), q2=np.zeros((2, 2)), r=1.0),
    ReferenceTrajectory(0.5, 0.4),
    TimeSeries(0.0, 1.0, np.array([0.0, 1e300, 0.0, 0.0, 0.0])),
    BatteryState(0.5, 0.0),
)

# all-zero weights from a positive SoC: the feedback product is zero on every row
_ZERO_WEIGHTS = (
    _ZERO_ON_ROW_1[0],
    AttackWeights(q1=np.zeros((2, 2)), q2=np.zeros((2, 2)), r=2.0),
    ReferenceTrajectory(0.6, 0.1),
    TimeSeries(0.0, 1.0, np.array([1.0, -0.0, 0.0, -2.0, -0.0])),
    BatteryState(0.6, -0.0),
)

# tc1 at q1 = 0: S and V are zero on the last row alone, so the feedback
# product is a zero there
_TC1 = prepare(load_scenario(_SCENARIOS / "tc1.json"))
_TC1_Q1_ZERO = (
    _TC1.adv_params,
    AttackWeights(q1=np.zeros((2, 2)), q2=_TC1.weights.q2, r=_TC1.weights.r),
    _TC1.reference,
    _TC1.u_nom,
    _TC1.x0,
)


# all-zero weights from vc = -0.0 under -0.0 currents: the reference's
# u_a is -0.0, so its vc stays -0.0 until the current moves; the SoC
# loop's u_a is +0.0, which drives vc to +0.0 from row 1
_NEGATIVE_ZERO_VC = (
    _ZERO_ON_ROW_1[0],
    _ZERO_WEIGHTS[1],
    ReferenceTrajectory(0.6, 0.1),
    TimeSeries(0.0, 1.0, np.array([-0.0, -0.0, 1.0, 0.0])),
    BatteryState(0.6, -0.0),
)


def _equal_up_to_zero_signs(got: bytes, want: bytes) -> bool:
    """Bit for bit wherever want is not zero, and zero wherever it is."""
    got, want = np.frombuffer(got), np.frombuffer(want)
    zero = want == 0.0
    return got[~zero].tobytes() == want[~zero].tobytes() and bool((got[zero] == 0.0).all())


@settings(max_examples=150, deadline=None)
@given(case=rollout_cases())
@example(case=_ZERO_ON_ROW_1)
@example(case=_VC_OVERFLOW)
@example(case=_ZERO_WEIGHTS)
@example(case=_TC1_Q1_ZERO)
@example(case=_NEGATIVE_ZERO_VC)
def test_rollout_equals_the_reference_loop_or_fails_as_it_does(case):
    got, want = library_synthesis(*case), reference_synthesis(*case)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    (u_a, soc, vc, volts), (ref_u_a, ref_soc, ref_vc, ref_volts) = got, want
    assert soc == ref_soc and volts == ref_volts
    assert _equal_up_to_zero_signs(u_a, ref_u_a)
    assert _equal_up_to_zero_signs(vc, ref_vc)


def test_vc_that_overflows_alone_is_named_as_a_diverged_rollout():
    with pytest.raises(DivergenceError) as exc:
        synthesize_input_attack(*_VC_OVERFLOW)
    assert str(exc.value) == (
        "closed-loop rollout diverged at t=2.0 (feedback gain too stiff for this grid step)"
    )


def test_soc_weights_roll_every_row_on_the_soc_alone(monkeypatch, scenario_dir):
    # the rows _roll_soc writes, per call: every row wherever the weights
    # leave vc unweighted, the zero feedback products included; the spy
    # fills both outputs with nan first, so a row it skips shows
    written = []
    roll = voltmask.attack._roll_soc

    def spy(b1, rinv, scale, soc0, nodes, soc_mv, u_a_mv):
        soc, u_a = np.asarray(soc_mv), np.asarray(u_a_mv)
        soc[:] = u_a[:] = np.nan
        roll(b1, rinv, scale, soc0, nodes, soc_mv, u_a_mv)
        written.append(int(np.count_nonzero(~np.isnan(soc) & ~np.isnan(u_a))))

    monkeypatch.setattr(voltmask.attack, "_roll_soc", spy)
    cases = [_ZERO_ON_ROW_1, _ZERO_WEIGHTS, _TC1_Q1_ZERO]
    for name in ("tc1", "tc1_mismatch", "tc2", "tc3", "tc4"):
        prep = prepare(load_scenario(scenario_dir / f"{name}.json"))
        cases.append((prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0))
    for case in cases:
        synthesize_input_attack(*case)
    assert written == [len(case[3]) for case in cases]
    # weights on vc roll all five scalars and never call it
    cell, _, ref, u_nom, x0 = _ZERO_ON_ROW_1
    vc_weights = AttackWeights(q1=np.eye(2), q2=np.eye(2), r=1.0)
    synthesize_input_attack(cell, vc_weights, ref, u_nom, x0)
    assert len(written) == len(cases)


# profile starts where t0 + k*dt is inexact, and one drawn anywhere
_STARTS = st.sampled_from([13.7, 1.7e9]) | st.floats(-1e10, 1e10)


@settings(max_examples=60, deadline=None)
@given(setup=attack_setups(), t0=_STARTS)
def test_synthesis_does_not_depend_on_the_profile_start(setup, t0):
    # the same samples from t0 = 0 and from t0: the sweep steps by dt and
    # the reference goes by sample index, so no bit of the synthesis moves
    cell, weights, ref, u_nom, x0 = setup
    shifted = TimeSeries(t0, u_nom.dt, u_nom.samples)
    want = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    got = synthesize_input_attack(cell, weights, ref, shifted, x0)
    for name in ("s", "v"):
        assert getattr(got.riccati, name).tobytes() == getattr(want.riccati, name).tobytes()
    assert got.u_a.samples.tobytes() == want.u_a.samples.tobytes()
    assert got.model.soc.tobytes() == want.model.soc.tobytes()
    assert got.model.vc.tobytes() == want.model.vc.tobytes()
    assert got.model.voltage.samples.tobytes() == want.model.voltage.samples.tobytes()
    assert got.riccati.grid.tobytes() == shifted.times().tobytes()


@settings(max_examples=80, deadline=None)
@given(setup=attack_setups(), stiffness=st.floats(1.0, 16.0), t0=_STARTS)
def test_a_returned_synthesis_is_stable_and_psd(setup, stiffness, t0):
    # the drawn weights scaled by up to 16, which takes the stationary
    # h*lambda of the closed loop to about 4, past the zero-order-hold limit
    # of 2 and the RK4 limit of about 2.785: every synthesis that returns
    # has a stable closed loop where S is stationary and a PSD S on every
    # row it computed
    cell, weights, ref, u_nom, x0 = setup
    weights = AttackWeights(q1=weights.q1 * stiffness, q2=weights.q2 * stiffness, r=weights.r)
    u_nom = TimeSeries(t0, u_nom.dt, u_nom.samples)
    try:
        atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    except DivergenceError:
        return
    sol = atk.riccati
    j = sol.stationary_from
    if j is not None:
        _, b = state_matrices(cell)
        alpha = math.exp(-u_nom.dt / cell.tau1)
        rho = _zoh_radius(
            sol.s[j],
            float(b[0]),
            float(b[1]),
            1.0 / weights.r,
            -u_nom.dt / cell.capacity_q,
            alpha,
            cell.r1 * (1.0 - alpha),
        )
        assert rho <= 1.0 + _ZOH_RADIUS_TOL
    s = sol.s[j or 0 :]
    scale = np.abs(s).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0
    assert np.linalg.eigvalsh(s / scale[:, None, None]).min() >= -_PSD_TOL


@pytest.mark.parametrize(
    ("row", "entry"),
    [
        ([[1.0, 0.0], [0.0, -1.0]], "s22 = -1.0"),
        ([[1.0, 2.0], [2.0, 1.0]], "s11*s22 - s12**2 < 0 at s11 = 1.0, s12 = 2.0, s22 = 1.0"),
    ],
    ids=["s22", "determinant"],
)
def test_psd_check_names_what_leaves_the_cone(row, entry):
    # s11 stays positive on every row; the row at t=1 has a negative s22,
    # or both diagonal entries positive and a negative determinant
    s = np.array([np.eye(2), row, 2.0 * np.eye(2)])
    solution = RiccatiSolution(np.array([0.0, 1.0, 2.0]), s, np.zeros((3, 2)))
    with pytest.raises(DivergenceError) as exc:
        _check_psd(solution)
    assert str(exc.value) == (
        f"riccati sweep left the positive semidefinite cone at t=1.0: {entry} "
        "(weights too stiff for this grid step)"
    )
