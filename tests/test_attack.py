"""Injection synthesis: backward sweep correctness and the feedback law."""

import math

import numpy as np
import pytest

from voltmask import (
    AttackWeights,
    BatteryState,
    DivergenceError,
    ReferenceTrajectory,
    RiccatiSolution,
    TimeSeries,
    attack_current,
    attack_energy,
    build_reference,
    simulate,
    solve_riccati,
    state_matrices,
    synthesize_input_attack,
    synthetic_profile,
)
from voltmask.attack import _sweep_backward


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

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            AttackWeights(q2=np.diag([-1.0, 0.0]))

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError, match="r must be positive"):
            AttackWeights(r=0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            AttackWeights(q1=np.eye(3))


class TestReference:
    def test_linear_ramp_endpoints(self):
        ref = ReferenceTrajectory(0.8, 0.2, 0.0, 100.0)
        grid = np.linspace(0.0, 100.0, 11)
        xref = build_reference(ref, grid)
        assert xref.shape == (11, 2)
        assert xref[0, 0] == 0.8 and math.isclose(xref[-1, 0], 0.2)
        assert math.isclose(xref[5, 0], 0.5)
        np.testing.assert_array_equal(xref[:, 1], np.zeros(11))

    def test_hold_target(self):
        ref = ReferenceTrajectory(0.8, 0.2, 0.0, 100.0, shape="hold_target")
        xref = build_reference(ref, np.linspace(0.0, 100.0, 5))
        np.testing.assert_array_equal(xref[:, 0], np.full(5, 0.2))

    def test_grid_must_stay_inside_horizon(self):
        ref = ReferenceTrajectory(0.8, 0.2, 0.0, 100.0)
        with pytest.raises(ValueError, match="horizon"):
            build_reference(ref, np.linspace(0.0, 200.0, 5))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown reference shape"):
            ReferenceTrajectory(0.8, 0.2, 0.0, 1.0, shape="step")
        with pytest.raises(ValueError, match="soc_target"):
            ReferenceTrajectory(0.8, 1.2, 0.0, 1.0)
        with pytest.raises(ValueError, match="tf must exceed t0"):
            ReferenceTrajectory(0.8, 0.2, 1.0, 1.0)


def test_sweep_matches_scalar_euler_oracle():
    # A = 0 and b = (1, 0) reduce the matrix equations to one scalar
    # Riccati equation; constants frozen after tuning the oracle step
    grid = np.arange(0.0, 2.0 + 1e-12, 0.002)
    a = np.zeros((2, 2))
    b = np.array([1.0, 0.0])
    q1 = np.diag([0.4, 0.0])
    q2 = np.diag([0.25, 0.0])
    xref = np.zeros((grid.size, 2))
    unom = np.zeros(grid.size)
    s, v = _sweep_backward(a, b, q1, q2, 1.0, xref, unom, grid)

    oracle = scalar_riccati_euler(1.0, 1.0, 0.25, 0.4, grid, refine=100)
    dev = np.abs(s[:, 0, 0] - oracle).max() / np.abs(oracle).max()
    assert dev <= 1e-6

    # the uncoupled entries stay exactly zero in this subcase
    assert np.abs(s[:, 0, 1]).max() == 0.0
    assert np.abs(s[:, 1, 1]).max() == 0.0
    assert np.abs(v).max() == 0.0


def test_terminal_conditions_are_assigned_exactly(cell):
    u_nom = synthetic_profile("constant", 0.0, 2.0, 300.0, 1.0)
    ref = ReferenceTrajectory(0.6, 0.4, 0.0, 300.0)
    q1 = np.array([[5.0, 1.0], [1.0, 2.0]])
    weights = AttackWeights(q1=q1, q2=np.array([[2.0, 0.3], [0.3, 0.5]]), r=0.5)
    sol = solve_riccati(cell, weights, ref, u_nom)
    xref = build_reference(ref, u_nom.times())
    np.testing.assert_array_equal(sol.s[-1], q1)
    np.testing.assert_array_equal(sol.v[-1], q1 @ xref[-1])


def test_sweep_stays_symmetric_and_psd(cell):
    u_nom = synthetic_profile("sin_mix", 1.0, 2.0, 400.0, 1.0, seed=6)
    ref = ReferenceTrajectory(0.7, 0.3, 0.0, 400.0)
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
    ref = ReferenceTrajectory(0.5, 0.4, 0.0, 10.0)
    lone = TimeSeries(0.0, 1.0, np.array([1.0]))
    with pytest.raises(ValueError, match="at least 2"):
        solve_riccati(cell, AttackWeights(), ref, lone)


def test_riccati_interp_linear_between_nodes():
    grid = np.array([0.0, 1.0])
    s = np.array([np.eye(2), 2.0 * np.eye(2)])
    v = np.array([[1.0, 0.0], [2.0, 0.0]])
    sol = RiccatiSolution(grid=grid, s=s, v=v)
    s_mid, v_mid = sol.interp(0.5)
    np.testing.assert_allclose(s_mid, 1.5 * np.eye(2))
    np.testing.assert_allclose(v_mid, [1.5, 0.0])
    with pytest.raises(ValueError, match="outside sweep horizon"):
        sol.interp(2.0)


def test_attack_current_formula():
    grid = np.array([0.0, 1.0])
    sol = RiccatiSolution(
        grid=grid,
        s=np.array([np.eye(2), 2.0 * np.eye(2)]),
        v=np.array([[1.0, 0.0], [2.0, 0.0]]),
    )
    state = BatteryState(0.2, 0.1)
    # at t = 0.5: S = 1.5 I, V = (1.5, 0); u = -(1/r) b'(Sx - V)
    u = attack_current(sol, np.array([1.0, 2.0]), 2.0, state, 0.5)
    assert math.isclose(u, 0.45)


def test_zero_weights_mean_zero_attack(cell):
    u_nom = synthetic_profile("sin_mix", 2.0, 1.0, 500.0, 1.0, seed=8)
    x0 = BatteryState(0.6, 0.0)
    weights = AttackWeights(q1=np.zeros((2, 2)), q2=np.zeros((2, 2)), r=1.0)
    ref = ReferenceTrajectory(0.6, 0.1, 0.0, 500.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    assert (atk.u_a.samples == 0.0).all()
    nominal = simulate(cell, x0, u_nom)
    np.testing.assert_array_equal(atk.soc, nominal.soc)
    np.testing.assert_array_equal(atk.vc, nominal.vc)


def test_synthesis_reaches_target(cell):
    u_nom = synthetic_profile("constant", 0.0, 0.0, 600.0, 1.0)
    x0 = BatteryState(0.6, 0.0)
    ref = ReferenceTrajectory(0.6, 0.5, 0.0, 600.0)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    assert abs(atk.soc[-1] - 0.5) < 5e-3
    assert not atk.soc_violation


def test_grid_refinement_changes_little(cell):
    # halving dt must not move the synthesized endpoint materially
    x0 = BatteryState(0.6, 0.0)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    finals = []
    for dt in (2.0, 1.0):
        u_nom = synthetic_profile("constant", 0.0, 1.0, 600.0, dt)
        ref = ReferenceTrajectory(0.6, 0.5, 0.0, u_nom.t_end)
        atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
        finals.append(atk.soc[-1])
    assert abs(finals[0] - finals[1]) <= 1e-4


def test_higher_effort_price_shrinks_energy(cell):
    u_nom = synthetic_profile("constant", 0.0, 1.0, 600.0, 1.0)
    x0 = BatteryState(0.6, 0.0)
    ref = ReferenceTrajectory(0.6, 0.5, 0.0, 600.0)
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
    ref = ReferenceTrajectory(0.6, 0.5, 0.0, 600.0)
    weights = AttackWeights(q1=np.diag([1e7, 0.0]), q2=np.diag([2e5, 0.0]), r=1.0)
    tight = synthesize_input_attack(cell, weights, ref, u_nom, x0, i_max=0.5)
    loose = synthesize_input_attack(cell, weights, ref, u_nom, x0, i_max=1e4)
    assert tight.i_max_violated
    assert not loose.i_max_violated
    np.testing.assert_array_equal(tight.u_a.samples, loose.u_a.samples)


def test_divergence_raises(cell):
    # absurdly stiff terminal weight versus a 1 s step blows up the RK4
    u_nom = synthetic_profile("constant", 0.0, 1.0, 50.0, 1.0)
    ref = ReferenceTrajectory(0.6, 0.5, 0.0, 50.0)
    weights = AttackWeights(q1=np.diag([1e19, 0.0]), q2=np.zeros((2, 2)), r=1e-12)
    with pytest.raises(DivergenceError, match="diverged"):
        synthesize_input_attack(cell, weights, ref, u_nom, BatteryState(0.6, 0.0))


def test_feedback_law_consistency(cell):
    # the rolled-out injection equals the law evaluated along the rolled
    # trajectory at the grid nodes
    u_nom = synthetic_profile("sin_mix", 1.0, 1.5, 300.0, 1.0, seed=5)
    x0 = BatteryState(0.65, 0.0)
    ref = ReferenceTrajectory(0.65, 0.45, 0.0, 300.0)
    weights = AttackWeights(q1=np.diag([1e6, 0.0]), q2=np.diag([1e3, 0.0]), r=1.0)
    atk = synthesize_input_attack(cell, weights, ref, u_nom, x0)
    mats = state_matrices(cell)
    for k in (0, 7, 150, 300):
        state = BatteryState(atk.soc[k], atk.vc[k])
        t = u_nom.t0 + k * u_nom.dt
        u = attack_current(atk.riccati, mats.b, weights.r, state, t)
        assert math.isclose(u, atk.u_a.samples[k], rel_tol=1e-9, abs_tol=1e-12)
