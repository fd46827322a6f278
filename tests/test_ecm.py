"""Cell model: OCV lookup, exact zero-order-hold stepping, simulation.

The scalar ocv, step and terminal_voltage of tests/scalar_model.py are
the reference the kernel is held to, and a property holds the kernel bit
for bit to a loop that indexes numpy arrays one element at a time.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_model import ocv, step, terminal_voltage

from voltmask import (
    EcmParams,
    BatteryState,
    OcvCurve,
    TimeSeries,
    invert_ocv,
    load_csv,
    simulate,
    state_matrices,
    synthetic_profile,
)
from voltmask.ecm import _ocv_array, _simulate_arrays, dump_params, load_params


def ocv_at(curve, soc):
    """The kernel's OCV readout at one SoC."""
    return float(_ocv_array(curve, np.array([soc]))[0])


class TestOcvCurve:
    def test_interpolation_midpoint(self):
        curve = OcvCurve((0.0, 1.0), (3.0, 4.2))
        assert math.isclose(ocv_at(curve, 0.5), 3.6)
        assert ocv_at(curve, 0.0) == 3.0
        assert ocv_at(curve, 1.0) == 4.2

    def test_extrapolation_extends_end_segments(self):
        curve = OcvCurve((0.0, 1.0), (3.0, 4.2))
        assert math.isclose(ocv_at(curve, 1.1), 4.32)
        assert math.isclose(ocv_at(curve, -0.1), 2.88)

    def test_inversion_round_trip(self, cell):
        for soc in np.linspace(-0.05, 1.05, 41):
            v = ocv(cell.ocv, soc)
            assert math.isclose(invert_ocv(cell.ocv, v), soc, abs_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="span"):
            OcvCurve((0.1, 1.0), (3.0, 4.0))
        with pytest.raises(ValueError, match="not strictly increasing"):
            OcvCurve((0.0, 0.5, 0.5, 1.0), (3.0, 3.1, 3.2, 3.3))
        with pytest.raises(ValueError, match="ocv values not strictly increasing"):
            OcvCurve((0.0, 0.5, 1.0), (3.0, 3.5, 3.5))
        with pytest.raises(ValueError, match="count"):
            OcvCurve((0.0, 1.0), (3.0, 3.5, 4.0))
        with pytest.raises(ValueError, match="at least 2"):
            OcvCurve((0.0,), (3.0,))


class TestParams:
    def test_state_matrices_values(self, cell):
        a, b = state_matrices(cell)
        # x = (soc, vc): soc has no self-dynamics, vc decays with 1/(r1 c1)
        assert a[0, 0] == 0.0 and a[0, 1] == 0.0 and a[1, 0] == 0.0
        assert a[1, 1] == -1.0 / (cell.r1 * cell.c1)
        assert np.isclose(a[1, 1], -0.0184992, atol=1e-7)
        assert np.allclose(b, [-6.98226e-5, 1.901719e-4], rtol=1e-5)
        assert b[0] == -1.0 / cell.capacity_q
        assert b[1] == 1.0 / cell.c1

    def test_tau1(self, cell):
        assert cell.tau1 == cell.r1 * cell.c1

    def test_positive_finite_required(self, cell):
        with pytest.raises(ValueError, match="r0 must be positive"):
            dataclasses.replace(cell, r0=0.0)
        with pytest.raises(ValueError, match="capacity_q must be positive"):
            dataclasses.replace(cell, capacity_q=-1.0)
        with pytest.raises(ValueError, match="c1 must be positive"):
            dataclasses.replace(cell, c1=math.nan)

    @pytest.mark.parametrize(
        "fields",
        [
            {"capacity_q": 5e-324},
            {"c1": 1e-310},
            {"c1": 2.0**-1024},  # 1/c1 is 2**1024, one past the largest float
            {"r1": 1e-200, "c1": 1e-200},  # tau1 underflows to 0
            {"r1": 1e-160, "c1": 1e-150},  # a subnormal tau1
            {"r1": 2.0**-512, "c1": 2.0**-512},
        ],
    )
    def test_reciprocals_the_model_steps_by_must_be_finite(self, cell, fields):
        name = "r1 * c1" if "r1" in fields else next(iter(fields))
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(cell, **fields)
        assert str(exc.value).startswith(f"{name} = ")
        assert str(exc.value).endswith("is too small: its reciprocal is not finite")

    @pytest.mark.parametrize(
        "fields",
        [
            {"capacity_q": math.nextafter(2.0**-1024, 1.0)},
            # 1/c1 and 1/tau1 just below the largest float
            {"r1": 1.0, "c1": math.nextafter(2.0**-1024, 1.0)},
            {"r1": 1e-40, "c1": 1e-40},
        ],
    )
    def test_the_smallest_steppable_cells_are_accepted(self, cell, fields):
        a, b = state_matrices(dataclasses.replace(cell, **fields))
        assert np.isfinite(a).all() and np.isfinite(b).all()

    def test_a_tau1_that_overflows_is_accepted(self, cell):
        # -1/inf is -0.0, a finite a22: the RC branch holds its voltage
        a, b = state_matrices(dataclasses.replace(cell, r1=1e200, c1=1e200))
        assert math.copysign(1.0, a[1, 1]) == -1.0 and a[1, 1] == 0.0
        assert b[1] == 1e-200

    def test_json_round_trip(self, cell, tmp_path):
        path = tmp_path / "cell.json"
        dump_params(cell, path)
        back = load_params(path)
        assert back == cell

    def test_load_errors_name_the_key(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"capacity_As": 100.0}')
        with pytest.raises(ValueError, match="missing key 'r0_ohm'"):
            load_params(path)
        path.write_text("not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_params(path)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("ocv", [1, 2]),
            ("ocv", [[0.0, "3.0"], [1.0, 4.2]]),
            ("capacity_As", True),
            ("r1_ohm", "1"),
        ],
    )
    def test_load_rejects_non_numeric_fields(self, cell, tmp_path, field, value):
        path = tmp_path / "cell.json"
        dump_params(cell, path)
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            load_params(path)

    def test_bool_is_not_a_parameter_value(self, linear_cell):
        with pytest.raises(ValueError, match="capacity_q must be positive"):
            dataclasses.replace(linear_cell, capacity_q=True)


def test_terminal_voltage_sign_convention(linear_cell):
    state = BatteryState(0.5, 0.05)

    def reading(current):
        # the first sample's voltage is read at x0 under that sample's current
        return simulate(linear_cell, state, TimeSeries(0.0, 1.0, [current])).voltage.samples[0]

    # positive current discharges: ohmic drop subtracts from the terminal
    assert math.isclose(reading(4.0), 3.495948)
    assert math.isclose(reading(-4.0), 3.604052)
    assert math.isclose(reading(0.0), 3.55)


def one_step(params, state, current, dt):
    """The kernel's state after one interval of constant current."""
    sim = simulate(params, state, TimeSeries(0.0, dt, [current, current]))
    return BatteryState(sim.soc[1], sim.vc[1])


def test_step_soc_is_exact_coulomb_counting(cell):
    # 4 A for 1074.15 s moves exactly 4 * 1074.15 / 14322 = 0.3 of SoC
    out = one_step(cell, BatteryState(0.8, 0.0), 4.0, 1074.15)
    assert math.isclose(out.soc, 0.5, rel_tol=1e-12)


def test_step_vc_zero_order_hold_value(cell):
    out = one_step(cell, BatteryState(0.5, 0.0), 1.0, 1.0)
    assert math.isclose(out.vc, 1.884237e-4, rel_tol=1e-5)

    # independent check: forward Euler on dvc/dt = -vc/tau + i/c1 at a
    # 10000x finer step agrees to its own O(h) accuracy
    h = 1e-4
    vc = 0.0
    for _ in range(10000):
        vc += h * (-vc / cell.tau1 + 1.0 / cell.c1)
    assert math.isclose(out.vc, vc, abs_tol=1e-9)


def test_step_composition_property(cell):
    # exact discretization: one step of 2*dt equals two steps of dt
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = BatteryState(rng.uniform(0.1, 0.9), rng.uniform(-0.05, 0.05))
        current = rng.uniform(-10.0, 10.0)
        dt = rng.uniform(0.1, 30.0)
        twice = step(cell, step(cell, state, current, dt), current, dt)
        once = step(cell, state, current, 2.0 * dt)
        assert math.isclose(twice.soc, once.soc, rel_tol=1e-12)
        assert math.isclose(twice.vc, once.vc, rel_tol=1e-9, abs_tol=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    capacity_q=st.floats(100.0, 1e5),
    r1=st.floats(1e-4, 0.1),
    c1=st.floats(1.0, 1e5),
    soc=st.floats(-0.5, 1.5),
    vc=st.floats(-0.1, 0.1),
    current=st.floats(-50.0, 50.0),
    dt=st.floats(1e-3, 100.0),
)
def test_zoh_composition_within_a_few_ulp(capacity_q, r1, c1, soc, vc, current, dt):
    # one step of 2*dt equals two steps of dt to a few ulp of the terms
    # each state sums: soc and the charge moved, vc and the RC drive
    cell = EcmParams(capacity_q, 0.01, r1, c1, OcvCurve((0.0, 1.0), (3.0, 4.2)))
    state = BatteryState(soc, vc)
    twice = step(cell, step(cell, state, current, dt), current, dt)
    once = step(cell, state, current, 2.0 * dt)
    soc_scale = abs(soc) + abs(current) * 2.0 * dt / capacity_q
    vc_scale = abs(vc) + r1 * abs(current)
    assert abs(twice.soc - once.soc) <= 4 * math.ulp(soc_scale)
    assert abs(twice.vc - once.vc) <= 4 * math.ulp(vc_scale)


def test_step_rejects_bad_dt(tmp_path):
    # the kernel steps by its profile's dt, and every way to build a
    # profile rejects a step that is not positive and finite
    path = tmp_path / "i.csv"
    path.write_text("time_s,value\n0,1\n1,1\n")
    for dt in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            TimeSeries(0.0, dt, [1.0])
        with pytest.raises(ValueError, match="dt must be positive"):
            synthetic_profile("constant", 0.0, 1.0, 10.0, dt)
        with pytest.raises(ValueError, match="dt must be positive"):
            load_csv(path, dt)


class TestSimulate:
    def test_matches_repeated_step(self, cell):
        prof = synthetic_profile("sin_mix", 3.0, 1.0, 120.0, 1.0, seed=7)
        x0 = BatteryState(0.7, 0.01)
        sim = simulate(cell, x0, prof)
        state = x0
        for k in range(len(prof)):
            assert abs(state.soc - sim.soc[k]) < 1e-13
            assert state.vc == sim.vc[k]
            if k < len(prof) - 1:
                state = step(cell, state, float(prof.samples[k]), prof.dt)

    def test_voltage_matches_pointwise_readout(self, cell):
        prof = synthetic_profile("pulse_train", 2.0, 0.5, 160.0, 1.0)
        sim = simulate(cell, BatteryState(0.6, 0.0), prof)
        for k in (0, 1, 80, 159, 160):
            state = BatteryState(sim.soc[k], sim.vc[k])
            v = terminal_voltage(cell, state, float(prof.samples[k]))
            assert v == sim.voltage.samples[k]

    def test_final_sample_current_only_affects_voltage(self, cell):
        base = synthetic_profile("constant", 0.0, 2.0, 10.0, 1.0)
        bumped = base.with_samples(np.concatenate([base.samples[:-1], [50.0]]))
        a = simulate(cell, BatteryState(0.5, 0.0), base)
        b = simulate(cell, BatteryState(0.5, 0.0), bumped)
        np.testing.assert_array_equal(a.soc, b.soc)
        np.testing.assert_array_equal(a.vc, b.vc)
        assert a.voltage.samples[-1] != b.voltage.samples[-1]

    def test_coulomb_count_matches_exact_sum(self, cell):
        prof = synthetic_profile("sin_mix", 5.0, 1.3, 5000.0, 1.0, seed=21)
        x0 = BatteryState(0.9, 0.0)
        sim = simulate(cell, x0, prof)
        expected = x0.soc - prof.dt / cell.capacity_q * math.fsum(prof.samples[:-1].tolist())
        assert abs(sim.soc[-1] - expected) <= 1e-12 * abs(expected)

    def test_constant_current_closed_form(self, cell):
        i = 3.0
        prof = synthetic_profile("constant", 0.0, i, 500.0, 1.0)
        sim = simulate(cell, BatteryState(0.8, 0.02), prof)
        k = np.arange(len(prof))
        alpha = math.exp(-prof.dt / cell.tau1)
        vc_expected = 0.02 * alpha**k + cell.r1 * (1.0 - alpha**k) * i
        soc_expected = 0.8 - i * prof.dt * k / cell.capacity_q
        np.testing.assert_allclose(sim.vc, vc_expected, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sim.soc, soc_expected, rtol=1e-12)

    def test_zero_current_holds_state(self, cell):
        prof = synthetic_profile("constant", 0.0, 0.0, 50.0, 1.0)
        sim = simulate(cell, BatteryState(0.4, 0.0), prof)
        np.testing.assert_array_equal(sim.soc, np.full(51, 0.4))
        np.testing.assert_array_equal(sim.vc, np.zeros(51))
        np.testing.assert_array_equal(sim.voltage.samples, np.full(51, ocv(cell.ocv, 0.4)))

    def test_time_shift_does_not_change_states(self, cell):
        prof = synthetic_profile("sin_mix", 2.0, 1.0, 60.0, 1.0, seed=2)
        shifted = TimeSeries(100.0, prof.dt, prof.samples)
        a = simulate(cell, BatteryState(0.5, 0.0), prof)
        b = simulate(cell, BatteryState(0.5, 0.0), shifted)
        np.testing.assert_array_equal(a.soc, b.soc)
        np.testing.assert_array_equal(a.voltage.samples, b.voltage.samples)
        assert b.voltage.t0 == 100.0

    def test_soc_violation_reported_not_clamped(self, cell):
        # 20 A for an hour empties a 14322 As cell several times over
        prof = synthetic_profile("constant", 0.0, 20.0, 3600.0, 10.0)
        sim = simulate(cell, BatteryState(0.3, 0.0), prof)
        assert sim.soc_violation
        assert sim.soc[-1] < 0.0

        calm = simulate(cell, BatteryState(0.3, 0.0), synthetic_profile("constant", 0.0, 0.1, 100.0, 1.0))
        assert not calm.soc_violation


def reference_kernel(params, soc0, vc0, current, dt):
    """The stepping kernel as first written, indexing numpy scalars one by one."""
    n = current.size
    alpha = math.exp(-dt / params.tau1)
    beta = params.r1 * (1.0 - alpha)
    scale = dt / params.capacity_q
    soc = np.empty(n)
    vc = np.empty(n)
    soc[0] = soc0
    vc[0] = vc0
    charge = 0.0
    comp = 0.0
    v = vc0
    for k in range(1, n):
        y = current[k - 1] - comp
        t = charge + y
        comp = (t - charge) - y
        charge = t
        soc[k] = soc0 - scale * charge
        v = alpha * v + beta * current[k - 1]
        vc[k] = v
    volts = _ocv_array(params.ocv, soc) - vc - current * params.r0
    return soc, vc, volts


@st.composite
def kernel_cases(draw):
    """Random cells and currents: float64, strided views, integer dtypes, signed zeros."""
    params = EcmParams(
        capacity_q=draw(st.floats(100.0, 1e5)),
        r0=draw(st.floats(1e-4, 0.1)),
        r1=draw(st.floats(1e-4, 0.1)),
        c1=draw(st.floats(1.0, 1e5)),
        ocv=OcvCurve((0.0, 0.3, 1.0), (3.0, 3.6, 4.2)),
    )
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float", "signed_zeros", "strided", "column", "int64", "int32", "huge_int"]))
    if kind == "float":
        current = rng.normal(0.0, 5.0, n)
    elif kind == "signed_zeros":
        current = rng.choice([0.0, -0.0, 1.5, -2.25], n)
    elif kind == "strided":
        current = rng.normal(0.0, 5.0, 3 * n)[::3]
    elif kind == "column":
        current = rng.normal(0.0, 5.0, (n, 2))[:, 1]
    elif kind == "int64":
        current = rng.integers(-20, 20, n, dtype=np.int64)
    elif kind == "int32":
        current = rng.integers(-20, 20, n, dtype=np.int32)
    else:  # beyond 2**53, so the conversion to float rounds
        current = rng.integers(-(2**62), 2**62, n, dtype=np.int64)
    soc0 = draw(st.floats(-0.5, 1.5))
    vc0 = draw(st.sampled_from([0.0, -0.0]) | st.floats(-0.1, 0.1))
    dt = draw(st.sampled_from([0.1, 0.3, 1.0]) | st.floats(1e-3, 100.0))
    return params, soc0, vc0, current, dt


@settings(max_examples=80, deadline=None)
@given(case=kernel_cases())
@example(
    case=(
        EcmParams(1e3, 0.01, 0.01, 1e3, OcvCurve((0.0, 1.0), (3.0, 4.2))),
        0.5,
        -0.0,
        np.array([-0.0, -0.0, 1.0]),
        1.0,
    )
)
def test_kernel_matches_reference_loop_bit_for_bit(case):
    got = _simulate_arrays(*case)
    want = reference_kernel(*case)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_kernel_starts_at_soc0_when_dt_over_capacity_overflows():
    # 1/capacity_q is finite, but dt / capacity_q is 1e310, inf
    params = EcmParams(1e-300, 0.01, 0.01, 1e3, OcvCurve((0.0, 1.0), (3.0, 4.2)))
    case = (params, 0.5, 0.0, np.array([0.0, 1.0, -1.0]), 1e10)
    with np.errstate(all="ignore"):
        got = _simulate_arrays(*case)
        want = reference_kernel(*case)
    assert got[0][0] == 0.5
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
