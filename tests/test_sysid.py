"""Parameter identification: OCV extraction and RC fitting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ecm import reference_kernel

from voltmask import (
    BatteryState,
    EcmParams,
    TimeSeries,
    extract_ocv,
    fit_rc,
    simulate,
    synthetic_profile,
)
from voltmask.ecm import _ocv_array
from voltmask.sysid import _FIT_NAMES, FitReport, _log_pattern_search, _pava_increasing


def sweep_pair(cell, soc0, amp, dt):
    """Constant-current record covering the full SoC range from soc0."""
    n = int(cell.capacity_q / abs(amp) / dt) + 1
    current = TimeSeries(0.0, dt, np.full(n, amp))
    sim = simulate(cell, BatteryState(soc0, 0.0), current)
    return current, sim.voltage


class TestPava:
    def test_output_is_nondecreasing(self):
        rng = np.random.default_rng(1)
        y = np.cumsum(rng.standard_normal(200))
        out = _pava_increasing(y)
        assert (np.diff(out) >= 0.0).all()

    def test_sorted_input_unchanged(self):
        y = np.array([1.0, 2.0, 2.5, 7.0])
        np.testing.assert_array_equal(_pava_increasing(y), y)

    def test_pooling_preserves_the_mean(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(500)
        out = _pava_increasing(y)
        assert math.isclose(out.sum(), y.sum(), rel_tol=1e-9, abs_tol=1e-9)


class TestExtractOcv:
    def test_round_trip_noiseless(self, cell):
        charge = sweep_pair(cell, 0.0, -0.2, 4.0)
        discharge = sweep_pair(cell, 1.0, 0.2, 4.0)
        curve = extract_ocv(charge, discharge, cell.capacity_q, n_breakpoints=21)
        grid = np.linspace(0.0, 1.0, 401)
        err = np.abs(_ocv_array(curve, grid) - _ocv_array(cell.ocv, grid)).max()
        assert err <= 2e-3

    def test_round_trip_with_noise(self, cell):
        rng = np.random.default_rng(12)
        chg_i, chg_v = sweep_pair(cell, 0.0, -0.2, 4.0)
        dis_i, dis_v = sweep_pair(cell, 1.0, 0.2, 4.0)
        chg_v = chg_v.with_samples(chg_v.samples + 1e-3 * rng.standard_normal(len(chg_v)))
        dis_v = dis_v.with_samples(dis_v.samples + 1e-3 * rng.standard_normal(len(dis_v)))
        curve = extract_ocv((chg_i, chg_v), (dis_i, dis_v), cell.capacity_q, n_breakpoints=21)
        grid = np.linspace(0.0, 1.0, 401)
        err = np.abs(_ocv_array(curve, grid) - _ocv_array(cell.ocv, grid)).max()
        assert err <= 5e-3

    def test_breakpoints_pinned_and_monotone(self, cell):
        charge = sweep_pair(cell, 0.0, -0.2, 4.0)
        discharge = sweep_pair(cell, 1.0, 0.2, 4.0)
        curve = extract_ocv(charge, discharge, cell.capacity_q, n_breakpoints=11)
        assert curve.soc_breakpoints[0] == 0.0 and curve.soc_breakpoints[-1] == 1.0
        assert len(curve.soc_breakpoints) == 11
        assert (np.diff(curve.ocv_volts) > 0.0).all()

    def test_warns_on_fast_sweep(self, cell):
        charge = sweep_pair(cell, 0.0, -2.0, 4.0)
        discharge = sweep_pair(cell, 1.0, 2.0, 4.0)
        with pytest.warns(UserWarning, match="ohmic drop"):
            extract_ocv(charge, discharge, cell.capacity_q, r0_guess=cell.r0)

    def test_partial_coverage_rejected(self, cell):
        chg_i, chg_v = sweep_pair(cell, 0.0, -0.2, 4.0)
        half = len(chg_i) // 2
        chg_short = (
            TimeSeries(0.0, chg_i.dt, chg_i.samples[:half]),
            TimeSeries(0.0, chg_v.dt, chg_v.samples[:half]),
        )
        discharge = sweep_pair(cell, 1.0, 0.2, 4.0)
        with pytest.raises(ValueError, match="overlap"):
            extract_ocv(chg_short, discharge, cell.capacity_q)

    def test_sign_flip_in_sweep_rejected(self, cell):
        chg_i, chg_v = sweep_pair(cell, 0.0, -0.2, 4.0)
        flipped = chg_i.samples.copy()
        flipped[10] = 0.2
        with pytest.raises(ValueError, match="charge sweep SoC not strictly increasing"):
            extract_ocv(
                (chg_i.with_samples(flipped), chg_v),
                sweep_pair(cell, 1.0, 0.2, 4.0),
                cell.capacity_q,
            )

    def test_validation(self, cell):
        charge = sweep_pair(cell, 0.0, -0.2, 4.0)
        discharge = sweep_pair(cell, 1.0, 0.2, 4.0)
        with pytest.raises(ValueError, match="n_breakpoints"):
            extract_ocv(charge, discharge, cell.capacity_q, n_breakpoints=1)
        with pytest.raises(ValueError, match="capacity_q"):
            extract_ocv(charge, discharge, -5.0)


@pytest.fixture()
def excitation(cell):
    prof = synthetic_profile("sin_mix", 4.0, 0.5, 1500.0, 1.0, seed=9)
    x0 = BatteryState(0.55, 0.0)
    sim = simulate(cell, x0, prof)
    return prof, sim.voltage, x0


class TestFitRc:
    def test_truth_start_converges_with_zero_error(self, cell, excitation):
        current, voltage, x0 = excitation
        report = fit_rc(cell, (current, voltage), frozen={"capacity_q"}, x0=x0)
        assert report.converged
        assert report.iterations <= 500
        assert report.rmse < 1e-10
        for name in ("r0", "r1", "c1"):
            assert math.isclose(getattr(report.fitted, name), getattr(cell, name), rel_tol=1e-3)

    def test_missing_x0_is_inverted_from_the_first_sample(self, cell, excitation):
        # the record starts with vc = 0, so removing the ohmic drop from
        # the first voltage and inverting the OCV recovers the exact SoC
        current, voltage, x0 = excitation
        frozen = {"r0", "r1", "c1", "capacity_q"}
        a = fit_rc(cell, (current, voltage), frozen=frozen)
        b = fit_rc(cell, (current, voltage), frozen=frozen, x0=x0)
        assert math.isclose(a.rmse, b.rmse, abs_tol=1e-9)

    def test_all_frozen_returns_initial(self, cell, excitation):
        current, voltage, x0 = excitation
        report = fit_rc(cell, (current, voltage), frozen={"r0", "r1", "c1", "capacity_q"}, x0=x0)
        assert report.fitted is cell
        assert report.iterations == 0
        assert report.converged

    def test_frozen_parameters_keep_their_values(self, cell, excitation):
        current, voltage, x0 = excitation
        start = dataclasses.replace(cell, r0=cell.r0 * 1.3)
        report = fit_rc(start, (current, voltage), frozen={"r1", "c1", "capacity_q"}, x0=x0)
        assert report.fitted.r1 == cell.r1
        assert report.fitted.c1 == cell.c1
        assert report.fitted.capacity_q == cell.capacity_q
        assert math.isclose(report.fitted.r0, cell.r0, rel_tol=0.05)

    def test_unknown_frozen_name_rejected(self, cell, excitation):
        current, voltage, x0 = excitation
        with pytest.raises(ValueError, match="unknown frozen"):
            fit_rc(cell, (current, voltage), frozen={"r9"}, x0=x0)

    def test_noisy_fit_rmse_matches_noise_floor(self, cell, excitation):
        current, voltage, x0 = excitation
        rng = np.random.default_rng(4)
        noisy = voltage.with_samples(voltage.samples + 1e-3 * rng.standard_normal(len(voltage)))
        start = dataclasses.replace(cell, r0=cell.r0 * 1.5, r1=cell.r1 * 1.5, c1=cell.c1 * 1.5)
        report = fit_rc(start, (current, noisy), frozen={"capacity_q"}, x0=x0)
        assert 0.8e-3 <= report.rmse <= 1.5e-3
        for name in ("r0", "r1", "c1"):
            assert math.isclose(getattr(report.fitted, name), getattr(cell, name), rel_tol=0.05)

    def test_grid_mismatch_rejected(self, cell, excitation):
        current, voltage, x0 = excitation
        off = TimeSeries(current.t0, current.dt, current.samples[:-1])
        with pytest.raises(ValueError, match="mismatch"):
            fit_rc(cell, (off, voltage), x0=x0)


def reference_fit(initial, data, frozen, x0):
    """fit_rc's search with every candidate run through the reference stepping loop."""
    current, measured = data
    free = [name for name in _FIT_NAMES if name not in frozen]
    base = {name: getattr(initial, name) for name in _FIT_NAMES}

    def rmse_for(params):
        try:
            with np.errstate(all="ignore"):
                _, _, volts = reference_kernel(
                    params, x0.soc, x0.vc, current.samples, current.dt
                )
        except (OverflowError, FloatingPointError):
            return math.inf
        if not np.isfinite(volts).all():
            return math.inf
        err = volts - measured.samples
        return float(np.sqrt(np.mean(err * err)))

    if not free:
        return FitReport(fitted=initial, rmse=rmse_for(initial), iterations=0, converged=True)

    def objective(x_log):
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
    fitted = dict(base)
    for name, value in zip(free, x_log):
        fitted[name] = math.exp(value)
    return FitReport(
        fitted=EcmParams(ocv=initial.ocv, **fitted),
        rmse=fx,
        iterations=iterations,
        converged=converged,
    )


@settings(max_examples=12, deadline=None)
@given(
    scales=st.tuples(*[st.floats(0.5, 2.0)] * 4),
    frozen=st.sets(st.sampled_from(_FIT_NAMES)),
    n=st.integers(2, 150),
    dt=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-3]),
)
def test_fit_matches_search_over_reference_kernel(cell, scales, frozen, n, dt, seed, noise):
    # the record stays short: the reference loop steps numpy scalars
    rng = np.random.default_rng(seed)
    current = TimeSeries(0.0, dt, rng.normal(0.0, 20.0, n))
    x0 = BatteryState(rng.uniform(0.2, 0.8), rng.uniform(-0.02, 0.02))
    voltage = simulate(cell, x0, current).voltage
    voltage = voltage.with_samples(voltage.samples + noise * rng.standard_normal(n))
    start = dataclasses.replace(
        cell, **{name: getattr(cell, name) * k for name, k in zip(_FIT_NAMES, scales)}
    )
    got = fit_rc(start, (current, voltage), frozen=frozen, x0=x0)
    want = reference_fit(start, (current, voltage), frozen, x0)
    assert got == want
    assert repr(got) == repr(want)
