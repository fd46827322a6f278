"""Parameter identification: OCV extraction and RC fitting."""

import dataclasses
import json
import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_ecm import reference_kernel

from voltmask import (
    BatteryState,
    EcmParams,
    TimeSeries,
    ConfigError,
    extract_ocv,
    fit_rc,
    load_csv,
    load_fit_config,
    save_csv,
    simulate,
    synthetic_profile,
)
from voltmask.ecm import _coulomb_counts, _ocv_array, _rc_trajectory
from voltmask.sysid import (
    _FIT_NAMES,
    FitConfig,
    FitReport,
    _levenberg_marquardt,
    _pava_increasing,
    _sensitivities,
)


def sweep_pair(cell, soc0, amp, dt):
    """Constant-current record covering the full SoC range from soc0."""
    n = int(cell.capacity_q / abs(amp) / dt) + 1
    current = TimeSeries(0.0, dt, np.full(n, amp))
    sim = simulate(cell, BatteryState(soc0, 0.0), current)
    return current, sim.voltage


def reference_pava(y):
    """The projection as an index loop on numpy work arrays, the stack's reference."""
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


PAVA_POOL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308]


class TestPava:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.sampled_from(PAVA_POOL), max_size=40),
            st.lists(st.floats(-1e3, 1e3), max_size=40).map(lambda steps: list(np.cumsum(steps))),
        )
    )
    @example([0.0, -0.0])
    @example([-0.0, 0.0, -0.0, 1.0])
    @example([1.0, math.nan, 0.5, -1.0])
    def test_matches_the_reference_byte_for_byte(self, values):
        y = np.array(values, dtype=float)
        with np.errstate(all="ignore"):  # the reference's numpy scalars warn on inf and NaN pools
            expected = reference_pava(y)
        assert _pava_increasing(y).tobytes() == expected.tobytes()

    # values under 1e-300 are left out: a subnormal mean rounds by more
    # than 1e-12 of the block's largest value
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) >= 1e-300),
            min_size=1,
            max_size=60,
        )
    )
    def test_blocks_are_the_projection(self, values):
        # the optimality conditions, independent of how the blocks are found:
        # levels increase strictly from block to block, each level is the
        # mean of its block, and no prefix of a block has a lower mean
        y = np.array(values)
        out = _pava_increasing(y)
        cuts = [0, *(np.flatnonzero(np.diff(out) != 0.0) + 1).tolist(), y.size]
        assert (np.diff(out) >= 0.0).all()
        for start, end in zip(cuts, cuts[1:]):
            block = y[start:end]
            tol = 1e-12 * np.abs(block).max()
            assert abs(out[start] - block.mean()) <= tol
            prefix_means = np.cumsum(block) / np.arange(1, block.size + 1)
            assert (prefix_means >= out[start] - tol).all()

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

    def test_flat_curve_rises_by_the_floor_step(self, cell):
        # constant sweep voltages project onto one flat block, and each
        # breakpoint is raised to 1e-6 V above the one before
        sweeps = (sweep_pair(cell, 0.0, -0.2, 60.0), sweep_pair(cell, 1.0, 0.2, 60.0))
        flat = [(i, v.with_samples(np.full(len(v), 4.0))) for i, v in sweeps]
        curve = extract_ocv(*flat, cell.capacity_q, n_breakpoints=4)
        assert curve.ocv_volts == (4.0, 4.0 + 1e-6, 4.0 + 1e-6 + 1e-6, 4.0 + 1e-6 + 1e-6 + 1e-6)

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


def _excitation(cell):
    prof = synthetic_profile("sin_mix", 4.0, 0.5, 1500.0, 1.0, seed=9)
    x0 = BatteryState(0.55, 0.0)
    sim = simulate(cell, x0, prof)
    return prof, sim.voltage, x0


@pytest.fixture()
def excitation(cell):
    return _excitation(cell)


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


def reference_sensitivities(params, free, soc, vc, current, dt):
    """d voltage / d ln p, one row per name of free, by plain-float loops over the samples."""
    i = current.tolist()
    n = len(i)
    rows = []
    for name in free:
        if name == "r0":
            rows.append([-params.r0 * x for x in i])
        elif name == "capacity_q":
            s_bp = params.ocv.soc_breakpoints
            v_bp = params.ocv.ocv_volts
            scale = dt / params.capacity_q
            row = []
            charge = 0.0
            comp = 0.0
            for k in range(n):
                j = min(max(bisect_right(s_bp, float(soc[k])) - 1, 0), len(s_bp) - 2)
                slope = (v_bp[j + 1] - v_bp[j]) / (s_bp[j + 1] - s_bp[j])
                row.append(slope * (scale * charge))
                y = i[k] - comp
                t = charge + y
                comp = (t - charge) - y
                charge = t
            rows.append(row)
        else:
            tau = params.r1 * params.c1
            alpha = math.exp(-dt / tau)
            d_alpha = alpha * (dt / tau)
            if name == "r1":
                d_beta = params.r1 * (1.0 - alpha) - params.r1 * d_alpha
            else:
                d_beta = -(params.r1 * d_alpha)
            sens = 0.0
            row = [-sens]
            for k in range(n - 1):
                sens = alpha * sens + (d_alpha * float(vc[k]) + d_beta * i[k])
                row.append(-sens)
            rows.append(row)
    return np.array(rows, dtype=float)


def reference_fit(initial, data, frozen, x0):
    """fit_rc's solver, scoring cells by the reference stepping loop and
    taking its Jacobian from plain-float loops."""
    current, measured = data
    free = [name for name in _FIT_NAMES if name not in frozen]

    def trajectory(params):
        with np.errstate(all="ignore"):
            return reference_kernel(params, x0.soc, x0.vc, current.samples, current.dt)

    def jacobian(params, soc, vc):
        return reference_sensitivities(params, free, soc, vc, current.samples, current.dt)

    return _levenberg_marquardt(initial, free, measured.samples, trajectory, jacobian)


@settings(max_examples=12, deadline=None)
@given(
    scales=st.tuples(*[st.floats(0.5, 2.0)] * 4),
    frozen=st.sets(st.sampled_from(_FIT_NAMES)),
    n=st.integers(2, 150),
    dt=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-3]),
)
def test_fit_matches_solver_over_reference_loops(cell, scales, frozen, n, dt, seed, noise):
    # the record stays short: the reference loops step one sample at a time
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
    assert len(got.rmse_history) == len(got.damping_history) == got.iterations


@settings(max_examples=40, deadline=None)
@given(
    scales=st.tuples(*[st.floats(0.1, 10.0)] * 4),
    n=st.integers(2, 300),
    dt=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_jacobian_matches_central_differences(cell, scales, n, dt, seed):
    # every column, capacity included, against (v(ln p + h) - v(ln p - h)) / 2h
    rng = np.random.default_rng(seed)
    current = rng.normal(0.0, 20.0, n)
    soc0, vc0 = rng.uniform(0.2, 0.8), rng.uniform(-0.02, 0.02)
    params = dataclasses.replace(
        cell, **{name: getattr(cell, name) * k for name, k in zip(_FIT_NAMES, scales)}
    )
    counts = _coulomb_counts(current)
    soc, vc, _ = _rc_trajectory(params, soc0, vc0, counts, current, dt)
    jac = _sensitivities(params, list(_FIT_NAMES), soc, vc, counts, current, dt).T
    h = 1e-5
    breakpoints = np.asarray(cell.ocv.soc_breakpoints)
    for j, name in enumerate(_FIT_NAMES):
        ends = []
        for sign in (1.0, -1.0):
            moved = dataclasses.replace(params, **{name: getattr(params, name) * math.exp(sign * h)})
            ends.append(_rc_trajectory(moved, soc0, vc0, counts, current, dt))
        numeric = (ends[0][2] - ends[1][2]) / (2.0 * h)
        keep = np.ones(n, dtype=bool)
        if name == "capacity_q":
            # the OCV slope jumps at a breakpoint, so a sample whose SoC
            # crosses one within the step has no central difference
            keep = np.searchsorted(breakpoints, ends[0][0]) == np.searchsorted(
                breakpoints, ends[1][0]
            )
        tol = 1e-6 * np.abs(jac[:, j]).max() + 1e-8
        np.testing.assert_allclose(jac[keep, j], numeric[keep], rtol=0, atol=tol, err_msg=name)


@pytest.mark.parametrize("noise_seed", [0, 1, 2])
def test_long_record_converges_from_a_far_start(cell, noise_seed):
    # 6000 s started at 1.5x r0, r1 and c1: the search this fit replaced
    # stopped at its iteration cap here with c1 about 10% off
    current = synthetic_profile("sin_mix", 4.0, 0.5, 6000.0, 1.0, seed=9)
    x0 = BatteryState(0.55, 0.0)
    voltage = simulate(cell, x0, current).voltage
    rng = np.random.default_rng(noise_seed)
    noisy = voltage.with_samples(voltage.samples + 1e-3 * rng.standard_normal(len(voltage)))
    start = dataclasses.replace(cell, r0=cell.r0 * 1.5, r1=cell.r1 * 1.5, c1=cell.c1 * 1.5)
    report = fit_rc(start, (current, noisy), frozen={"capacity_q"}, x0=x0)
    assert report.converged
    assert math.isclose(report.fitted.c1, cell.c1, rel_tol=0.02)


@pytest.mark.parametrize(
    "scales",
    [(0.1, 0.1, 0.1, 1.0), (20.0, 20.0, 20.0, 1.0), (20.0, 0.05, 5.0, 1.0), (5.0, 0.2, 5.0, 0.8)],
)
def test_far_starts_reach_the_cell(cell, excitation, scales):
    # unbounded, the first Gauss-Newton steps in log space run off to a
    # flat limit (r1 -> inf, a bare capacitor) where the fit stops as if
    # converged, tens of mV off
    current, voltage, x0 = excitation
    rng = np.random.default_rng(4)
    noisy = voltage.with_samples(voltage.samples + 1e-3 * rng.standard_normal(len(voltage)))
    start = dataclasses.replace(
        cell, **{name: getattr(cell, name) * k for name, k in zip(_FIT_NAMES, scales)}
    )
    frozen = {"capacity_q"} if scales[3] == 1.0 else set()
    report = fit_rc(start, (current, noisy), frozen=frozen, x0=x0)
    assert report.converged
    assert report.rmse <= 1.1e-3
    for name in _FIT_NAMES:
        assert math.isclose(getattr(report.fitted, name), getattr(cell, name), rel_tol=0.05)


def test_degenerate_records_end_quietly(cell):
    # no current, a start that overflows, a start at the truth: none raises or warns
    start = dataclasses.replace(cell, r0=cell.r0 * 1.5, r1=cell.r1 * 1.5, c1=cell.c1 * 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in (2, 50):
            idle = TimeSeries(0.0, 1.0, np.zeros(n))
            x0 = BatteryState(0.5, 0.01)
            voltage = simulate(cell, x0, idle).voltage
            report = fit_rc(start, (idle, voltage), x0=x0)
            assert report.iterations <= 500
            assert math.isfinite(report.rmse)
        current, voltage, _ = _excitation(cell)
        for x0 in (BatteryState(0.55, 1e300), BatteryState(-1e308, 0.0)):
            report = fit_rc(start, (current, voltage), x0=x0)
            assert report == FitReport(start, math.inf, 0, False, (), ())
        report = fit_rc(cell, (current, voltage), x0=BatteryState(0.55, 0.0))
        assert report == FitReport(cell, 0.0, 0, True, (), ())


class TestLoadFitConfig:
    @pytest.fixture()
    def fit_dir(self, tmp_path, params_path, cell, excitation):
        """A start cell, OCV sweeps at dt 60 and an excitation record at dt 1."""
        (tmp_path / "cell.json").write_text(params_path.read_text())
        for name, soc0, amp in (("chg", 0.0, -2.0), ("dis", 1.0, 2.0)):
            current, voltage = sweep_pair(cell, soc0, amp, 60.0)
            save_csv(current, tmp_path / f"{name}_i.csv")
            save_csv(voltage, tmp_path / f"{name}_v.csv")
        current, voltage, _ = excitation
        save_csv(current, tmp_path / "exc_i.csv")
        save_csv(voltage, tmp_path / "exc_v.csv")
        return tmp_path

    OCV = {
        "charge_current_csv": "chg_i.csv",
        "charge_voltage_csv": "chg_v.csv",
        "discharge_current_csv": "dis_i.csv",
        "discharge_voltage_csv": "dis_v.csv",
        "dt": 60.0,
    }
    RC = {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 1.0}

    @staticmethod
    def write(fit_dir, **blocks):
        path = fit_dir / "fit.json"
        path.write_text(json.dumps({"initial_params_file": "cell.json", **blocks}))
        return path

    def test_loads_the_cell_and_every_record(self, fit_dir, cell):
        rc = {**self.RC, "frozen": ["capacity_q", "r0"], "soc0": 0.55, "vc0": 0.01}
        config = load_fit_config(self.write(fit_dir, ocv={**self.OCV, "r0_guess": 0.01}, rc=rc))
        assert isinstance(config, FitConfig)
        assert config.initial == cell
        loaded = [*config.charge, *config.discharge, *config.record]
        names = ["chg_i", "chg_v", "dis_i", "dis_v", "exc_i", "exc_v"]
        for series, name, dt in zip(loaded, names, [60.0] * 4 + [1.0] * 2):
            expected = load_csv(fit_dir / f"{name}.csv", dt)
            assert (series.t0, series.dt) == (expected.t0, expected.dt)
            assert series.samples.tobytes() == expected.samples.tobytes()
        assert (config.n_breakpoints, config.r0_guess) == (21, 0.01)
        assert config.frozen == frozenset({"capacity_q", "r0"})
        assert config.x0 == BatteryState(0.55, 0.01)

    def test_an_absent_block_leaves_its_fields_at_their_defaults(self, fit_dir):
        rc_only = load_fit_config(self.write(fit_dir, rc=self.RC))
        assert (rc_only.charge, rc_only.discharge) == (None, None)
        assert (rc_only.n_breakpoints, rc_only.r0_guess) == (21, None)
        assert (rc_only.frozen, rc_only.x0) == (frozenset(), None)
        ocv_only = load_fit_config(self.write(fit_dir, ocv={**self.OCV, "n_breakpoints": 7}))
        assert ocv_only.record is None and ocv_only.n_breakpoints == 7

    @pytest.mark.parametrize(
        ("blocks", "message"),
        [
            ({}, "need an 'ocv' and/or 'rc' block"),
            ({"ocv": {"n_breakpoints": 2002}}, "ocv: field 'n_breakpoints' must be 2 to 2001"),
            ({"ocv": {"n_breakpoints": 1}}, "ocv: field 'n_breakpoints' must be 2 to 2001"),
            ({"ocv": {"dt": 0.0}}, "ocv: field 'dt' must be positive"),
            ({"rc": {"frozen": ["c1", "r2"]}}, "rc: field 'frozen' names ['r2'], not among"),
            ({"rc": {"vc0": 0.0}}, "rc: field 'vc0' is given without 'soc0'"),
            ({"rc": {"soc0": "0.5"}}, "rc: field 'soc0' must be a number"),
        ],
    )
    def test_errors_name_the_file_block_and_field(self, fit_dir, blocks, message):
        full = {"ocv": self.OCV, "rc": self.RC}
        blocks = {name: {**full[name], **fields} for name, fields in blocks.items()}
        path = self.write(fit_dir, **blocks)
        with pytest.raises(ConfigError) as caught:
            load_fit_config(path)
        assert str(caught.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("block", ["ocv", "rc"])
    def test_records_of_one_pair_must_share_a_grid(self, fit_dir, block):
        # the voltage record of each pair starts one step late
        for name, dt in (("chg_v", 60.0), ("exc_v", 1.0)):
            series = load_csv(fit_dir / f"{name}.csv", dt)
            save_csv(TimeSeries(dt, dt, series.samples), fit_dir / f"{name}.csv")
        pair = {"ocv": ("charge_current_csv", "charge_voltage_csv"),
                "rc": ("current_csv", "voltage_csv")}[block]
        path = self.write(fit_dir, **{block: {"ocv": self.OCV, "rc": self.RC}[block]})
        with pytest.raises(ConfigError) as caught:
            load_fit_config(path)
        assert str(caught.value).startswith(
            f"{path}: {block}: fields {pair[0]!r} and {pair[1]!r} give different grids: "
        )

    def test_a_missing_record_is_named_by_its_field(self, fit_dir):
        path = self.write(fit_dir, rc={**self.RC, "voltage_csv": "ghost.csv"})
        with pytest.raises(ConfigError) as caught:
            load_fit_config(path)
        assert str(caught.value) == f"{path}: rc: voltage_csv not found: {fit_dir / 'ghost.csv'}"
