"""Time-series grid handling, CSV round trips, and synthetic profiles."""

import math

import numpy as np
import pytest

from voltmask import TimeSeries, add, load_csv, save_csv, synthetic_profile
from voltmask.profiles import MAX_SAMPLES, _sample_count, check_same_grid


def test_times_and_t_end():
    ts = TimeSeries(2.0, 0.5, np.array([1.0, 2.0, 3.0]))
    assert len(ts) == 3
    np.testing.assert_array_equal(ts.times(), [2.0, 2.5, 3.0])
    assert ts.t_end == 3.0


def test_samples_are_read_only():
    ts = TimeSeries(0.0, 1.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ts.samples[0] = 9.0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="dt must be positive"):
        TimeSeries(0.0, 0.0, np.array([1.0]))
    with pytest.raises(ValueError, match="dt must be positive"):
        TimeSeries(0.0, -1.0, np.array([1.0]))
    with pytest.raises(ValueError, match="non-empty"):
        TimeSeries(0.0, 1.0, np.array([]))
    with pytest.raises(ValueError, match="finite"):
        TimeSeries(0.0, 1.0, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="t0 must be finite"):
        TimeSeries(np.inf, 1.0, np.array([1.0]))


def test_with_samples_keeps_grid():
    ts = TimeSeries(5.0, 2.0, np.array([1.0, 2.0]))
    out = ts.with_samples(np.array([3.0, 4.0]))
    assert out.t0 == 5.0 and out.dt == 2.0
    np.testing.assert_array_equal(out.samples, [3.0, 4.0])


def test_add_and_grid_mismatch():
    a = TimeSeries(0.0, 1.0, np.array([1.0, 2.0]))
    b = TimeSeries(0.0, 1.0, np.array([10.0, 20.0]))
    np.testing.assert_array_equal(add(a, b).samples, [11.0, 22.0])

    c = TimeSeries(0.5, 1.0, np.array([1.0, 2.0]))
    # the error must describe both grids so mismatches are debuggable
    with pytest.raises(ValueError, match=r"t0=0.0.*t0=0.5"):
        check_same_grid(a, c)
    with pytest.raises(ValueError, match="mismatch"):
        add(a, TimeSeries(0.0, 1.0, np.array([1.0, 2.0, 3.0])))


def test_load_csv_resamples_onto_uniform_grid(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("time_s,value\n0,5\n10,5\n")
    ts = load_csv(path, target_dt=2.0)
    assert ts.t0 == 0.0 and ts.dt == 2.0 and len(ts) == 6
    np.testing.assert_array_equal(ts.samples, np.full(6, 5.0))


def test_load_csv_interpolates_nonuniform_rows(tmp_path):
    path = tmp_path / "ramp.csv"
    path.write_text("time_s,value\n0,0\n1,1\n4,4\n")
    ts = load_csv(path, target_dt=1.0)
    np.testing.assert_allclose(ts.samples, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_load_csv_never_extends_past_last_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("time_s,value\n0,1\n5,1\n")
    ts = load_csv(path, target_dt=2.0)
    # floor(5 / 2) + 1 points; t_end = 4 < 5
    assert len(ts) == 3
    assert ts.t_end == 4.0


def test_load_csv_errors_name_the_line(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,current\n0,1\n1,1\n")
    with pytest.raises(ValueError, match="line 1: expected header"):
        load_csv(bad_header, 1.0)

    non_numeric = tmp_path / "b.csv"
    non_numeric.write_text("time_s,value\n0,1\n1,abc\n")
    with pytest.raises(ValueError, match="line 3: non-numeric"):
        load_csv(non_numeric, 1.0)

    backwards = tmp_path / "c.csv"
    backwards.write_text("time_s,value\n0,1\n2,1\n1,1\n")
    with pytest.raises(ValueError, match="line 4: time must be strictly increasing"):
        load_csv(backwards, 1.0)

    single = tmp_path / "d.csv"
    single.write_text("time_s,value\n0,1\n")
    with pytest.raises(ValueError, match="at least 2 data rows"):
        load_csv(single, 1.0)

    with pytest.raises(ValueError, match="target_dt"):
        load_csv(bad_header, 0.0)


def test_save_load_round_trip_is_exact(tmp_path):
    ts = synthetic_profile("sin_mix", 2.0, 0.5, 30.0, 1.0, seed=5)
    path = tmp_path / "round.csv"
    save_csv(ts, path)
    back = load_csv(path, target_dt=ts.dt)
    # repr() formatting round-trips doubles exactly
    assert back.t0 == ts.t0 and back.dt == ts.dt
    np.testing.assert_array_equal(back.samples, ts.samples)


def test_constant_profile():
    ts = synthetic_profile("constant", 99.0, 2.5, 10.0, 2.0)
    assert ts.t0 == 0.0
    np.testing.assert_array_equal(ts.samples, np.full(6, 2.5))


def test_sin_mix_is_seeded_and_deterministic():
    a = synthetic_profile("sin_mix", 2.0, 1.0, 100.0, 1.0, seed=3)
    b = synthetic_profile("sin_mix", 2.0, 1.0, 100.0, 1.0, seed=3)
    c = synthetic_profile("sin_mix", 2.0, 1.0, 100.0, 1.0, seed=4)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.abs(a.samples - c.samples).max() > 1e-3


def test_sin_mix_tones_carry_zero_net_charge():
    # the charge integral uses samples[:-1] (each sample held for dt),
    # over which every tone covers whole periods and sums to zero
    ts = synthetic_profile("sin_mix", 4.0, 1.7, 2000.0, 1.0, seed=11)
    tones = ts.samples - 1.7
    assert abs(math.fsum(tones[:-1].tolist())) < 1e-9


def test_pulse_train_levels():
    ts = synthetic_profile("pulse_train", 1.5, 0.5, 80.0, 1.0)
    levels = set(np.unique(ts.samples))
    assert levels == {-1.0, 2.0}


def test_sample_ceiling_is_checked_before_allocating(tmp_path):
    # 2e12 samples would need 16 TB per array; the ceiling rejects the grid
    # before anything is allocated and names dt and the sample count
    with pytest.raises(ValueError, match=r"dt 1e-09 over 2000.0 s gives 2e\+12 samples"):
        synthetic_profile("sin_mix", 2.0, 1.0, 2000.0, 1e-9)
    path = tmp_path / "long.csv"
    path.write_text("time_s,value\n0,1\n2000,1\n")
    with pytest.raises(ValueError, match=r"dt 1e-09 over 2000.0 s gives 2e\+12 samples"):
        load_csv(path, target_dt=1e-9)
    # a subnormal step overflows the count to inf, still a ValueError
    with pytest.raises(ValueError, match="inf samples"):
        synthetic_profile("constant", 0.0, 1.0, 2000.0, 5e-324)
    # the ceiling itself is allowed
    assert _sample_count(MAX_SAMPLES - 1.0, 1.0) == MAX_SAMPLES
    with pytest.raises(ValueError, match=f"limit of {MAX_SAMPLES}"):
        _sample_count(float(MAX_SAMPLES), 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown profile kind"):
        synthetic_profile("square", 1.0, 0.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="shorter than dt"):
        synthetic_profile("constant", 1.0, 0.0, 0.5, 1.0)
