"""Time-series grid handling, CSV round trips, and synthetic profiles.

load_csv is held to the per-row parser it replaced (samples bit for
bit, or the same message) on random files with blank and
whitespace-only rows, rows starting with #, LF, CRLF and lone CR line
ends, quoted cells, spaces, NBSP, non-ASCII digits, underscores, leading
and trailing commas, signed zeros, infinity, +nan and other non-finite
cells, cells over the csv module's field size limit, wrong column
counts, non-increasing times and files with no data rows.  Example
tests check that a file with no data rows raises no warning, that a
bad cell at line 17 000 of a 17 903-row record is named by that line,
and that the row reader runs only where numpy's reader fails.
"""

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voltmask.profiles
from voltmask import BatteryState, TimeSeries, add, load_csv, save_csv, simulate, synthetic_profile
from voltmask.profiles import MAX_SAMPLES, _sample_count, check_same_grid
from voltmask.sysid import load_fit_config


def test_times():
    ts = TimeSeries(2.0, 0.5, np.array([1.0, 2.0, 3.0]))
    assert len(ts) == 3
    np.testing.assert_array_equal(ts.times(), [2.0, 2.5, 3.0])


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
    # floor(5 / 2) + 1 points; the last at 4 < 5
    assert len(ts) == 3
    assert ts.times()[-1] == 4.0


def test_load_csv_keeps_the_last_sample_at_unix_times(tmp_path):
    # the span of rows logged from t0 = 1.7e9 s is a difference of rounded
    # times, off by up to 2.4e-7 s: far more than 1e-9 steps of 0.1 s
    path = tmp_path / "unix.csv"
    for n in range(2, 300):
        ts = TimeSeries(1.7e9, 0.1, np.arange(float(n)))
        save_csv(ts, path)
        back = load_csv(path, target_dt=0.1)
        assert (back.t0, back.dt, len(back)) == (ts.t0, ts.dt, n)
        assert back.samples.tobytes() == ts.samples.tobytes()


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

    under_one_step = tmp_path / "e.csv"
    under_one_step.write_text("time_s,value\n0,1\n0.5,1\n")
    with pytest.raises(ValueError, match="e.csv: rows span 0.5 s, less than one step of 1.0 s"):
        load_csv(under_one_step, 1.0)

    with pytest.raises(ValueError, match="target_dt"):
        load_csv(bad_header, 0.0)


def reference_load_csv(path, target_dt):
    """load_csv as first written: np.isfinite on every row's two floats,
    and csv's own errors named by their line."""
    path = Path(path)
    times = []
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected header 'time_s,value'")
            if [c.strip() for c in header] != ["time_s", "value"]:
                raise ValueError(
                    f"{path}: line 1: expected header 'time_s,value', got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
                try:
                    t = float(row[0])
                    v = float(row[1])
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: non-numeric cell in row {row!r}"
                    ) from None
                if not (np.isfinite(t) and np.isfinite(v)):
                    raise ValueError(f"{path}: line {lineno}: non-finite cell in row {row!r}")
                if times and t <= times[-1]:
                    raise ValueError(
                        f"{path}: line {lineno}: time must be strictly increasing "
                        f"({t} after {times[-1]})"
                    )
                times.append(t)
                values.append(v)
        except csv.Error as exc:  # a cell over csv's field size limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(times) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(times)}")
    t0 = times[0]
    n = _sample_count(times[-1] - t0, target_dt, math.ulp(max(abs(t0), abs(times[-1]))))
    if n < 2:
        raise ValueError(
            f"{path}: rows span {times[-1] - t0} s, less than one step of {target_dt} s; "
            "need at least 2 grid points"
        )
    grid = t0 + target_dt * np.arange(n)
    return TimeSeries(t0, target_dt, np.interp(grid, times, values))


# cells that float() reads, with spaces, underscores, signed zeros, NBSP
# and non-ASCII digits, and cells it rejects or reads as non-finite; numpy's
# reader refuses the quotes, underscores and non-ASCII digits, and reads the
# 140 000 nines, longer than csv's field size limit, as inf
_VALUE_CELLS = st.sampled_from(
    ["0", "-0.0", "0.0", "1_0", " 2.5", "3.25 ", "-1e-3", "1E2", '"4.5"', ".5", "5."]
    + ["\xa02.5", "2.5\xa0", "\u0661\u0662", "\u0663.\u0665", "2\x0b", "\x0c3"]
    + ["nan", "inf", "-inf", "infinity", "+nan", "-Infinity", "1e500"]
    + ["abc", "", "0x1p3", "2\x003", "1 2", "#1", "9" * 140_000]
) | st.floats(-1e3, 1e3).map(repr)


@st.composite
def csv_files(draw):
    """Text of a CSV profile: mostly valid rows, some of them hostile.

    Hostile lines are blank, whitespace-only or start with '#', have
    quoted cells, a leading or trailing comma, a wrong column count or a
    time that does not increase, or a cell from _VALUE_CELLS.  Lines end
    in LF, CRLF or a lone CR, and about one file in eight has no data
    rows at all.
    """
    header = draw(
        st.sampled_from(
            ["time_s,value"] * 6 + [" time_s , value", '"time_s","value"', "time,value"]
        )
    )
    lines = [header]
    t = draw(st.floats(-50.0, 50.0))
    n_rows = draw(st.integers(0, 30)) if draw(st.integers(0, 7)) else 0
    for _ in range(n_rows):
        kind = draw(
            st.sampled_from(
                ["row"] * 40
                + ["blank", "quoted"] * 3
                + ["spaces", "comment", "commas", "cells", "columns", "backwards"]
            )
        )
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "  ", "\t", "\xa0", " \x0b"])))
            continue
        if kind == "backwards":
            t -= draw(st.sampled_from([0.0, -0.0, 0.5]))
        else:
            t += draw(st.floats(0.01, 5.0))
        t_cell = repr(t)
        if kind == "cells":
            t_cell = draw(_VALUE_CELLS)
        v_cell = draw(_VALUE_CELLS) if kind == "cells" else repr(draw(st.floats(-10.0, 10.0)))
        if kind == "columns":
            lines.append(",".join([t_cell, v_cell, v_cell][: draw(st.sampled_from([1, 3]))]))
        elif kind == "quoted":  # a space before a quote keeps the quote in the cell
            lines.append(f'"{t_cell}",{draw(st.sampled_from(["", " "]))}"{v_cell}"')
        elif kind == "comment":
            lines.append(f"#{t_cell},{v_cell}")
        elif kind == "commas":
            lines.append(draw(st.sampled_from([f",{t_cell},{v_cell}", f"{t_cell},{v_cell},"])))
        else:
            lines.append(f"{t_cell},{v_cell}")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(text=csv_files(), target_dt=st.sampled_from([0.1, 0.7, 1.0, 2.5]))
@example(text="time_s,value\n-0.0,1_0\n0.0,2\n", target_dt=1.0)
@example(text="time_s,value\n0,1\n1,-inf\n", target_dt=1.0)
@example(text="time_s,value\n\n \n", target_dt=1.0)
@example(text="time_s,value\r0,1\r\r1,\xa02\r2,\u0663\r", target_dt=1.0)
@example(text="time_s,value\n0,1\n1," + "9" * 140_000 + "\n", target_dt=1.0)
def test_load_csv_matches_reference_parser(tmp_path_factory, text, target_dt):
    path = tmp_path_factory.mktemp("csv") / "profile.csv"
    path.write_text(text, newline="")
    try:
        want = reference_load_csv(path, target_dt)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_csv(path, target_dt)
        assert str(got.value) == str(exc)
        return
    got = load_csv(path, target_dt)
    assert (got.t0, got.dt) == (want.t0, want.dt)
    assert got.samples.tobytes() == want.samples.tobytes()


def test_header_only_file_raises_no_warning(tmp_path):
    # numpy's reader warns on a file without data rows; load_csv must not
    for text in ("time_s,value\n", "time_s,value", "time_s,value\n\n\r\n"):
        path = tmp_path / "header.csv"
        path.write_text(text, newline="")
        with pytest.raises(ValueError) as want:
            reference_load_csv(path, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                load_csv(path, 1.0)
        assert str(got.value) == str(want.value) == f"{path}: need at least 2 data rows, got 0"


def test_row_reader_runs_only_where_the_bulk_read_fails(tmp_path, monkeypatch):
    calls = []
    read_rows = voltmask.profiles._read_rows

    def spy(*args):
        calls.append(args[0])
        return read_rows(*args)

    monkeypatch.setattr(voltmask.profiles, "_read_rows", spy)
    path = tmp_path / "profile.csv"
    save_csv(synthetic_profile("sin_mix", 2.0, 0.5, 300.0, 1.0, seed=3), path)
    load_csv(path, 1.0)
    assert calls == []
    # underscores are float()'s and not numpy's: the row reader reads them
    path.write_text("time_s,value\n0,1_0\n1,2\n")
    assert load_csv(path, 1.0).samples.tolist() == [10.0, 2.0]
    assert calls == [path]


OCV_DT = 4.0


@pytest.fixture(scope="module")
def fit_rc_dir(tmp_path_factory, params_path, cell):
    """A fit file like the benchmark's fit-rc workload and its six records:
    OCV sweeps at 0.2 A and dt 4 s (17 903 rows each) and a 1500 s
    excitation record at dt 1 s with 1 mV noise."""
    base = tmp_path_factory.mktemp("fit_rc")
    (base / "cell.json").write_text(params_path.read_text())
    n = int(cell.capacity_q / 0.2 / OCV_DT) + 1
    for name, amp, soc0 in (("chg", -0.2, 0.0), ("dis", 0.2, 1.0)):
        current = TimeSeries(0.0, OCV_DT, np.full(n, amp))
        save_csv(current, base / f"{name}_i.csv")
        save_csv(simulate(cell, BatteryState(soc0, 0.0), current).voltage, base / f"{name}_v.csv")
    current = synthetic_profile("sin_mix", 4.0, 0.5, 1500.0, 1.0, seed=9)
    voltage = simulate(cell, BatteryState(0.55, 0.0), current).voltage
    noise = 1e-3 * np.random.default_rng(9).standard_normal(len(voltage))
    save_csv(current, base / "exc_i.csv")
    save_csv(voltage.with_samples(voltage.samples + noise), base / "exc_v.csv")
    ocv = {
        "charge_current_csv": "chg_i.csv",
        "charge_voltage_csv": "chg_v.csv",
        "discharge_current_csv": "dis_i.csv",
        "discharge_voltage_csv": "dis_v.csv",
        "dt": OCV_DT,
    }
    rc = {
        "current_csv": "exc_i.csv",
        "voltage_csv": "exc_v.csv",
        "dt": 1.0,
        "frozen": ["capacity_q"],
        "soc0": 0.55,
        "vc0": 0.0,
    }
    config = {"initial_params_file": "cell.json", "ocv": ocv, "rc": rc}
    (base / "fit.json").write_text(json.dumps(config))
    return base


def test_fit_records_load_as_the_reference_parser_reads_them(fit_rc_dir):
    config = load_fit_config(fit_rc_dir / "fit.json")
    loaded = [*config.charge, *config.discharge, *config.record]
    names = ["chg_i", "chg_v", "dis_i", "dis_v", "exc_i", "exc_v"]
    for series, name, dt in zip(loaded, names, [OCV_DT] * 4 + [1.0] * 2):
        want = reference_load_csv(fit_rc_dir / f"{name}.csv", dt)
        assert (series.t0, series.dt, len(series)) == (want.t0, want.dt, len(want))
        assert series.samples.tobytes() == want.samples.tobytes()
    assert len(config.charge[1]) == 17_903


def test_bad_cell_deep_in_a_record_is_named_by_its_line(fit_rc_dir, tmp_path):
    lines = (fit_rc_dir / "chg_v.csv").read_text().splitlines(keepends=True)
    assert len(lines) == 17_904  # the header and 17 903 rows
    lines[16_999] = lines[16_999].replace(",", ",4.1x", 1)  # line 17 000
    path = tmp_path / "chg_v.csv"
    path.write_text("".join(lines), newline="")
    with pytest.raises(ValueError) as want:
        reference_load_csv(path, OCV_DT)
    with pytest.raises(ValueError) as got:
        load_csv(path, OCV_DT)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}: line 17000: non-numeric cell in row ")


def test_save_load_round_trip_is_exact(tmp_path):
    ts = synthetic_profile("sin_mix", 2.0, 0.5, 30.0, 1.0, seed=5)
    path = tmp_path / "round.csv"
    save_csv(ts, path)
    back = load_csv(path, target_dt=ts.dt)
    # repr() formatting round-trips doubles exactly
    assert back.t0 == ts.t0 and back.dt == ts.dt
    np.testing.assert_array_equal(back.samples, ts.samples)


def test_save_csv_writes_the_csv_module_bytes(tmp_path):
    ts = TimeSeries(-2.5, 0.1, [0.0, -0.0, 1e-320, 3.0, -1.7976931348623157e308, 0.1])
    save_csv(ts, tmp_path / "fast.csv")
    with open(tmp_path / "slow.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time_s", "value"))
        for t, v in zip(ts.times(), ts.samples):
            writer.writerow([repr(float(t)), repr(float(v))])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


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
