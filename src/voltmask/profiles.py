"""Uniform-grid time series, CSV loading, and synthetic current profiles.

All series live on an explicit uniform grid (t0, dt, n samples).  Grid
agreement is checked exactly; nothing is ever silently resampled or
aligned.  Positive current means discharge everywhere in this package.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "MAX_SAMPLES",
    "TimeSeries",
    "add",
    "load_csv",
    "save_csv",
    "synthetic_profile",
    "write_csv",
]

CSV_HEADER = ("time_s", "value")

# Largest grid a profile may have, checked before anything is allocated;
# about 50 times the longest horizon the package is scaled to (2e5).
MAX_SAMPLES = 10_000_001

# sin_mix uses three tones at fixed integer cycle counts over the applied
# span, so the sampled tones sum to exactly zero charge and the bias alone
# sets the net SoC movement.
_SIN_MIX_CYCLES = (3.0, 7.0, 13.0)
_SIN_MIX_WEIGHTS = (0.5, 0.3, 0.2)

# the kinds synthetic_profile builds
_SYNTHETIC_KINDS = ("constant", "sin_mix", "pulse_train")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Samples on a uniform time grid t0 + k*dt, k = 0..n-1."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    def with_samples(self, samples: np.ndarray) -> "TimeSeries":
        """Same grid, new values."""
        return TimeSeries(self.t0, self.dt, samples)


def check_same_grid(a: TimeSeries, b: TimeSeries) -> None:
    """Raise unless a and b share t0, dt, and length exactly."""
    if a.t0 != b.t0 or a.dt != b.dt or len(a) != len(b):
        raise ValueError(
            "time grid mismatch: "
            f"(t0={a.t0}, dt={a.dt}, n={len(a)}) vs (t0={b.t0}, dt={b.dt}, n={len(b)})"
        )


def _sample_count(span: float, dt: float, slack: float = 0.0) -> int:
    """Samples on a grid of step dt over span, limited to MAX_SAMPLES.

    slack is how far span may fall short of its true value by rounding,
    in seconds; on top of it, 1e-9 steps are forgiven.
    """
    steps = np.floor((span + slack) / dt + 1e-9)
    if not steps < MAX_SAMPLES:
        raise ValueError(
            f"dt {dt} over {span} s gives {steps + 1:.6g} samples, "
            f"more than the limit of {MAX_SAMPLES}"
        )
    return int(steps) + 1


def add(a: TimeSeries, b: TimeSeries) -> TimeSeries:
    """Sample-wise sum; grids must match exactly."""
    check_same_grid(a, b)
    return TimeSeries(a.t0, a.dt, a.samples + b.samples)


def load_csv(path, target_dt: float) -> TimeSeries:
    """Load a two-column CSV (header ``time_s,value``) and resample.

    Rows may be non-uniformly spaced; values are linearly interpolated
    onto the uniform grid starting at the first timestamp with step
    target_dt.  The grid never extends past the last timestamp by more
    than one float spacing of the timestamps (a last point that far out
    takes the last row's value), and the rows must span at least one
    step, so that it has 2 points or more.

    The data rows are parsed in one call to numpy's reader and checked
    as a whole.  A file that reader refuses, or whose rows fail a check,
    is read again row by row (_read_rows), which names the first bad
    line or reads what csv and float() accept beyond numpy's reader.
    """
    if not (target_dt > 0.0 and np.isfinite(target_dt)):
        raise ValueError(f"target_dt must be positive and finite, got {target_dt}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected header 'time_s,value'")
            if [c.strip() for c in header] != list(CSV_HEADER):
                raise ValueError(
                    f"{path}: line 1: expected header 'time_s,value', got {','.join(header)!r}"
                )
            rows = _read_table(fh)
            if rows is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                rows = _read_rows(path, reader)
        except csv.Error as exc:  # a cell over csv's field size limit, in the header or a row
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    times, values = rows
    if len(times) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(times)}")
    t0, t_end = float(times[0]), float(times[-1])
    # The span is a difference of two rounded times, off by up to one
    # float spacing at their size: 2.4e-7 s at Unix times, far above
    # 1e-9 steps of a short dt.
    n = _sample_count(t_end - t0, target_dt, math.ulp(max(abs(t0), abs(t_end))))
    if n < 2:
        raise ValueError(
            f"{path}: rows span {t_end - t0} s, less than one step of {target_dt} s; "
            "need at least 2 grid points"
        )
    grid = t0 + target_dt * np.arange(n)
    samples = np.interp(grid, times, values)
    return TimeSeries(t0, target_dt, samples)


def _read_table(fh) -> tuple[np.ndarray, np.ndarray] | None:
    """Times and values of the rows left in fh, or None for the row reader.

    numpy's reader parses a subset of what csv.reader and float() accept,
    with the same correctly rounded conversion: no quotes, underscores or
    non-ASCII digits, and a blank line is skipped where csv skips it.  (It
    also reads cells longer than csv's field size limit, where csv.reader
    raises csv.Error.)  None means it refused a row or a row failed a
    check, and _read_rows must read the file to tell which.
    """
    try:
        with warnings.catch_warnings():
            # a file with no data rows is the row reader's count to report
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 2 or not np.isfinite(table).all():
        return None
    times, values = table.T
    if not (times[1:] > times[:-1]).all():
        return None
    return times, values


def _read_rows(path: Path, reader) -> tuple[array, array]:
    """Times and values of the rows reader has left, checked one row at a time.

    Raises a ValueError naming the first bad row by its line number.
    """
    # raw doubles: 8 bytes a cell, not a 24-byte float object and a pointer
    times = array("d")
    values = array("d")
    # math.isfinite on plain floats: np.isfinite would be a ufunc call per cell
    isfinite = math.isfinite
    last = -math.inf  # the previous row's time; every finite time follows it
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
        try:
            t = float(row[0])
            v = float(row[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric cell in row {row!r}") from None
        if not (isfinite(t) and isfinite(v)):
            raise ValueError(f"{path}: line {lineno}: non-finite cell in row {row!r}")
        if t <= last:
            raise ValueError(
                f"{path}: line {lineno}: time must be strictly increasing ({t} after {last})"
            )
        times.append(t)
        values.append(v)
        last = t
    return times, values


# rows converted to Python floats at a time; bounds the extra memory
_CSV_CHUNK = 256


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns as CSV, every cell as the repr of a float.

    The bytes are those of csv.writer's default dialect, which never
    quotes a float repr and ends each line with CRLF.  Each chunk of
    _CSV_CHUNK rows is converted one column at a time, with one map of
    repr over the column's values, and the rows are then joined from
    those texts.

    A float64 column that repeats its previous value in at least half its
    rows (a stationary Riccati entry, a zero column) gets one repr per
    run of equal values instead, expanded to the chunk's rows.  Runs are
    found on the column's int64 bit view, so 0.0 and -0.0 stay apart,
    and the column is tested once, with one vectorised comparison.

    The chunk is 256 rows because the texts of a chunk are what the
    writer holds, and they set its memory peak: on a 50 001-row file of
    10 distinct columns that peak is 0.20 MB at 256 rows, 0.77 MB at
    1024 and 3.0 MB at 4096 (tracemalloc).  Expanding the run columns of
    a Riccati file whole, not per chunk, takes its peak from 0.07 to 1.7
    MB.
    """
    n = len(columns[0])
    # per column, its int64 bit view if it is a column of runs, else None
    run_bits = []
    for col in columns:
        bits = None
        if col.dtype == np.float64:
            view = col.view(np.int64)
            if 2 * np.count_nonzero(view[1:] == view[:-1]) >= n:
                bits = view
        run_bits.append(bits)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _CSV_CHUNK):
            hi = lo + _CSV_CHUNK
            texts = [
                map(repr, np.asarray(col[lo:hi], dtype=float).tolist())
                if bits is None
                else _run_texts(col[lo:hi], bits[lo:hi])
                for col, bits in zip(columns, run_bits)
            ]
            fh.write("\r\n".join(map(",".join, zip(*texts))))
            fh.write("\r\n")


def _run_texts(values: np.ndarray, bits: np.ndarray) -> list[str]:
    """The repr of each of values, one repr call per run of equal bits."""
    bounds = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), values.size]
    texts = []
    for lo, hi, value in zip(bounds, bounds[1:], values[bounds[:-1]].tolist()):
        texts += [repr(value)] * (hi - lo)
    return texts


def save_csv(series: TimeSeries, path) -> None:
    """Write a series as a two-column CSV with header ``time_s,value``."""
    write_csv(path, list(CSV_HEADER), [series.times(), series.samples])


def synthetic_profile(
    kind: str,
    amplitude: float,
    bias: float,
    duration: float,
    dt: float,
    seed: int = 0,
) -> TimeSeries:
    """Deterministic synthetic current profile starting at t = 0.

    kind:
      constant     all samples equal to bias (amplitude and seed unused)
      sin_mix      bias plus three sinusoids with seeded phases; tone
                   frequencies are 3, 7 and 13 cycles over the applied
                   span so the tones contribute zero net charge
      pulse_train  square wave of 8 periods, bias +- amplitude (seed unused)

    An unknown kind, a bad dt, a duration under one step or a grid over
    MAX_SAMPLES is a ValueError raised before anything is allocated; a
    profile whose samples overflow is one naming its amplitude and bias.
    """
    if kind not in _SYNTHETIC_KINDS:
        raise ValueError(
            f"unknown profile kind {kind!r}; expected constant, sin_mix, or pulse_train"
        )
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if duration < dt:
        raise ValueError(f"duration {duration} is shorter than dt {dt}")
    n = _sample_count(duration, dt)
    t = dt * np.arange(n)
    span = dt * (n - 1)
    # an overflowing sum is reported below, by the parameters that caused it
    with np.errstate(over="ignore"):
        if kind == "constant":
            samples = np.full(n, float(bias))
        elif kind == "sin_mix":
            rng = np.random.default_rng(seed)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
            samples = np.full(n, float(bias))
            for cycles, weight, phase in zip(_SIN_MIX_CYCLES, _SIN_MIX_WEIGHTS, phases):
                samples = samples + amplitude * weight * np.sin(
                    2.0 * np.pi * cycles * t / span + phase
                )
        else:  # pulse_train
            period = span / 8.0
            phase = np.mod(t, period)
            samples = np.where(phase < 0.5 * period, bias + amplitude, bias - amplitude)
    if not np.isfinite(samples).all():
        raise ValueError(
            f"{kind} profile is not finite: amplitude {amplitude} and bias {bias} overflow"
        )
    return TimeSeries(0.0, dt, samples)
