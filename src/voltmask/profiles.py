"""Uniform-grid time series, CSV loading, and synthetic current profiles.

All series live on an explicit uniform grid (t0, dt, n samples).  Grid
agreement is checked exactly; nothing is ever silently resampled or
aligned.  Positive current means discharge everywhere in this package.
"""

from __future__ import annotations

import csv
import math
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
    """
    if not (target_dt > 0.0 and np.isfinite(target_dt)):
        raise ValueError(f"target_dt must be positive and finite, got {target_dt}")
    path = Path(path)
    # raw doubles: 8 bytes a cell, not a 24-byte float object and a pointer
    times = array("d")
    values = array("d")
    # math.isfinite on plain floats: np.isfinite would be a ufunc call per cell
    isfinite = math.isfinite
    last = -math.inf  # the previous row's time; every finite time follows it
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected header 'time_s,value'")
        if [c.strip() for c in header] != list(CSV_HEADER):
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
            if not (isfinite(t) and isfinite(v)):
                raise ValueError(f"{path}: line {lineno}: non-finite cell in row {row!r}")
            if t <= last:
                raise ValueError(
                    f"{path}: line {lineno}: time must be strictly increasing "
                    f"({t} after {last})"
                )
            times.append(t)
            values.append(v)
            last = t
    if len(times) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(times)}")
    t0 = times[0]
    # The span is a difference of two rounded times, off by up to one
    # float spacing at their size: 2.4e-7 s at Unix times, far above
    # 1e-9 steps of a short dt.
    n = _sample_count(times[-1] - t0, target_dt, math.ulp(max(abs(t0), abs(times[-1]))))
    if n < 2:
        raise ValueError(
            f"{path}: rows span {times[-1] - t0} s, less than one step of {target_dt} s; "
            "need at least 2 grid points"
        )
    grid = t0 + target_dt * np.arange(n)
    samples = np.interp(grid, times, values)
    return TimeSeries(t0, target_dt, samples)


# rows converted to Python floats at a time; bounds the extra memory
_CSV_CHUNK = 256


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns as CSV, every cell as the repr of a float.

    The bytes are those of csv.writer's default dialect, which never
    quotes a float repr and ends each line with CRLF.  Rows are converted
    and joined a chunk at a time, not cell by cell and not a whole column
    at once.
    """
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _CSV_CHUNK):
            chunk = [np.asarray(col[lo : lo + _CSV_CHUNK], dtype=float).tolist() for col in columns]
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in zip(*chunk)))


def save_csv(series: TimeSeries, path) -> None:
    """Write a series as a two-column CSV with header ``time_s,value``."""
    _write_csv(path, list(CSV_HEADER), [series.times(), series.samples])


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
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if duration < dt:
        raise ValueError(f"duration {duration} is shorter than dt {dt}")
    n = _sample_count(duration, dt)
    t = dt * np.arange(n)
    span = dt * (n - 1)
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
    elif kind == "pulse_train":
        period = span / 8.0
        phase = np.mod(t, period)
        samples = np.where(phase < 0.5 * period, bias + amplitude, bias - amplitude)
    else:
        raise ValueError(
            f"unknown profile kind {kind!r}; expected constant, sin_mix, or pulse_train"
        )
    return TimeSeries(0.0, dt, samples)
