"""The command as a separate process: what only a real process shows.

Each row runs ``python -m voltmask.cli`` once and checks its exit code,
stdout, stderr and ``--out``.  A run that succeeds must write the bytes
an in-process ``main()`` writes; a run that fails must print exactly one
``config error: `` (exit 2) or ``runtime error: `` (exit 3) line, with
no traceback and no warning, and leave stdout and ``--out`` empty.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import voltmask
from voltmask import BatteryState, dump_params, save_csv, simulate, synthetic_profile
from voltmask.cli import main

# the children import the package the tests import, however pytest was started
SRC = str(Path(voltmask.__file__).resolve().parent.parent)

PREFIX = {2: "config error: ", 3: "runtime error: "}

# argv with {scenarios} and {work} placeholders, exit code, stderr fragment
ROWS = [
    pytest.param("scenario --config {scenarios}/tc1.json", 0, "", id="scenario"),
    pytest.param("simulate --config {scenarios}/tc1_mismatch.json", 0, "", id="simulate"),
    pytest.param("sweep --config {scenarios}/tc1_mismatch.json", 0, "", id="sweep"),
    pytest.param("fit --config {work}/fit.json", 0, "", id="fit"),
    pytest.param("scenario --config {scenarios}", 2, "{scenarios}", id="directory-as-config"),
    pytest.param(
        "scenario --config {scenarios}/tc1.json --seed -1",
        2,
        "--seed must be a whole number, got -1",
        id="negative-seed",
    ),
    pytest.param("scenario --config {work}/ka1.json", 2, "field 'k_a'", id="gain-of-one"),
    pytest.param(
        "scenario --config {work}/huge_cell.json",
        2,
        "huge_cell.csv: line 3: field larger than field limit (131072)",
        id="csv-cell-over-field-limit",
    ),
    pytest.param(
        "fit --config {work}/fit_deep.json",
        2,
        "deep.csv: line 1400: non-numeric cell",
        id="fit-bad-cell-deep-in-record",
    ),
    pytest.param(
        "scenario --config {work}/zoh.json",
        3,
        "zero-order-hold closed loop is unstable",
        id="unstable-zero-order-hold",
    ),
    pytest.param(
        "scenario --config {work}/noise.json",
        3,
        "noisy plant voltage is not finite at t=12.0 (-inf V, noise_std = 1e+308)",
        id="overflowing-noise",
    ),
    pytest.param(
        "scenario --config {work}/masking.json",
        3,
        "masking correction is not finite at t=1.0 (-inf V, k_a = 0.999999999)",
        id="overflowing-masking-correction",
    ),
    pytest.param(
        "fit --config {work}/fit_huge.json",
        3,
        "fit_report.json: field 'rmse_V' is not finite (inf)",
        id="fit-huge-start-state",
    ),
]


@pytest.fixture(scope="module")
def work(tmp_path_factory, scenario_dir, params_path, cell):
    """Configs on tc1 and a fit on a generated 1500 s record, from 1.5x r0, r1 and c1."""
    work = tmp_path_factory.mktemp("console")
    raw = json.loads((scenario_dir / "tc1.json").read_text())
    raw["params_file"] = str(params_path)
    # on tc1 (Q = 14322 A s, dt = 1 s) q1 holds S stationary and the
    # zero-order-hold loop has h*lambda = sqrt(q2) / Q = 2.05
    q = 14322.0
    weights = {"q1": [2.05 * q * q, 0.0], "q2": [(2.05 * q) ** 2, 0.0], "r": 1.0}
    (work / "huge_cell.csv").write_text(f"time_s,value\n0,1\n2000,{'9' * 140_000}\n")
    configs = {
        "ka1.json": {**raw, "k_a": 1},
        "zoh.json": {**raw, "weights": weights},
        "noise.json": {**raw, "plant_overrides": {"noise_std": 1e308}},
        "masking.json": {**raw, "k_a": 0.999999999, "plant_overrides": {"capacity_As": 1e-302}},
        "huge_cell.json": {**raw, "profile": {"csv": "huge_cell.csv"}},
    }

    current = synthetic_profile("sin_mix", 4.0, 0.5, 1500.0, 1.0, seed=9)
    save_csv(current, work / "i.csv")
    save_csv(simulate(cell, BatteryState(0.55, 0.0), current).voltage, work / "v.csv")
    dump_params(replace(cell, r0=cell.r0 * 1.5, r1=cell.r1 * 1.5, c1=cell.c1 * 1.5),
                work / "start.json")
    lines = (work / "v.csv").read_text().splitlines(keepends=True)
    lines[1399] = lines[1399].replace(",", ",4.1x", 1)
    (work / "deep.csv").write_text("".join(lines), newline="")
    rc = {"current_csv": "i.csv", "voltage_csv": "v.csv", "dt": 1.0,
          "frozen": ["capacity_q"], "soc0": 0.55, "vc0": 0.0}
    for name, change in (("fit.json", {}), ("fit_huge.json", {"vc0": 1e300}),
                         ("fit_deep.json", {"voltage_csv": "deep.csv"})):
        configs[name] = {"initial_params_file": "start.json", "rc": {**rc, **change}}
    for name, config in configs.items():
        (work / name).write_text(json.dumps(config))
    return work


@pytest.mark.parametrize(("argv", "code", "fragment"), ROWS)
def test_console_run(tmp_path, capsys, work, scenario_dir, argv, code, fragment):
    argv = [tok.format(scenarios=scenario_dir, work=work) for tok in argv.split()]
    out = tmp_path / "out"
    pythonpath = os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-m", "voltmask.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        in_process = tmp_path / "in_process"
        assert main([*argv, "--out", str(in_process)]) == 0
        assert proc.stdout == capsys.readouterr().out
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in in_process.iterdir()) and names
        for name in names:
            assert (out / name).read_bytes() == (in_process / name).read_bytes(), name
        return
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert proc.stderr.startswith(PREFIX[code])
    assert fragment.format(scenarios=scenario_dir) in proc.stderr
    assert "Traceback" not in proc.stderr and "warning" not in proc.stderr.lower()
    assert proc.stdout == ""
    assert list(out.iterdir()) == []
