"""Shared fixtures: repository paths, reference cells and a case workspace."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from voltmask import BatteryState, EcmParams, OcvCurve, TimeSeries, save_csv, simulate
from voltmask import synthetic_profile
from voltmask.ecm import load_params

REPO_ROOT = Path(__file__).resolve().parent.parent

# a value that removes its key from a config (see make_case)
DROP = object()


@pytest.fixture(scope="session")
def repo_root():
    return REPO_ROOT


@pytest.fixture(scope="session")
def params_path():
    return REPO_ROOT / "params" / "paper_cell.json"


@pytest.fixture(scope="session")
def scenario_dir():
    return REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def cell(params_path):
    """The shipped reference cell."""
    return load_params(params_path)


@pytest.fixture()
def linear_cell():
    """Same scalar parameters as the shipped cell but a straight OCV line,
    so voltages are hand-checkable."""
    curve = OcvCurve((0.0, 1.0), (3.0, 4.2))
    return EcmParams(capacity_q=1.4322e4, r0=1.3513e-2, r1=1.028e-2, c1=5.2584e3, ocv=curve)


@pytest.fixture(scope="session")
def workspace(tmp_path_factory, scenario_dir, params_path, cell):
    """The files every case starts from; make_case copies them, so this stays as built.

    cell.json is the shipped cell and tc1.json a copy of scenarios/tc1.json
    on it.  fit.json fits both blocks on short records generated from the
    cell: 21-sample charge and discharge sweeps at dt 60 s that span the
    whole SoC range, and a 40 s excitation record at dt 2 s.  folder is a
    directory, for the fields that must name a file.
    """
    work = tmp_path_factory.mktemp("workspace")
    (work / "cell.json").write_text(params_path.read_text())
    tc1 = json.loads((scenario_dir / "tc1.json").read_text())
    (work / "tc1.json").write_text(json.dumps({**tc1, "params_file": "cell.json"}))
    n, dt = 21, 60.0
    amp = cell.capacity_q / (dt * (n - 1))
    for name, current, soc0 in (("chg", -amp, 0.0), ("dis", amp, 1.0)):
        series = TimeSeries(0.0, dt, np.full(n, current))
        save_csv(series, work / f"{name}_i.csv")
        save_csv(simulate(cell, BatteryState(soc0, 0.0), series).voltage, work / f"{name}_v.csv")
    exc_i = synthetic_profile("sin_mix", 4.0, 0.5, 40.0, 2.0, seed=9)
    save_csv(exc_i, work / "exc_i.csv")
    save_csv(simulate(cell, BatteryState(0.55, 0.0), exc_i).voltage, work / "exc_v.csv")
    fit = {
        "initial_params_file": "cell.json",
        "ocv": {"charge_current_csv": "chg_i.csv", "charge_voltage_csv": "chg_v.csv",
                "discharge_current_csv": "dis_i.csv", "discharge_voltage_csv": "dis_v.csv",
                "dt": dt, "n_breakpoints": 5, "r0_guess": 0.0},
        "rc": {"current_csv": "exc_i.csv", "voltage_csv": "exc_v.csv", "dt": 2.0,
               "frozen": ["capacity_q"], "soc0": 0.55, "vc0": 0.0},
    }
    (work / "fit.json").write_text(json.dumps(fit))
    (work / "folder").mkdir()
    return work


def patched(raw: dict, patch) -> dict:
    """raw with each key of patch set to its value; "a.b" names raw["a"]["b"],
    and a value of DROP removes the key."""
    raw = json.loads(json.dumps(raw))
    for dotted, value in dict(patch or {}).items():
        *blocks, key = dotted.split(".")
        block = raw
        for name in blocks:
            block = block.setdefault(name, {})
        if value is DROP:
            del block[key]
        else:
            block[key] = value
    return raw


@pytest.fixture()
def make_case(workspace, tmp_path):
    """A function that writes a case into tmp_path / "work", a copy of the workspace.

    make(config, cell, files, base, text, name) writes base ("tc1" or
    "fit") patched by config (see patched) as name, and cell.json patched
    by cell.  files maps a file name to its text, a TimeSeries (written by
    save_csv) or a function of the work directory that returns its text.
    text, given the config's JSON text, returns the text written instead.
    It returns the config's path; calls in one test share the directory.
    """
    work = tmp_path / "work"

    def make(config=None, cell=None, files=None, base="tc1", text=None, name="config.json"):
        if not work.exists():
            shutil.copytree(workspace, work)
        for file, content in (files or {}).items():
            if isinstance(content, TimeSeries):
                save_csv(content, work / file)
            else:
                (work / file).write_text(content(work) if callable(content) else content)
        if cell:
            raw_cell = json.loads((workspace / "cell.json").read_text())
            (work / "cell.json").write_text(json.dumps(patched(raw_cell, cell)))
        raw = json.loads((workspace / f"{base}.json").read_text())
        body = json.dumps(patched(raw, config))
        (work / name).write_text(text(body) if text else body)
        return work / name

    return make
