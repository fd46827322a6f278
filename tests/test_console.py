"""The command as a separate process: what only a real process shows.

Each run is ``python -m voltmask.cli`` in a fresh interpreter.  A run
that succeeds (ROWS) must exit 0 with an empty stderr and write the
bytes an in-process ``main()`` writes.  The fault rows of test_faults.py
marked ``process`` run here too, so that argv, config and line are
written once: each must exit with the row's code and print exactly its
line, so no traceback and no warning, and leave stdout and ``--out``
empty.  Every child runs with ``-X warn_default_encoding -W
error::EncodingWarning``, so a file opened without a named encoding,
whose bytes would then depend on the locale, fails the run.  The
children import the package that pytest imported and write only under
pytest's temporary directory.

``run()``, the console script's entry point, must end the process with
the collector frozen, so that the interpreter's exit skips its teardown
collection: an atexit handler prints the freeze count after a run that
exits 0, 2 or 3, and each run's exit code and output are those of the
same run without it.

The last tests check what a fresh interpreter loads: ``import voltmask``
loads no submodule, and a command loads none of the modules it does not
run (``fit`` none of the attack pipeline, the others not ``sysid``).
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from test_faults import BY_ID
from test_faults import ROWS as FAULTS

import voltmask
from voltmask import BatteryState, dump_params, save_csv, simulate, synthetic_profile
from voltmask.cli import main

# the children import the package the tests import, however pytest was started
SRC = str(Path(voltmask.__file__).resolve().parent.parent)

# every file the child opens names its encoding, so no output depends on the locale
ENCODING_CHECK = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]

# argv of runs that succeed, with {scenarios} and {work} placeholders
ROWS = [
    pytest.param("scenario --config {scenarios}/tc1.json", id="scenario"),
    pytest.param("scenario --config {scenarios}/tc1_mismatch.json", id="scenario-mismatch"),
    pytest.param("simulate --config {scenarios}/tc1_mismatch.json", id="simulate"),
    pytest.param("sweep --config {scenarios}/tc1_mismatch.json", id="sweep"),
    pytest.param("fit --config {work}/fit.json", id="fit"),
    pytest.param("scenario --config {work}/terminal.json", id="terminal-only-weights"),
    pytest.param("scenario --config {work}/zero.json", id="all-zero-weights"),
    pytest.param("scenario --config {work}/q1_zero.json", id="terminal-weight-zero"),
    pytest.param("scenario --config {work}/vc.json", id="vc-weights"),
    pytest.param("sweep --config {work}/vc.json", id="sweep-vc-weights"),
]


@pytest.fixture(scope="module")
def work(tmp_path_factory, scenario_dir, params_path, cell):
    """Configs on tc1 and a fit on a generated 1500 s record, from 1.5x r0, r1 and c1."""
    work = tmp_path_factory.mktemp("console")
    raw = json.loads((scenario_dir / "tc1.json").read_text())
    raw["params_file"] = str(params_path)
    configs = {
        # S never settles without q2, so every row of the sweep is stepped
        "terminal.json": {**raw, "weights": {"q1": [1e7, -0.0], "q2": [0.0, 0.0], "r": 1.0}},
        # every product of the feedback law is zero, so the rollout's SoC
        # loop writes u_a as a zero on every row
        "zero.json": {**raw, "weights": {"q1": [0.0, 0.0], "q2": [0.0, 0.0], "r": 1.0}},
        # S and V are zero on the last row alone, so the SoC loop writes
        # a zero product there
        "q1_zero.json": {**raw, "weights": {**raw["weights"], "q1": [0.0, 0.0]}},
        # weights on vc: the sweep and the rollout step all five scalars
        "vc.json": {**raw, "weights": {"q1": [1e7, 1e3], "q2": [2e5, 50.0], "r": 1.0}},
    }

    current = synthetic_profile("sin_mix", 4.0, 0.5, 1500.0, 1.0, seed=9)
    save_csv(current, work / "i.csv")
    save_csv(simulate(cell, BatteryState(0.55, 0.0), current).voltage, work / "v.csv")
    dump_params(replace(cell, r0=cell.r0 * 1.5, r1=cell.r1 * 1.5, c1=cell.c1 * 1.5),
                work / "start.json")
    rc = {"current_csv": "i.csv", "voltage_csv": "v.csv", "dt": 1.0,
          "frozen": ["capacity_q"], "soc0": 0.55, "vc0": 0.0}
    configs["fit.json"] = {"initial_params_file": "start.json", "rc": rc}
    for name, config in configs.items():
        (work / name).write_text(json.dumps(config))
    return work


def child(args, cwd):
    """A fresh interpreter run on args, with the package the tests import."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run(
        [sys.executable, *ENCODING_CHECK, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )


@pytest.mark.parametrize("argv", ROWS)
def test_console_run(tmp_path, capsys, work, scenario_dir, argv):
    argv = [tok.format(scenarios=scenario_dir, work=work) for tok in argv.split()]
    out = tmp_path / "out"
    proc = child(["-m", "voltmask.cli", *argv, "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    in_process = tmp_path / "in_process"
    assert main([*argv, "--out", str(in_process)]) == 0
    assert proc.stdout == capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in in_process.iterdir()) and names
    for name in names:
        assert (out / name).read_bytes() == (in_process / name).read_bytes(), name


@pytest.mark.parametrize("row", [row for row in FAULTS if row.process], ids=lambda row: row.id)
def test_console_fault(tmp_path, make_case, row):
    argv, line, out = row.write(make_case)
    proc = child(["-m", "voltmask.cli", *argv], tmp_path)
    row.check(proc.returncode, proc.stdout, proc.stderr, line, out)


def frozen_run(argv, cwd):
    """run() in a fresh interpreter on argv: the process, its stdout
    without the last line, and the collector's freeze count, which an
    atexit handler prints as that line."""
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
        "from voltmask.cli import run\n"
        "run()"
    )
    proc = child(["-c", code, *argv], cwd)
    *lines, last = proc.stdout.splitlines(keepends=True)
    label, count = last.split()
    assert label == "frozen", proc.stdout
    return proc, "".join(lines), int(count)


def test_run_exits_with_the_collector_frozen(tmp_path, capsys, work):
    argv = ["fit", "--config", str(work / "fit.json")]
    proc, stdout, frozen = frozen_run([*argv, "--out", str(tmp_path / "out")], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    assert stdout == capsys.readouterr().out
    assert frozen > 0


@pytest.mark.parametrize("fault", ["config-directory", "masking-correction-overflows"])
def test_a_failed_run_exits_with_the_collector_frozen(tmp_path, make_case, fault):
    row = BY_ID[fault]
    argv, line, out = row.write(make_case)
    proc, stdout, frozen = frozen_run(argv, tmp_path)
    row.check(proc.returncode, stdout, proc.stderr, line, out)
    assert frozen > 0


def loaded_modules(tmp_path, code, argv=()):
    """The voltmask submodules a fresh interpreter has loaded once code has run."""
    report = "print(*sorted(m[9:] for m in sys.modules if m.startswith('voltmask.')))"
    proc = child(["-c", f"import sys\n{code}\n{report}", *argv], tmp_path)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    ("code", "modules"),
    [
        ("import voltmask", set()),
        ("from voltmask.ecm import load_params", {"config", "profiles", "ecm"}),
        ("from voltmask import DivergenceError", {"config"}),
        (
            "from voltmask import ecm; assert ecm.__name__ == 'voltmask.ecm'",
            {"config", "profiles", "ecm"},
        ),
        ("import voltmask; voltmask.sysid.fit_rc", {"config", "profiles", "ecm", "sysid"}),
    ],
    ids=["package", "ecm", "divergence-error", "submodule-from-package", "submodule-attribute"],
)
def test_an_import_loads_only_the_modules_it_names(tmp_path, code, modules):
    assert loaded_modules(tmp_path, code) == modules


@pytest.mark.parametrize(
    ("argv", "unused"),
    [
        ("fit --config {work}/fit.json", {"attack", "stealth", "metrics", "scenario"}),
        ("scenario --config {scenarios}/tc1.json", {"sysid"}),
        ("sweep --config {scenarios}/tc1.json", {"sysid"}),
        ("simulate --config {scenarios}/tc1.json", {"sysid"}),
    ],
    ids=["fit", "scenario", "sweep", "simulate"],
)
def test_a_command_loads_no_module_it_does_not_run(tmp_path, work, scenario_dir, argv, unused):
    argv = [tok.format(scenarios=scenario_dir, work=work) for tok in argv.split()]
    run = "from voltmask.cli import main; assert main(sys.argv[1:]) == 0"
    loaded = loaded_modules(tmp_path, run, [*argv, "--out", str(tmp_path / "out")])
    assert "cli" in loaded and not loaded & unused, sorted(loaded & unused)
