"""The golden runs: what each command prints and writes on fixed inputs.

An entry is one (command, config, seed) run of ``voltmask.cli.main``,
recorded in golden/manifest.json as its exit code and the sha256 of its
stdout, its stderr and each file it writes to ``--out``.  The runs are
``scenario``, ``sweep`` and ``simulate`` on the five shipped scenarios,
with and without ``--seed 7``, and on the four weight configs of
test_console.py (write_weight_configs), and ``fit`` on the workspace's
fit file (conftest.write_workspace).  The manifest's header records the
Python and numpy versions it was made with: the hashes pin floating
point bits, such as those of numpy's sine in the sin_mix profiles.

test_golden.py replays every entry; golden/manifest.py rewrites the
manifest, or checks one run of the installed command against it.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import REPO_ROOT, write_workspace

from voltmask.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

SHIPPED = ("tc1", "tc1_mismatch", "tc2", "tc3", "tc4")
WEIGHTS = ("terminal", "zero", "q1_zero", "vc")
COMMANDS = ("scenario", "sweep", "simulate")

# (command, config, seed) of every entry, in the manifest's order
ENTRIES = [
    *((command, name, seed) for name in SHIPPED for command in COMMANDS for seed in (None, 7)),
    *((command, name, None) for name in WEIGHTS for command in COMMANDS),
    ("fit", "fit", None),
]


def entry_id(command, config, seed):
    return f"{command}-{config}" + ("" if seed is None else f"-seed{seed}")


def write_weight_configs(work: Path) -> None:
    """tc1 on the shipped cell under four sets of weights, as <name>.json in work."""
    raw = json.loads((REPO_ROOT / "scenarios" / "tc1.json").read_text())
    raw["params_file"] = str(REPO_ROOT / "params" / "paper_cell.json")
    configs = {
        # S never settles without q2, so every row of the sweep is stepped
        "terminal": {"q1": [1e7, -0.0], "q2": [0.0, 0.0], "r": 1.0},
        # every product of the feedback law is zero, so the rollout's SoC
        # loop writes u_a as a zero on every row
        "zero": {"q1": [0.0, 0.0], "q2": [0.0, 0.0], "r": 1.0},
        # S and V are zero on the last row alone, so the SoC loop writes
        # a zero product there
        "q1_zero": {**raw["weights"], "q1": [0.0, 0.0]},
        # weights on vc: the sweep and the rollout step all five scalars
        "vc": {"q1": [1e7, 1e3], "q2": [2e5, 50.0], "r": 1.0},
    }
    for name, weights in configs.items():
        (work / f"{name}.json").write_text(json.dumps({**raw, "weights": weights}))


def write_inputs(work: Path) -> dict:
    """Write the weight configs and the workspace under work; the config
    path of each config name an entry uses."""
    (work / "weights").mkdir()
    (work / "workspace").mkdir()
    write_weight_configs(work / "weights")
    write_workspace(work / "workspace")
    paths = {name: REPO_ROOT / "scenarios" / f"{name}.json" for name in SHIPPED}
    paths.update({name: work / "weights" / f"{name}.json" for name in WEIGHTS})
    paths["fit"] = work / "workspace" / "fit.json"
    return paths


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(code: int, stdout: bytes, stderr: bytes, out: Path) -> dict:
    """A run as the manifest records it."""
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {
        "exit": code,
        "stdout": digest(stdout),
        "stderr": digest(stderr),
        "files": {path.name: digest(path.read_bytes()) for path in files},
    }


def replay(command, config, seed, paths: dict, out: Path) -> dict:
    """The entry's run of main, in-process, as the manifest records it."""
    argv = [command, "--config", str(paths[config]), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return outcome(code, stdout.getvalue().encode(), stderr.getvalue().encode(), out)


def read_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))
