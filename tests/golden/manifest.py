"""Rewrite the golden manifest, or check one run of the command against it.

    PYTHONPATH=src python tests/golden/manifest.py write
    python tests/golden/manifest.py check COMMAND CONFIG STDOUT OUT

write replays every entry of tests/golden_runs.py in-process on inputs
written to a temporary directory, and rewrites manifest.json beside this
script.  check compares a run made outside this script (its stdout saved
to the file STDOUT, its files written to the directory OUT, exit 0) with
the entry for COMMAND on CONFIG without a seed, and exits 1 naming what
differs.  Both import the voltmask package on the path: the checkout's
under PYTHONPATH=src, or the installed one.
"""

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402
from golden_runs import ENTRIES, MANIFEST, outcome, read_manifest, replay, write_inputs  # noqa: E402


def write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = write_inputs(work)
        entries = []
        for i, (command, config, seed) in enumerate(ENTRIES):
            run = replay(command, config, seed, paths, work / f"out{i}")
            entries.append({"command": command, "config": config, "seed": seed, **run})
    manifest = {"python": platform.python_version(), "numpy": np.__version__, "entries": entries}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}")


def check(command: str, config: str, stdout: Path, out: Path) -> int:
    manifest = read_manifest()
    want = next(
        {key: entry[key] for key in ("exit", "stdout", "stderr", "files")}
        for entry in manifest["entries"]
        if (entry["command"], entry["config"], entry["seed"]) == (command, config, None)
    )
    got = outcome(0, stdout.read_bytes(), b"", out)
    differ = [key for key in want if got[key] != want[key]]
    if differ:
        print(
            f"{command} on {config} differs from the manifest in {differ} (manifest made on "
            f"Python {manifest['python']}, numpy {manifest['numpy']}; this is Python "
            f"{platform.python_version()}, numpy {np.__version__})",
            file=sys.stderr,
        )
        return 1
    print(f"{command} on {config} matches the manifest")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("write")
    p = sub.add_parser("check")
    p.add_argument("command")
    p.add_argument("config")
    p.add_argument("stdout", type=Path)
    p.add_argument("out", type=Path)
    args = parser.parse_args()
    if args.action == "write":
        write()
    else:
        sys.exit(check(args.command, args.config, args.stdout, args.out))
