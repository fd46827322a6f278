"""Per-stage scaling reference: traced ``voltmask scenario`` at n = 2e3, 2e4, 2e5.

    python3 bench/scaling.py [--seed 1]

Runs the scenario-long workload's config at three horizons (bias and
amplitude scaled so the nominal SoC always ends at 0.5), traced, and
checks every output as the benchmark does.  It also runs ``voltmask
sweep`` over the sweep-fine workload's 41 gains on the same config.
Prints one row per horizon with the best of three runs of each stage,
the layout of the per-stage baseline in ROADMAP.md with the CLI's own
time (argument parsing and output writing) added.  The runs take the
CPUs in turn, as in run.py.  Takes about three minutes on 2 cores,
most of it the n = 2e5 sweep.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import tracing
from workloads import SWEEP_GAINS, ScenarioLong

SIZES = (2_001, 20_001, 200_001)
COLUMNS = ("simulate", "riccati", "synth", "masking", "run_scenario", "cli", "command", "sweep")
REPEATS = 3


def traced(launcher, workdir, args, cpu):
    trace_file = workdir / "trace.json"
    child = [sys.executable, str(run.HERE / "child.py"), "trace", str(trace_file)]
    done = run.spawn(launcher, [*child, *args], workdir, "traced", cpu)
    if done.code != 0:
        raise RuntimeError(f"voltmask {args[0]} exited {done.code}: {done.stderr[-400:]}")
    return done, json.loads(trace_file.read_text())


def stages(n: int, seed: int) -> dict[str, float]:
    workload = ScenarioLong(n=n)
    best: dict[str, float] = {}
    with run.workspace(f"scaling-{n}") as workdir:
        (case,) = workload.make(seed, workdir)
        workload.prepare_refs([case])
        launcher = run.Helper(workdir, "launch")
        try:
            for repeat in range(REPEATS):
                cpu = run.CPUS[repeat % len(run.CPUS)]
                out = workdir / "out"
                done, trace = traced(
                    launcher, workdir,
                    ["scenario", "--config", str(case.config), "--out", str(out)], cpu,
                )  # fmt: skip
                workload.check(case, out, done.stdout)
                incl, calls = tracing.inclusive(trace)
                layers = tracing.layer_metrics(trace)
                row = {
                    "simulate": incl["ecm.simulate"] / calls["ecm.simulate"],
                    "riccati": incl["attack.solve_riccati"],
                    "synth": incl["attack.synthesize_input_attack"],
                    "masking": incl["stealth.feedback_output_attack"],
                    "run_scenario": incl["scenario.run_scenario"],
                    "cli": layers["cli.self_s"],
                    "command": done.wall_s,
                }
                gains = "--ka=" + ",".join(repr(k) for k in SWEEP_GAINS)
                _, trace = traced(
                    launcher, workdir,
                    ["sweep", "--config", str(case.config), "--out", str(out), gains], cpu,
                )  # fmt: skip
                row["sweep"] = tracing.inclusive(trace)[0]["metrics.sweep_ka"]
                best = {k: min(v, best.get(k, v)) for k, v in row.items()}
        finally:
            launcher.close()
    return best


def show(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms" if seconds < 1.0 else f"{seconds:.2f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problem = run.check_checkout()
    if problem:
        print(f"scaling: {problem}", file=sys.stderr)
        return 2
    print(run.provenance())
    print(f"best of {REPEATS}; sweep is metrics.sweep_ka over 41 gains")
    print("| n | " + " | ".join(COLUMNS) + " |")
    print("| ---: " * (len(COLUMNS) + 1) + "|")
    for n in SIZES:
        best = stages(n, args.seed)
        print(f"| {n} | " + " | ".join(show(best[c]) for c in COLUMNS) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
