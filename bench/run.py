"""Benchmark the voltmask CLI: end to end with tracing off, per layer with it on.

    python3 bench/run.py --workload scenario-long --seed 1 --trace 0
    python3 bench/run.py --smoke

Each run generates its workload's inputs from --seed under .bench_work/
in the checkout and runs whole rounds within --seconds (default: the
run length in BENCHMARK.json); a round runs every case of the workload
once.  With ``--trace 0`` a round spawns one set-up probe, and per
case ``voltmask <command>``, and then asks a warm library process for
the same top-level call; with ``--trace 1`` it spawns the command
once untraced and once traced.  Every command's outputs are checked
against the benchmark's own computation (see workloads.py).

Each case's probe, command and library call run pinned to one CPU, and
the CPU changes from one case to the next, so that every CPU the
benchmark may use gets an equal share of the samples: on a shared VM one
core can run a third slower than another for minutes, and a long-lived
process that stays on it would skew a whole run.  A fixed calibration
loop is timed beside every probe, command and library call (see
child.py), and each of these times is scaled to the reference speed:
times CAL_REF_S over the calibration beside it, which takes out most of
the host's swings of speed.  Each metric is then the mean over CPUs of
the median over rounds of the round's mean over the cases run on that
CPU.  The last line of
stdout is the JSON result; the lines before it give every metric by
name and unit, with the unscaled wall time and calibration, the raw
samples and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy

import tracing
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

# Set-up probes before the first round; each round adds one.
WARM_PROBES = 6
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
# What the installed ``voltmask`` console script runs.
CLI_ENTRY = "import sys; from voltmask.cli import run; sys.argv[0] = 'voltmask'; run()"
# The calibration's time (child.calibrate) at the reference machine's
# usual speed: timings are reported as wall time at that speed.
CAL_REF_S = 0.045
# The CPUs measured processes are pinned to, in turn; two at most, so
# that two rounds of a one-case workload run on each of them.
CPUS = sorted(os.sched_getaffinity(0))[:2]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Helper:
    """A child.py process that answers each JSON line sent with one JSON line."""

    def __init__(self, workdir: Path, mode: str, *args: str):
        self.mode = mode
        self.stderr = open(workdir / f"{mode}.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            cwd=workdir, env=child_env(), text=True,
        )  # fmt: skip

    def send(self, request) -> None:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child.py {self.mode} exited; see {self.stderr.name}")
        return json.loads(line)

    def ask(self, request) -> dict:
        self.send(request)
        return self.receive()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Finished:
    """One spawned command: exit code, wall time from spawn to exit, peak RSS."""

    def __init__(self, answer: dict, stdout: str, stderr: str):
        self.code, self.wall_s, self.rss_MB = answer["code"], answer["wall_s"], answer["rss_MB"]
        self.cal_s = answer["cal_s"]
        self.stdout, self.stderr = stdout, stderr


def spawn(launcher: Helper, argv: list[str], workdir: Path, tag: str, cpu: int) -> Finished:
    out, err = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    answer = launcher.ask(
        {"argv": argv, "stdout": str(out), "stderr": str(err), "cwd": str(workdir),
         "timeout_s": CHILD_TIMEOUT_S, "cpu": cpu}
    )  # fmt: skip
    return Finished(answer, out.read_text(), err.read_text())


def digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def library_matches(command: str, got: dict, out: Path) -> bool:
    """The warm library call returned what the CLI wrote for the same case."""
    if command == "scenario":
        written = json.loads((out / "summary.json").read_text())
    elif command == "sweep":
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        written = {"rows": [[float(v) for v in line.split(",")] for line in lines]}
    else:
        written = json.loads((out / "fitted_params.json").read_text())
        written["rmse_V"] = json.loads((out / "fit_report.json").read_text())["rmse_V"]
    return all(written[key] == got[key] for key in got)


class Session:
    """One run's helper processes, commands attempted and failures.

    The first output of each case is checked in full; every later one,
    traced or not, must be byte-identical to it.
    """

    def __init__(self, workload, cases, workdir: Path, trace: bool):
        self.workload, self.cases, self.workdir = workload, cases, workdir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.hashes: dict[int, dict] = {}
        self.launcher = Helper(workdir, "launch")
        self.worker = None
        if not trace:
            configs = [str(case.config) for case in cases]
            self.worker = Helper(workdir, "library", workload.command, *configs)

    def close(self) -> None:
        for helper in (self.launcher, self.worker):
            if helper:
                helper.close()

    def fail(self, what: str, message: str, check: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not check
        print(f"FAILED {what}: {message}", file=sys.stderr)

    def out(self, index: int) -> Path:
        return self.workdir / f"out{index}"

    def probe(self, index: int, cpu: int) -> dict:
        """Wall time of one fresh interpreter building the case's inputs."""
        argv = [sys.executable, str(HERE / "child.py"), "setup", self.workload.command,
                str(self.cases[index].config)]  # fmt: skip
        probe = spawn(self.launcher, argv, self.workdir, "setup", cpu)
        if probe.code != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()[-400:]}")
        return {"cpu": cpu, "setup_s": probe.wall_s, "setup_s.cal": probe.cal_s}

    def command(self, index: int, cpu: int, trace_file: Path | None = None) -> Finished | None:
        """Run the CLI on one case, traced if trace_file is given; None if it failed."""
        case, out = self.cases[index], self.out(index)
        shutil.rmtree(out, ignore_errors=True)
        args = [self.workload.command, "--config", str(case.config), "--out", str(out)]
        if trace_file:
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(trace_file), *args]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        what = f"{self.workload.name}[{index}]" + (" traced" if trace_file else "")
        self.attempted += 1
        run = spawn(self.launcher, argv, self.workdir, "cli", cpu)
        if run.code != 0:
            self.fail(what, f"exit {run.code}: {run.stderr.strip()[-400:]}", check=False)
            return None
        try:
            hashes = digest(out)
            if index not in self.hashes:
                self.workload.check(case, out, run.stdout)
                self.hashes[index] = hashes
            elif hashes != self.hashes[index]:
                raise CheckFailed("outputs differ from the first run of the same config")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(what, f"{type(exc).__name__}: {exc}", check=True)
            return None
        return run

    def library(self, index: int, cpu: int) -> dict:
        """Warm library call on one case, compared with the CLI's last output."""
        answer = self.worker.ask({"index": index, "cpu": cpu})
        if not library_matches(self.workload.command, answer["result"], self.out(index)):
            self.fail(f"{self.workload.name}[{index}] library",
                      "library result differs from the CLI's output", check=True)  # fmt: skip
        return {"library_s": answer["s"], "library_s.cal": answer["cal_s"]}

    def layers(self, index: int, cpu: int, run: Finished) -> dict:
        """Per-layer metrics of a traced run of the case; empty if it failed."""
        trace_file = self.workdir / "trace.json"
        traced = self.command(index, cpu, trace_file)
        if not traced:
            return {}
        iterations = 0
        if self.workload.command == "fit":
            report = json.loads((self.out(index) / "fit_report.json").read_text())
            iterations = report["iterations"]
        row = tracing.layer_metrics(json.loads(trace_file.read_text()), iterations)
        row["cli.outside_main_s"] = traced.wall_s - row["trace.root_s"]
        row["trace.overhead_s"] = traced.wall_s - run.wall_s
        return row


def measure(workload, cases, workdir: Path, seconds: float, trace: bool, quick: bool = False):
    """Run whole rounds within ``seconds``; return (session, rounds, setup probes).

    A round runs, per case and on one CPU: with tracing off, the command
    and the library call, and for the first case a set-up probe before
    them; with tracing on, the command untraced and traced.  Another round starts only if a round of the
    mean length so far still fits, and in any case until every CPU has
    run a case, so a run measures for at most ``seconds`` unless those
    first rounds alone take longer.  ``quick`` (the smoke mode) makes
    one round and no warm-up probes.  Each row and each set-up probe
    records the CPU it ran on.
    """
    warm_probes = 0 if quick else WARM_PROBES
    session = Session(workload, cases, workdir, trace)
    rounds: list[list[dict]] = []
    setup: list[dict] = []
    try:
        if session.worker:
            # warm-up call, overlapping the reference computation
            session.worker.send({"index": 0, "cpu": CPUS[0]})
        workload.prepare_refs(cases)
        if session.worker:
            session.worker.receive()
        for slot in range(warm_probes):
            cpu = CPUS[slot % len(CPUS)]
            setup.append(session.probe(slot % len(cases), cpu))
        start = time.perf_counter()
        while True:
            rows = []
            for index in range(len(cases)):
                cpu = CPUS[(len(rounds) * len(cases) + index) % len(CPUS)]
                row = {"cpu": cpu}
                if not trace and index == 0:
                    setup.append(session.probe(index, cpu))
                run = session.command(index, cpu)
                if run:
                    row.update({"command_s": run.wall_s, "command_s.cal": run.cal_s,
                                "peak_rss_MB": run.rss_MB})  # fmt: skip
                    if trace:
                        row.update(session.layers(index, cpu, run))
                    else:
                        row.update(session.library(index, cpu))
                rows.append(row)
            rounds.append(rows)
            elapsed = time.perf_counter() - start
            covered = quick or len(rounds) * len(cases) >= len(CPUS)
            if covered and elapsed + elapsed / len(rounds) > seconds:
                break
    finally:
        session.close()
        for index in range(len(cases)):
            shutil.rmtree(session.out(index), ignore_errors=True)
    return session, rounds, setup


def samples(rounds: list[list[dict]], name: str) -> list[list[float]]:
    return [[row[name] for row in rows if name in row] for rows in rounds]


def estimate(rounds: list[list[dict]], name: str) -> float:
    """Mean over CPUs of the median over rounds of the round's mean on that CPU."""
    per_cpu = defaultdict(list)
    for rows in rounds:
        on_cpu = defaultdict(list)
        for row in rows:
            if name in row:
                on_cpu[row["cpu"]].append(row[name])
        for cpu, values in on_cpu.items():
            per_cpu[cpu].append(statistics.fmean(values))
    return statistics.fmean(statistics.median(values) for values in per_cpu.values())


def at_reference_speed(row: dict) -> dict:
    """The row with each calibrated time scaled by CAL_REF_S over its calibration.

    The unscaled time is kept as ``<name>.wall``.
    """
    scaled = dict(row)
    for name in [name for name in row if name + ".cal" in row]:
        scaled[name + ".wall"] = row[name]
        scaled[name] = row[name] * CAL_REF_S / row[name + ".cal"]
    return scaled


def summarise(rounds: list[list[dict]], setup: list[dict]) -> dict[str, float]:
    """Each metric's estimate; every set-up probe counts as a round of its own.

    A time measured with a calibration beside it (``<name>.cal``) is
    reported at the reference speed: each sample is scaled by its own
    calibration before the estimate is taken, so that a slow spell of
    the host slows the sample and its calibration alike.  The estimate
    of the unscaled samples is kept as ``<name>.wall``.
    """
    rounds = [[at_reference_speed(row) for row in rows] for rows in rounds + [[p] for p in setup]]
    names = {name for rows in rounds for row in rows for name in row} - {"cpu"}
    return {name: estimate(rounds, name) for name in names}


@contextmanager
def workspace(name: str):
    path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def provenance() -> str:
    return (
        f"commit={commit()} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={os.cpu_count()}"
    )


def report(spec, workload, seed, trace, session, rounds, setup) -> dict:
    """Print the run in words and return its JSON result."""
    metrics = summarise(rounds, setup)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and session.failed == 0:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(f"workload={workload.name} seed={seed} trace={int(trace)} rounds={len(rounds)} "
          f"{provenance()}")  # fmt: skip
    print(f"commands attempted={session.attempted} failed={session.failed} "
          f"correct={session.correct}")  # fmt: skip
    for name, item in result["metrics"].items():
        line = f"  {name} = {item['value']:.6g} {item['unit']}"
        if name + ".wall" in metrics:
            line += (f" (wall {metrics[name + '.wall']:.6g} s, "
                     f"calibration {metrics[name + '.cal']:.6g} s)")  # fmt: skip
        print(line)
    if not trace:
        names = ["cpu"] + [
            key
            for m in wanted
            if m["name"] != "setup_s"
            for key in (m["name"], m["name"] + ".cal")
            if key in metrics
        ]
        raw = {name: samples(rounds, name) for name in names}
        setup_raw = {key: [p[key] for p in setup] for key in ("cpu", "setup_s", "setup_s.cal")}
        print("samples " + json.dumps({**raw, "setup": setup_raw}))
    return result


def check_checkout() -> str | None:
    """Why the benchmark cannot run from this directory, or None."""
    for needed in (SPEC_FILE, SRC / "voltmask" / "cli.py", ROOT / "params" / "paper_cell.json"):
        if not needed.is_file():
            return f"{needed} not found; run from a checkout of the voltmask repository"
    return None


def smoke(spec) -> int:
    """All three workloads at small sizes, one round untraced and one traced."""
    sizes = {"scenario-long": {"n": 2001}, "sweep-fine": {"dt": 1.0},
             "fit-rc": {"cases": 1, "ocv_dt": 40.0}}  # fmt: skip
    ok = True
    for name, size in sizes.items():
        workload = WORKLOADS[name](**size)
        for trace in (False, True):
            with workspace(f"smoke-{name}") as workdir:
                cases = workload.make(1, workdir)
                session, rounds, setup = measure(workload, cases, workdir, 0.0, trace, quick=True)
            report(spec, workload, 1, trace, session, rounds, setup)
            ok = ok and session.correct and session.failed == 0
    print("smoke: PASS" if ok else "smoke: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    problem = check_checkout()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small-n run of every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    workload = WORKLOADS[args.workload]()
    trace = bool(args.trace)
    with workspace(f"{workload.name}-s{args.seed}") as workdir:
        cases = workload.make(args.seed, workdir)
        try:
            session, rounds, setup = measure(workload, cases, workdir, args.seconds, trace)
        except CheckFailed as exc:
            print(f"bench: the library fails a check: {exc}", file=sys.stderr)
            return 1
    result = report(spec, workload, args.seed, trace, session, rounds, setup)
    print(json.dumps(result))
    return 0 if session.correct and session.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
