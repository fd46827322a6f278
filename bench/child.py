"""What the benchmark runs in a fresh interpreter, with PYTHONPATH on src/.

  child.py setup COMMAND CONFIG
      import voltmask, parse the config and build the inputs, then exit;
      the parent times the whole process as the set-up time.
  child.py library COMMAND CONFIG...
      build the inputs of every config, then serve one top-level library
      call per line of stdin (the config's index and the CPU to run on)
      and answer with one JSON line: the call's wall time, the
      calibration time measured beside it and the values the parent
      compares with the CLI's output of the same config.
  child.py launch
      spawn the command given as one JSON line on stdin on the CPU it
      names, time it from spawn to exit and answer with its exit code,
      wall time, calibration time and peak resident memory.  This
      process never loads numpy: a child's peak RSS as wait4 reports it
      is at least that of the process it was spawned from, so commands
      must not be spawned from the benchmark's own, larger process.
  child.py trace TRACE_JSON CLI_ARGS...
      run ``voltmask CLI_ARGS`` with spans recorded at the layer
      boundaries, and write them to TRACE_JSON when the command ends.

Every timed call or process has a calibration beside it: a fixed
pure-Python recurrence, like the program's stepping loop, timed on the
same CPU just before and just after it.  The parent divides by these
times to take the host's changes of speed out of its timings.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from functools import cache
from pathlib import Path

CALIBRATION_STEPS = 400_000


@cache
def calibration_input() -> list[float]:
    return [((k * 7919) % 1000) * 1e-3 for k in range(CALIBRATION_STEPS)]


def calibrate() -> float:
    """Wall time of a fixed compensated sum and first-order filter over floats."""
    values = calibration_input()
    start = time.perf_counter()
    total = comp = state = 0.0
    for value in values:
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
        state = 0.99 * state + 0.01 * value
    return time.perf_counter() - start


def beside(call):
    """Run call(); return its result, its wall time and the calibration around it."""
    before = calibrate()
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    return result, elapsed, (before + calibrate()) / 2.0


def build_inputs(command: str, config: Path):
    """The inputs the CLI builds before its first computation."""
    if command in ("scenario", "sweep"):
        from voltmask.scenario import load_scenario, prepare

        return prepare(load_scenario(config))
    from voltmask.ecm import BatteryState, load_params
    from voltmask.profiles import load_csv

    raw = json.loads(config.read_text())
    base = config.parent
    ocv, rc = raw["ocv"], raw["rc"]

    def pair(block, current, voltage):
        return (
            load_csv(base / block[current], block["dt"]),
            load_csv(base / block[voltage], block["dt"]),
        )

    return {
        "params": load_params(base / raw["initial_params_file"]),
        "charge": pair(ocv, "charge_current_csv", "charge_voltage_csv"),
        "discharge": pair(ocv, "discharge_current_csv", "discharge_voltage_csv"),
        "record": pair(rc, "current_csv", "voltage_csv"),
        "frozen": frozenset(rc["frozen"]),
        "x0": BatteryState(rc["soc0"], rc["vc0"]),
    }


def library_call(command: str, inputs) -> dict:
    """The workload's top-level library call, without process start or output."""
    if command == "scenario":
        from voltmask.scenario import run_scenario

        summary = run_scenario(inputs).summary
        return {
            "residual_rms_V": summary.residual_rms,
            "final_soc_attacked": summary.final_soc_attacked,
        }
    if command == "sweep":
        from voltmask.scenario import sweep_scenario

        return {"rows": [list(row) for row in sweep_scenario(inputs, inputs.ka_values).rows]}
    from voltmask.sysid import extract_ocv, fit_rc

    params = inputs["params"]
    curve = extract_ocv(inputs["charge"], inputs["discharge"], capacity_q=params.capacity_q)
    report = fit_rc(
        replace(params, ocv=curve), inputs["record"], inputs["frozen"], x0=inputs["x0"]
    )
    return {
        "r0_ohm": report.fitted.r0,
        "r1_ohm": report.fitted.r1,
        "c1_farad": report.fitted.c1,
        "rmse_V": report.rmse,
    }


def serve(command: str, configs: list[Path]) -> None:
    inputs = [build_inputs(command, config) for config in configs]
    for line in sys.stdin:
        request = json.loads(line)
        os.sched_setaffinity(0, {request["cpu"]})
        result, elapsed, cal = beside(lambda: library_call(command, inputs[request["index"]]))
        print(json.dumps({"s": elapsed, "cal_s": cal, "result": result}), flush=True)


def launch() -> None:
    import subprocess
    import threading

    for line in sys.stdin:
        request = json.loads(line)
        # The spawned process inherits the CPU set of this thread.
        os.sched_setaffinity(0, {request["cpu"]})

        def run():
            with open(request["stdout"], "w") as out, open(request["stderr"], "w") as err:
                proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
                timer = threading.Timer(request["timeout_s"], proc.kill)
                timer.start()
                try:
                    return os.wait4(proc.pid, 0)[1:]
                finally:
                    timer.cancel()

        (status, usage), wall, cal = beside(run)
        answer = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cal_s": cal,
            "rss_MB": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        }
        print(json.dumps(answer), flush=True)


def traced_cli(trace_path: Path, cli_args: list[str]) -> int:
    import tracing  # beside this script, so on sys.path already
    import voltmask.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    sys.argv = ["voltmask", *cli_args]
    try:
        voltmask.cli.run()
    except SystemExit as done:
        return done.code if isinstance(done.code, int) else 1
    finally:
        tracer.dump(trace_path)
    return 0


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "setup":
        build_inputs(rest[0], Path(rest[1]))
        return 0
    if mode == "library":
        serve(rest[0], [Path(p) for p in rest[1:]])
        return 0
    if mode == "launch":
        launch()
        return 0
    if mode == "trace":
        return traced_cli(Path(rest[0]), rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
