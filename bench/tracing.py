"""Spans and counters at the program's layer boundaries, and their analysis.

The tracer wraps the target functions at every ``voltmask`` module
attribute that refers to them (``voltmask.cli.run_scenario``,
``voltmask.sysid._simulate_arrays``, ...), so the program runs
unchanged while every call across a layer boundary records a span:
name, parent, start and end.  Counters that need the call's arguments
or result are taken after the span has closed; the time they take is recorded as a ``trace.hook`` span so that it is not
charged to the caller's self time.  Spans and counters stay in memory
until the traced process ends and are then written out as JSON.

The stack model assumes one thread, which holds for the CLI's defaults
(``sweep --workers 1``).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "scenario", "profiles", "attack", "stealth", "metrics", "ecm", "sysid")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.simulate_inputs: set[bytes] = set()

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                start = time.perf_counter()
                hook(self, args, result)
                self.spans.append(["trace.hook", parent, start, time.perf_counter()])
            return result

        return traced

    def dump(self, path: Path) -> None:
        counters = dict(self.counters)
        counters["distinct_simulate_inputs"] = len(self.simulate_inputs)
        path.write_text(json.dumps({"spans": self.spans, "counters": counters}))


# ----------------------------------------------------------- counting hooks


def _on_kernel(tracer, args, result):
    params, soc0, vc0, current, dt = args[:5]
    tracer.counters["simulated_samples"] += current.size
    h = hashlib.blake2b(repr((params, float(soc0), float(vc0), dt)).encode())
    h.update(current.tobytes())
    tracer.simulate_inputs.add(h.digest())


def _on_riccati(tracer, args, result):
    s = result.s
    tracer.counters["riccati_steps"] += s.shape[0] - 1
    tracer.counters["riccati_stationary_steps"] += int((s[:-1] == s[1:]).all(axis=(1, 2)).sum())


def _on_sweep(tracer, args, result):
    tracer.counters["gains_scored"] += len(result.rows)


def _on_load_csv(tracer, args, result):
    lines = Path(args[0]).read_bytes().splitlines()
    tracer.counters["csv_rows_read"] += sum(1 for line in lines[1:] if line.strip())


def _written(position):
    def hook(tracer, args, result):
        tracer.counters["bytes_written"] += Path(args[position]).stat().st_size

    return hook


# (defining module, function, span name, hook).  Every simulation, from
# ``ecm.simulate`` or straight from the fit, runs the stepping kernel
# ``_simulate_arrays``, so the kernel is the ``ecm.simulate`` span.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_write_csv", "cli.write", _written(0)),
    ("cli", "_write_json", "cli.write", _written(0)),
    ("ecm", "dump_params", "cli.write", _written(1)),
    ("scenario", "load_scenario", "scenario.load_scenario", None),
    ("scenario", "prepare", "scenario.prepare", None),
    ("scenario", "run_scenario", "scenario.run_scenario", None),
    ("scenario", "sweep_scenario", "scenario.sweep_scenario", None),
    ("ecm", "load_params", "ecm.load_params", None),
    ("ecm", "_simulate_arrays", "ecm.simulate", _on_kernel),
    ("profiles", "load_csv", "profiles.load_csv", _on_load_csv),
    ("profiles", "synthetic_profile", "profiles.synthetic_profile", None),
    ("sysid", "extract_ocv", "sysid.extract_ocv", None),
    ("sysid", "fit_rc", "sysid.fit_rc", None),
    ("attack", "synthesize_input_attack", "attack.synthesize_input_attack", None),
    ("attack", "solve_riccati", "attack.solve_riccati", _on_riccati),
    ("stealth", "feedback_output_attack", "stealth.feedback_output_attack", None),
    ("metrics", "sweep_ka", "metrics.sweep_ka", _on_sweep),
    ("metrics", "attack_energy", "metrics.attack_energy", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target at every module attribute that refers to it.

    Callers look a function up in their own module's namespace (``from
    .ecm import simulate``) or in the defining module's, so each
    ``voltmask`` module's attributes are searched for the target
    functions by identity.
    """
    modules = [importlib.import_module(f"voltmask.{layer}") for layer in LAYERS]
    wrappers = {}
    for module_name, attr, span, hook in TARGETS:
        fn = getattr(importlib.import_module(f"voltmask.{module_name}"), attr)
        wrappers[id(fn)] = tracer.wrap(fn, span, hook)
    for module in [importlib.import_module("voltmask"), *modules]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])


# ----------------------------------------------------------------- analysis


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def inclusive(trace: dict) -> tuple[dict[str, float], Counter]:
    """Total time and number of calls per span name."""
    incl: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, parent, start, end in trace["spans"]:
        incl[name] += end - start
        calls[name] += 1
    return incl, calls


def layer_metrics(trace: dict, fit_iterations: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    Times named after a function are inclusive of its callees; a layer's
    ``self_s`` is the time its spans do not spend in child spans.
    """
    spans = trace["spans"]
    counters = trace["counters"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_self: dict[str, float] = defaultdict(float)
    for (name, parent, start, end), inner in zip(spans, child_time):
        layer_self[name.split(".")[0]] += end - start - inner
    incl, calls = inclusive(trace)
    root_s = sum(end - start for name, parent, start, end in spans if parent < 0)
    if abs(sum(layer_self.values()) - root_s) > 1e-6 * max(root_s, 1.0):
        raise ValueError("layer self times do not add up to the root span")

    steps = counters.get("riccati_steps", 0)
    gains = counters.get("gains_scored", 0)
    samples = counters.get("simulated_samples", 0)
    written = counters.get("bytes_written", 0)
    m = {
        "cli.bytes_written": written,
        "cli.write_MB_per_s": _ratio(written / 1e6, incl["cli.write"]),
        "scenario.load_scenario_s": incl["scenario.load_scenario"],
        "scenario.prepare_s": incl["scenario.prepare"],
        "profiles.load_csv_s": incl["profiles.load_csv"],
        "profiles.csv_rows_read": counters.get("csv_rows_read", 0),
        "attack.solve_riccati_s": incl["attack.solve_riccati"],
        "attack.riccati_steps": steps,
        "attack.riccati_us_per_step": _ratio(incl["attack.solve_riccati"] * 1e6, steps),
        "attack.rollout_s": incl["attack.synthesize_input_attack"] - incl["attack.solve_riccati"],
        "attack.s_stationary_share": _ratio(counters.get("riccati_stationary_steps", 0), steps),
        "stealth.feedback_output_attack_s": incl["stealth.feedback_output_attack"],
        "stealth.feedback_output_attack_calls": calls["stealth.feedback_output_attack"],
        "metrics.sweep_ka_s": incl["metrics.sweep_ka"],
        "metrics.gains_scored": gains,
        "metrics.ms_per_gain": _ratio(incl["metrics.sweep_ka"] * 1e3, gains),
        "ecm.simulate_s": incl["ecm.simulate"],
        "ecm.simulate_calls": calls["ecm.simulate"],
        "ecm.simulated_samples": samples,
        "ecm.ns_per_sample": _ratio(incl["ecm.simulate"] * 1e9, samples),
        "ecm.distinct_simulate_ratio": _ratio(
            counters["distinct_simulate_inputs"], calls["ecm.simulate"]
        ),
        "sysid.extract_ocv_s": incl["sysid.extract_ocv"],
        "sysid.fit_rc_s": incl["sysid.fit_rc"],
        "sysid.fit_iterations": fit_iterations,
        "sysid.ms_per_iteration": _ratio(incl["sysid.fit_rc"] * 1e3, fit_iterations),
        "trace.root_s": root_s,
        "trace.hook_s": incl["trace.hook"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m

