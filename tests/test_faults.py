"""Every exit 2 and exit 3 case of the command line, one row each.

A row (Fault) names the command and the case it runs on: the workspace's
tc1 copy or fit file (see conftest.py) with a patch, a patch of its cell
file, and any file it writes, such as a bad CSV.  It holds any extra
argv, the exit code and the one line the command must print on stderr,
without its ``config error: `` or ``runtime error: `` prefix.  In argv
and the line, {config} stands for the case's config and {work} for its
directory.  Where the text comes from Python, which may word it
differently from one version to the next, the line is a re.fullmatch
pattern.

test_fault runs every row in-process, with every warning an error, and
checks the exit code, that stderr is exactly the row's line, and that
stdout and --out stay empty.  An exit 2 must come before anything is
computed: neither the Riccati sweep nor a stepping kernel may be called.
The rows marked process also run as a separate process, in
test_console.py.  Most rows also run through run in test_cli.py, under
the names their cases had there before this table.  A new fault case is
a new row here.
"""

import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from conftest import DROP

import voltmask.attack
import voltmask.ecm
import voltmask.sysid
from voltmask import TimeSeries
from voltmask.cli import main

PREFIX = {2: "config error: ", 3: "runtime error: "}

# what an exit 2 must not call
COMPUTATIONS = [
    (voltmask.attack, "_sweep_backward"),
    (voltmask.ecm, "_simulate_arrays"),
    (voltmask.ecm, "_rc_trajectory"),
    (voltmask.sysid, "_rc_trajectory"),
]


@dataclass(frozen=True)
class Fault:
    """One fault case: what make_case writes, what the command is given, what it prints."""

    id: str
    command: str
    code: int
    line: str
    config: dict | None = None
    cell: dict | None = None
    files: dict | None = None
    base: str = "tc1"
    text: Callable | None = None
    argv: tuple = ()
    config_arg: str = "{config}"
    out: str = "{work}/out"
    pattern: bool = False
    process: bool = False

    def write(self, make_case):
        """The argv, expected stderr line and --out of the case make_case writes."""
        config = make_case(self.config, self.cell, self.files, self.base, self.text)

        def fill(s, quote=str):
            s = s.replace("{config}", quote(str(config)))
            return s.replace("{work}", quote(str(config.parent)))

        argv = [self.command, "--config", fill(self.config_arg), "--out", fill(self.out)]
        line = PREFIX[self.code] + fill(self.line, re.escape if self.pattern else str)
        return [*argv, *map(fill, self.argv)], line, Path(fill(self.out))

    def check(self, code, stdout, stderr, line, out):
        """That a run gave this row's exit code and line, and left stdout and out empty."""
        assert code == self.code, stderr
        assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
        if self.pattern:
            assert re.fullmatch(line, stderr[:-1]), stderr
        else:
            assert stderr[:-1] == line
        assert stdout == ""
        assert not out.is_dir() or not any(out.iterdir())


def _value_id(value):
    return "huge_int" if isinstance(value, int) and abs(value) > 1e308 else repr(value)


def _field(dotted, value, line, base="tc1"):
    """A row that sets one field of the config, for its id and line."""
    command = "fit" if base == "fit" else "scenario"
    return Fault(f"{command}-{dotted}-{_value_id(value)}", command, 2, line, base=base,
                 config={dotted: value})


def _ka_flag(ka):
    line = f"--ka must be comma-separated finite gains other than 1, got {ka!r}"
    return Fault(f"ka-flag-{ka!r}", "sweep", 2, line, argv=(f"--ka={ka}",))


# a cell the model cannot step: tau1 underflows to 0, a subnormal tau1
# whose reciprocal is inf, and a c1 whose reciprocal is inf
_UNSTEPPABLE = [
    ({"r1_ohm": 1e-200, "c1_farad": 1e-200}, "r1_ohm * c1_farad = 0.0"),
    ({"r1_ohm": 1e-160, "c1_farad": 1e-150}, "r1_ohm * c1_farad = 1e-310"),
    ({"c1_farad": 1e-310}, "c1_farad = 1e-310"),
]
_TOO_SMALL = " is too small: its reciprocal is not finite"

_BIG = 10**400  # an int beyond the float range
_SEED = "--seed must be a whole number, got -1"
_SUMMARY_INF = "summary.json: field 'residual_rms_V' is not finite (inf)"
_SWEEP_INF = "sweep.csv: residual_rms_V at k_a = -0.1 is not finite (inf)"
_ZOH = ("zero-order-hold closed loop is unstable where S is stationary (t=0.0 to t=2000.0): "
        "spectral radius {} > 1 (feedback gain too stiff for this grid step)")
_PROFILE_KEYS = "['csv', 'kind', 'amplitude', 'bias', 'duration', 'seed']"


# On tc1 (Q = 14322 A s, dt = 1 s) q1 = h*lambda * Q**2 is the stationary S
# of the SoC channel and q2 = (h*lambda * Q)**2 as the sweep rounds it, so S
# stays put and the closed loop's h*lambda is stable for the RK4 sweep (up
# to about 2.785) but not for the zero-order hold (above 2): its spectral
# radius is h*lambda - 1.  Without the check, 2.05 exits 0 with a SoC of
# 7.8e35, 2.2 overflows the attack energy, 2.3 writes inf sweep rows or
# leaves attack.csv behind, and 2.5 overflows u_a.
def _zoh(h_lambda, radius, command="scenario", process=False):
    q = 14322.0
    weights = {"q1": [h_lambda * q * q, 0.0], "q2": [(h_lambda * q) ** 2, 0.0], "r": 1.0}
    return Fault(f"zoh-{command}-{h_lambda}", command, 3, _ZOH.format(radius),
                 config={"weights": weights}, process=process)


def _head(name, lines):
    """A file's text: the first lines of the workspace's file name."""
    return lambda work: "".join((work / name).read_text().splitlines(keepends=True)[:lines])


def _series(samples, t0=0.0, dt=60.0):
    return TimeSeries(t0, dt, np.asarray(samples, dtype=float))


# the fit rows that need one block drop the other
_OCV_ONLY = {"rc": DROP}
_RC_ONLY = {"ocv": DROP}

ROWS = [
    # -- the config file and --out
    Fault("config-absent", "scenario", 2, "{work}/absent.json: file not found",
          config_arg="{work}/absent.json"),
    Fault("config-directory", "scenario", 2, "{work}/folder: is a directory",
          config_arg="{work}/folder", process=True),
    Fault("config-invalid-json", "scenario", 2,
          "{config}: invalid JSON: Expecting property name enclosed in double quotes.*",
          text=lambda _: "{not json", pattern=True),
    Fault("config-nested-too-deep", "scenario", 2,
          "{config}: invalid JSON: maximum recursion depth exceeded.*",
          text=lambda _: "[" * 100_000 + "]" * 100_000, pattern=True),
    Fault("config-not-an-object", "scenario", 2, "{config}: expected a JSON object",
          text=lambda _: "[1, 2]"),
    Fault("cell-not-an-object", "scenario", 2, "{work}/cell.json: expected a JSON object",
          files={"cell.json": "[0.0135]"}),
    Fault("fit-file-not-an-object", "fit", 2, "{config}: expected a JSON object",
          base="fit", text=lambda _: '"fit.json"'),
    Fault("out-is-a-file", "scenario", 2, "[Errno 17] File exists: '{work}/afile'",
          files={"afile": ""}, out="{work}/afile"),
    Fault("out-below-a-file", "scenario", 2, "[Errno 20] Not a directory: '{work}/afile/sub'",
          files={"afile": ""}, out="{work}/afile/sub"),
    # -- unknown and repeated keys, a row per block
    Fault("unknown-scenario-keys", "scenario", 2,
          "{config}: unknown keys ['i_maks', 'plant_override'], not among ['params_file', 'dt', "
          "'x0', 'profile', 'reference', 'weights', 'k_a', 'i_max', 'ka_values', "
          "'plant_overrides']",
          config={"i_max": DROP, "i_maks": 30.0, "plant_override": {"r0_ohm": 0.0162156}}),
    Fault("unknown-x0-key", "scenario", 2,
          "{config}: x0: unknown keys ['vc0'], not among ['soc', 'vc']", config={"x0.vc0": 0.0}),
    Fault("unknown-profile-key", "scenario", 2,
          f"{{config}}: profile: unknown keys ['durration'], not among {_PROFILE_KEYS}",
          config={"profile.durration": 300.0}),
    # a CSV profile reads its csv alone, so synthetic keys beside it are unread
    Fault("csv-profile-with-synthetic-keys", "simulate", 2,
          "{config}: profile: unknown keys ['amplitude', 'kind'], not among ['csv']",
          config={"profile": {"csv": "p.csv", "kind": "sin_mix", "amplitude": 99}},
          files={"p.csv": "time_s,value\n0,1\n300,1\n"}),
    Fault("unknown-reference-key", "scenario", 2,
          "{config}: reference: unknown keys ['soc_end'], not among "
          "['soc_start', 'soc_target', 'shape']",
          config={"reference.soc_end": 0.2}),
    Fault("unknown-weights-key", "scenario", 2,
          "{config}: weights: unknown keys ['q3'], not among ['q1', 'q2', 'r']",
          config={"weights.q3": [1.0, 0.0]}),
    Fault("unknown-plant-overrides-key", "scenario", 2,
          "{config}: plant_overrides: unknown keys ['r0'], not among "
          "['capacity_As', 'r0_ohm', 'r1_ohm', 'c1_farad', 'noise_std', 'seed']",
          config={"plant_overrides.r0": 0.02}),
    Fault("unknown-cell-key", "scenario", 2,
          "{work}/cell.json: unknown keys ['r2_ohm'], not among "
          "['capacity_As', 'r0_ohm', 'r1_ohm', 'c1_farad', 'ocv']",
          cell={"r2_ohm": 0.01}),
    Fault("unknown-fit-key", "fit", 2,
          "{config}: unknown keys ['initial_params'], not among "
          "['initial_params_file', 'ocv', 'rc']",
          base="fit", config={"initial_params": "cell.json"}),
    Fault("unknown-ocv-key", "fit", 2,
          "{config}: ocv: unknown keys ['n_breakpoint'], not among ['charge_current_csv', "
          "'charge_voltage_csv', 'discharge_current_csv', 'discharge_voltage_csv', 'dt', "
          "'n_breakpoints', 'r0_guess']",
          base="fit", config={"ocv.n_breakpoint": 7}),
    Fault("unknown-rc-key", "fit", 2,
          "{config}: rc: unknown keys ['soc_0'], not among "
          "['current_csv', 'voltage_csv', 'dt', 'frozen', 'soc0', 'vc0']",
          base="fit", config={"rc.soc_0": 0.5}),
    Fault("repeated-scenario-key", "scenario", 2, "{config}: keys given more than once ['k_a']",
          text=lambda s: s.replace('"k_a": -0.05', '"k_a": -0.05, "k_a": 0.5')),
    Fault("repeated-weights-key", "scenario", 2,
          "{config}: weights: keys given more than once ['r']",
          text=lambda s: s.replace('"r": 1.0', '"r": 1.0, "r": 2.0')),
    Fault("repeated-rc-key", "fit", 2, "{config}: rc: keys given more than once ['dt']",
          base="fit", text=lambda s: s.replace('"dt": 2.0', '"dt": 2.0, "dt": 1.0')),
    # -- the scenario's fields; each is read before the cell file, and the
    # cell file before --seed
    Fault("missing-dt", "scenario", 2, "{config}: missing field 'dt'", config={"dt": DROP}),
    Fault("params-file-directory", "scenario", 2,
          "{config}: params_file is a directory: {work}/folder", config={"params_file": "folder"}),
    Fault("field-before-cell", "scenario", 2, "{config}: field 'dt' must be positive, got -1.0",
          config={"dt": -1.0}, cell={"r1_ohm": DROP}),
    Fault("cell-before-seed", "scenario", 2, "{work}/cell.json: missing key 'r1_ohm'",
          cell={"r1_ohm": DROP}, argv=("--seed", "-1")),
    _field("dt", _BIG, f"{{config}}: field 'dt' must be a number, got {_BIG}"),
    _field("profile.duration", [1],
           "{config}: profile: field 'duration' must be a number, got [1]"),
    _field("profile.amplitude", True,
           "{config}: profile: field 'amplitude' must be a number, got True"),
    _field("profile.seed", 1.7, "{config}: profile: field 'seed' must be a whole number, got 1.7"),
    _field("profile.seed", -1, "{config}: profile: field 'seed' must be a whole number, got -1"),
    Fault("profile-without-csv-or-kind", "scenario", 2,
          "{config}: profile needs either 'csv' or keys ['amplitude', 'bias', 'duration', "
          "'kind', 'seed']; missing ['amplitude', 'bias', 'duration', 'seed']",
          config={"profile": {"kind": "sin_mix"}}),
    Fault("profile-duration-below-dt", "scenario", 2,
          "{config}: profile: duration -5.0 is shorter than dt 1.0",
          config={"profile.duration": -5.0}),
    Fault("profile-kind-unknown", "scenario", 2,
          "{config}: profile: unknown profile kind 'foo'; expected constant, sin_mix, or "
          "pulse_train",
          config={"profile.kind": "foo"}),
    Fault("profile-grid-too-large", "scenario", 2,
          "{config}: profile: dt 1e-09 over 2000.0 s gives 2e+12 samples, more than the limit "
          "of 10000001",
          config={"dt": 1e-9}),
    Fault("profile-overflows", "scenario", 2,
          "{config}: profile: sin_mix profile is not finite: amplitude 1e+308 and bias 1e+308 "
          "overflow",
          config={"profile.amplitude": 1e308, "profile.bias": 1e308, "profile.seed": 3}),
    Fault("profile-csv-absent", "scenario", 2,
          "{config}: profile csv not found: {work}/absent.csv",
          config={"profile": {"csv": "absent.csv"}}),
    Fault("profile-csv-directory", "scenario", 2,
          "{config}: profile csv is a directory: {work}/folder",
          config={"profile": {"csv": "folder"}}),
    Fault("profile-csv-header", "scenario", 2,
          "{work}/drive.csv: line 1: expected header 'time_s,value', got 't,i'",
          config={"profile": {"csv": "drive.csv"}}, files={"drive.csv": "t,i\n0,1\n300,1\n"}),
    Fault("profile-csv-empty", "scenario", 2,
          "{work}/drive.csv: empty file, expected header 'time_s,value'",
          config={"profile": {"csv": "drive.csv"}}, files={"drive.csv": ""}),
    Fault("profile-csv-bad-cell", "scenario", 2,
          "{work}/drive.csv: line 3: non-numeric cell in row ['1.0', 'abc']",
          config={"profile": {"csv": "drive.csv"}},
          files={"drive.csv": "time_s,value\n0.0,1.0\n1.0,abc\n2.0,1.0\n"}),
    Fault("profile-csv-under-one-step", "scenario", 2,
          "{work}/drive.csv: rows span 0.5 s, less than one step of 1.0 s; need at least 2 "
          "grid points",
          config={"profile": {"csv": "drive.csv"}},
          files={"drive.csv": "time_s,value\n0,1\n0.5,1\n"}),
    Fault("profile-csv-cell-over-field-limit", "scenario", 2,
          "{work}/drive.csv: line 3: field larger than field limit (131072)",
          config={"profile": {"csv": "drive.csv"}},
          files={"drive.csv": f"time_s,value\n0,1\n2000,{'9' * 140_000}\n"}, process=True),
    Fault("x0-soc-out-of-range-as-soc-start", "scenario", 2,
          "{config}: reference: field 'soc_start' is absent, so it defaults to x0.soc, which "
          "must then lie in [0, 1], got 1.5",
          config={"x0.soc": 1.5}),
    *(_field("reference.soc_start", value,
             f"{{config}}: reference: field 'soc_start' must be a number, got {value!r}")
      for value in ([0.5], None, True)),
    Fault("soc-target-out-of-range", "scenario", 2,
          "{config}: reference: soc_target must lie in [0, 1], got 1.2",
          config={"reference.soc_target": 1.2}),
    _field("weights.q1", [True, 0],
           "{config}: weights: field 'q1' must be a list of numbers, got [True, 0]"),
    Fault("weights-q1-not-a-pair", "scenario", 2,
          "{config}: weights: field 'q1' must be a [soc, vc] diagonal pair",
          config={"weights.q1": [1e7]}),
    Fault("weights-r-negative", "scenario", 2,
          "{config}: weights: r must be positive and finite, got -1.0",
          config={"weights.r": -1.0}),
    _field("k_a", float("inf"), "{config}: field 'k_a' must be a number, got inf"),
    *(Fault(f"k_a-one-{command}", command, 2,
            "{config}: field 'k_a': the gain 1 makes the masking singular",
            config={"k_a": 1}, process=command == "scenario")
      for command in ("scenario", "sweep")),
    Fault("ka_values-one", "sweep", 2,
          "{config}: field 'ka_values': the gain 1 makes the masking singular",
          config={"ka_values": [0.0, 1.0]}),
    Fault("ka_values-empty", "sweep", 2,
          "{config}: no gains to sweep; set 'ka_values' in the config or pass --ka",
          config={"ka_values": []}),
    _field("i_max", float("nan"), "{config}: field 'i_max' must be a number, got nan"),
    Fault("i_max-zero", "scenario", 2,
          "{config}: field 'i_max' must be a positive number, got 0.0", config={"i_max": 0.0}),
    _field("plant_overrides.seed", -1,
           "{config}: plant_overrides: field 'seed' must be a whole number, got -1"),
    _field("plant_overrides.r0_ohm", -0.01,
           "{config}: plant_overrides: field 'r0_ohm' must be positive, got -0.01"),
    *(_field("plant_overrides.r0_ohm", value,
             f"{{config}}: plant_overrides: field 'r0_ohm' must be a number, got {value!r}")
      for value in (True, "0.02")),
    # -- the cell, in the cell file or as the plant's overrides
    *(Fault(f"plant-overrides-unsteppable-{i}", "scenario", 2,
            "{config}: plant_overrides: " + text + _TOO_SMALL,
            config={f"plant_overrides.{key}": value for key, value in fields.items()})
      for i, (fields, text) in enumerate(_UNSTEPPABLE)),
    *(Fault(f"cell-unsteppable-{i}", "scenario", 2, "{work}/cell.json: " + text + _TOO_SMALL,
            cell=fields, process=i == 2)
      for i, (fields, text) in enumerate(_UNSTEPPABLE)),
    Fault("cell-ocv-not-pairs", "scenario", 2,
          "{work}/cell.json: field 'ocv' must be a list of [soc, volts] number pairs",
          cell={"ocv": [1, 2]}),
    Fault("cell-capacity-bool", "scenario", 2,
          "{work}/cell.json: field 'capacity_As' must be a number, got True",
          cell={"capacity_As": True}),
    Fault("cell-capacity-negative", "scenario", 2,
          "{work}/cell.json: field 'capacity_As' must be positive, got -1.0",
          cell={"capacity_As": -1.0}),
    Fault("cell-r0-huge-int", "scenario", 2,
          f"{{work}}/cell.json: field 'r0_ohm' must be a number, got {_BIG}",
          cell={"r0_ohm": _BIG}),
    # -- flags
    *(Fault(f"seed-negative-{command}", command, 2, _SEED, argv=("--seed", "-1"),
            process=command == "scenario")
      for command in ("scenario", "simulate", "sweep")),
    Fault("seed-negative-noisy", "scenario", 2, _SEED, argv=("--seed", "-1"),
          config={"plant_overrides": {"noise_std": 0.001, "seed": 3}}),
    *map(_ka_flag, ["abc", "0,1", "-0.5, 1.0", "nan", "1e999", "", ",", " , ", "0.1,,0.2"]),
    # a gain is ASCII digits, as a config number is: float() reads these as 2, 1 and 0.5
    *map(_ka_flag, ["\u0662", "\uff11", "0.\u0665"]),
    # -- the fit file; its ocv block is read before its rc block
    Fault("fit-without-blocks", "fit", 2,
          "{config}: need an 'ocv' and/or 'rc' block, found neither",
          base="fit", config={"ocv": DROP, "rc": DROP}),
    Fault("fit-start-cell-directory", "fit", 2,
          "{config}: initial_params_file is a directory: {work}/folder",
          base="fit", config={"initial_params_file": "folder"}),
    Fault("fit-start-cell-absent", "fit", 2,
          "{config}: initial_params_file not found: {work}/absent.json",
          base="fit", config={"initial_params_file": "absent.json"}),
    Fault("fit-record-absent", "fit", 2, "{config}: rc: current_csv not found: {work}/ghost.csv",
          base="fit", config={"rc.current_csv": "ghost.csv"}),
    Fault("fit-record-directory", "fit", 2,
          "{config}: rc: current_csv is a directory: {work}/folder",
          base="fit", config={"rc.current_csv": "folder"}),
    Fault("fit-record-bad-cell-deep", "fit", 2,
          "{work}/deep.csv: line 1400: non-numeric cell in row ['2796.0', '4.1x3.9']",
          base="fit", config={**_RC_ONLY, "rc.voltage_csv": "deep.csv"}, process=True,
          files={"deep.csv": "time_s,value\n" + "".join(
              f"{2 * k}.0,{'4.1x' if k == 1398 else ''}3.9\n" for k in range(1500))}),
    Fault("fit-record-empty", "fit", 2,
          "{work}/empty.csv: empty file, expected header 'time_s,value'",
          base="fit", config={**_RC_ONLY, "rc.voltage_csv": "empty.csv"}, files={"empty.csv": ""}),
    _field("ocv.dt", 0.0, "{config}: ocv: field 'dt' must be positive, got 0.0", base="fit"),
    _field("ocv.n_breakpoints", 2002,
           "{config}: ocv: field 'n_breakpoints' must be 2 to 2001, got 2002", base="fit"),
    Fault("fit-breakpoints-before-rc-record", "fit", 2,
          "{config}: ocv: field 'n_breakpoints' must be 2 to 2001, got 1",
          base="fit", config={"ocv.n_breakpoints": 1, "rc.current_csv": "ghost.csv"}),
    *(_field("ocv.n_breakpoints", value,
             f"{{config}}: ocv: field 'n_breakpoints' must be a whole number, got {value!r}",
             base="fit")
      for value in ("21", True, 20.5)),
    *(_field("ocv.r0_guess", value,
             f"{{config}}: ocv: field 'r0_guess' must be a number, got {value!r}", base="fit")
      for value in ([0.01], True, _BIG)),
    Fault("fit-ocv-pair-grids", "fit", 2,
          "{config}: ocv: fields 'charge_current_csv' and 'charge_voltage_csv' give different "
          "grids: 21 samples from t=0.0 and 20 from t=0.0",
          base="fit", files={"chg_v.csv": _series(np.full(20, 3.5))}),
    Fault("fit-rc-pair-grids", "fit", 2,
          "{config}: rc: fields 'current_csv' and 'voltage_csv' give different grids: "
          "21 samples from t=0.0 and 21 from t=2.0",
          base="fit", files={"exc_v.csv": _series(np.full(21, 3.5), t0=2.0, dt=2.0)}),
    Fault("fit-frozen-unknown", "fit", 2,
          "{config}: rc: field 'frozen' names ['tau'], not among ['r0', 'r1', 'c1', 'capacity_q']",
          base="fit", config={"rc.frozen": ["r0", "tau"]}),
    Fault("fit-vc0-without-soc0", "fit", 2,
          "{config}: rc: field 'vc0' is given without 'soc0'; give both or neither",
          base="fit", config={"rc.soc0": DROP}),
    *(_field(f"rc.{name}", value,
             f"{{config}}: rc: field '{name}' must be a number, got {value!r}", base="fit")
      for name, value in [("soc0", [0.5]), ("soc0", "abc"), ("soc0", True),
                          ("soc0", float("nan")), ("vc0", "0"), ("vc0", False)]),
    # -- the run: the Riccati sweep and the rollout
    Fault("riccati-diverges", "scenario", 3,
          "riccati sweep diverged at t=1999.0 (weights too stiff for this grid step)",
          config={"weights": {"q1": [1e19, 0.0], "q2": [0.0, 0.0], "r": 1e-12}}),
    # RK4 past its limit on a 4 A s cell: s11 runs 16, -5.33, -15.3, -9.3e3,
    # -3.4e45 and stays finite
    Fault("riccati-leaves-psd-cone", "scenario", 3,
          "riccati sweep left the positive semidefinite cone at t=3.0: s11 = -5.333333333333332 "
          "(weights too stiff for this grid step)",
          cell={"capacity_As": 4.0, "r0_ohm": 0.03125, "r1_ohm": 0.03125, "c1_farad": 50.0},
          config={"profile": {"kind": "constant", "amplitude": 0.0, "bias": 0.0,
                              "duration": 4.0, "seed": 0},
                  "weights": {"q1": [16.0, 0.0], "q2": [0.0, 0.0], "r": 0.5}}),
    # one profile sample of 1e308 A: S stays finite and V overflows, so the
    # forcing is named, not the weights
    Fault("riccati-forcing-overflows", "scenario", 3,
          "riccati sweep: the forcing overflowed at t=100.0 (profile or reference too large)",
          config={"profile": {"csv": "huge.csv"}},
          files={"huge.csv": "time_s,value\n0,1\n99,1\n100,1e308\n101,1\n2000,1\n"}),
    _zoh(2.05, 1.0499999999999998, process=True),
    _zoh(2.2, 1.2000000000000002),
    _zoh(2.3, 1.2999999999999998),
    _zoh(2.3, 1.2999999999999998, "sweep"),
    _zoh(2.5, 1.5),
    # a 1e300 A spike into an RC branch of 1e10 ohm and 1e-9 F: vc overflows
    # on row 2 while the SoC stays finite
    Fault("rollout-overflows", "scenario", 3,
          "closed-loop rollout diverged at t=2.0 (feedback gain too stiff for this grid step)",
          cell={"r0_ohm": 0.0135, "r1_ohm": 1e10, "c1_farad": 1e-9,
                "ocv": [[0.0, 3.0], [1.0, 4.2]]},
          config={"x0": {"soc": 0.5, "vc": 0.0}, "profile": {"csv": "spike.csv"},
                  "reference": {"soc_start": 0.5, "soc_target": 0.4, "shape": "linear_ramp"},
                  "weights": {"q1": [1.0, 0.0], "q2": [0.0, 0.0], "r": 1.0}},
          files={"spike.csv": "time_s,value\n0,0\n1,1e300\n2,0\n3,0\n4,0\n"}),
    # -- the run: simulations, masking and what is written.  A plant of
    # 1e-306 A s reaches a SoC near 1e307, where the OCV extrapolation
    # overflows; at 1e-300 A s the voltages stay finite and the residual's
    # sum of squares overflows.
    *(Fault(f"terminal-voltage-overflows-{command}", command, 3,
            f"terminal voltage is not finite at t={t} (-inf V)",
            config={"plant_overrides.capacity_As": 1e-306})
      for command, t in (("simulate", 34.0), ("scenario", 19.0), ("sweep", 19.0))),
    Fault("residual-overflows-scenario", "scenario", 3, _SUMMARY_INF,
          config={"plant_overrides.capacity_As": 1e-300}),
    Fault("residual-overflows-sweep", "sweep", 3, _SWEEP_INF,
          config={"plant_overrides.capacity_As": 1e-300}),
    # a noise_std of 1e308 overflows the draw; at 1e300 the residual overflows
    *(Fault(f"noise-1e308-{command}", command, 3,
            "noisy plant voltage is not finite at t=12.0 (-inf V, noise_std = 1e+308)",
            config={"plant_overrides.noise_std": 1e308}, process=command == "scenario")
      for command in ("scenario", "sweep")),
    Fault("noise-1e300-scenario", "scenario", 3, _SUMMARY_INF,
          config={"plant_overrides.noise_std": 1e300}),
    Fault("noise-1e300-sweep", "sweep", 3, _SWEEP_INF,
          config={"plant_overrides.noise_std": 1e300}),
    # at 1e-302 A s the plant voltage is about -1e303 V one step in, and the
    # correction's 1 / (1 - k_a) = 1e9 carries it past the largest float; at
    # 2e-304 A s and k_a = 0.5 the correction stays finite and its sum with
    # the plant voltage overflows
    Fault("masking-correction-overflows", "scenario", 3,
          "masking correction is not finite at t=1.0 (-inf V, k_a = 0.999999999)",
          config={"plant_overrides.capacity_As": 1e-302, "k_a": 0.999999999}, process=True),
    Fault("masking-correction-overflows-sweep", "sweep", 3, _SWEEP_INF,
          config={"plant_overrides.capacity_As": 1e-302, "k_a": 0.999999999},
          argv=("--ka=-0.1,0.999999999",)),
    Fault("measured-voltage-overflows", "scenario", 3,
          "measured voltage is not finite at t=1890.0 (-inf V, k_a = 0.5)",
          config={"plant_overrides.capacity_As": 2e-304, "k_a": 0.5}),
    # -- the run: the fit.  The data, not the file, is at fault: the
    # workspace's sweeps cut to their first 7 samples cover a third of the
    # SoC range each.
    Fault("fit-sweeps-cover-a-third", "fit", 3,
          "charge sweep covers SoC 0.000 to 0.300 and discharge sweep 0.700 to 1.000, an overlap "
          "of 0.000; need at least 0.9",
          base="fit", config=_OCV_ONLY,
          files={name: _head(name, 8)
                 for name in ("chg_i.csv", "chg_v.csv", "dis_i.csv", "dis_v.csv")}),
    # the charge voltage falls as the SoC rises and the discharge voltage
    # rises, so the projection pools the whole curve and its sum overflows
    Fault("fit-ocv-pool-overflows", "fit", 3,
          "the ocv curve overflows: sweep voltages reach 8e+307 V",
          base="fit", config=_OCV_ONLY,
          files={"chg_v.csv": _series(np.linspace(8e307, 4e307, 21)),
                 "dis_v.csv": _series(np.linspace(4e307, 8e307, 21))}),
    Fault("fit-ocv-average-overflows", "fit", 3,
          "the ocv curve overflows: sweep voltages reach 1.7e+308 V",
          base="fit", config=_OCV_ONLY,
          files={"chg_v.csv": _series(np.full(21, 1.7e308)),
                 "dis_v.csv": _series(np.full(21, 1.7e308))}),
    # the coulomb count overflows, and its NaN step is named
    Fault("fit-ocv-count-overflows", "fit", 3,
          "charge sweep SoC not strictly increasing at sample 3",
          base="fit", config=_OCV_ONLY,
          files={"chg_i.csv": _series(np.full(21, -1e308)),
                 "dis_i.csv": _series(np.full(21, 1e308))}),
    # a pause in the discharge sweep: its SoC stays put for one step
    Fault("fit-discharge-pauses", "fit", 3,
          "discharge sweep SoC not strictly decreasing at sample 11",
          base="fit", config=_OCV_ONLY,
          files={"dis_i.csv": _series(np.r_[np.full(10, 12.0), 0.0, np.full(10, 12.0)])}),
    *(Fault(f"fit-huge-{name}", "fit", 3, "fit_report.json: field 'rmse_V' is not finite (inf)",
            base="fit", config={**_RC_ONLY, f"rc.{name}": 1e300}, process=name == "vc0")
      for name in ("soc0", "vc0")),
]


BY_ID = {row.id: row for row in ROWS}


def run(row, make_case, monkeypatch, capsys):
    """Run row in-process, with every warning an error, and check what it gives.

    Besides Fault.check: an exit 2 called none of COMPUTATIONS, each of
    which still runs when called.
    """
    calls = []
    for module, name in COMPUTATIONS:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    argv, line, out = row.write(make_case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    stdout, stderr = capsys.readouterr()
    row.check(code, stdout, stderr, line, out)
    if row.code == 2:
        assert calls == []


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_fault(row, make_case, monkeypatch, capsys):
    run(row, make_case, monkeypatch, capsys)
