"""Workload inputs, made from a seed, and checks of the program's outputs.

Every check compares an output of the CLI with a value the benchmark
computes itself: its own zero-order-hold recurrence (scipy's ``lfilter``
for the RC branch, an extended-precision running sum for the coulomb
count), its own OCV interpolation, scipy's continuous algebraic Riccati
solver and the closed form of the terminal-only Riccati solution.  No
check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_continuous_are
from scipy.signal import lfilter

ROOT = Path(__file__).resolve().parent.parent
CELL_FILE = ROOT / "params" / "paper_cell.json"

# Tones of a sin_mix profile (cycles over the span, weights); the same
# definition as the program's synthetic_profile, written out here so the
# benchmark can check the u_nom column it did not generate itself.
SIN_MIX_CYCLES = (3.0, 7.0, 13.0)
SIN_MIX_WEIGHTS = (0.5, 0.3, 0.2)

# tc1 / tc1_mismatch cell weights and gain; tc3's profile magnitude.
TC_WEIGHTS = {"q1": [1e7, 0.0], "q2": [2e5, 0.0], "r": 1.0}
TC_BIAS = 2.1483
TC_AMPLITUDE = 2.0
TC_DURATION = 2000.0
NOISE_STD = 1e-3
SWEEP_GAINS = tuple(round(-0.9 + 0.025 * i, 3) for i in range(41))


# ---------------------------------------------------------------- cell model


@dataclass(frozen=True)
class Cell:
    capacity: float
    r0: float
    r1: float
    c1: float
    ocv_soc: np.ndarray
    ocv_v: np.ndarray

    @classmethod
    def from_json(cls, raw: dict) -> "Cell":
        pairs = np.array(raw["ocv"], dtype=float)
        return cls(
            float(raw["capacity_As"]),
            float(raw["r0_ohm"]),
            float(raw["r1_ohm"]),
            float(raw["c1_farad"]),
            pairs[:, 0],
            pairs[:, 1],
        )

    def to_json(self, **scale) -> dict:
        return {
            "capacity_As": self.capacity,
            "r0_ohm": self.r0 * scale.get("r0", 1.0),
            "r1_ohm": self.r1 * scale.get("r1", 1.0),
            "c1_farad": self.c1 * scale.get("c1", 1.0),
            "ocv": [[float(s), float(v)] for s, v in zip(self.ocv_soc, self.ocv_v)],
        }

    def ocv(self, soc: np.ndarray) -> np.ndarray:
        """Piecewise-linear OCV with the end segments extended."""
        s, v = self.ocv_soc, self.ocv_v
        out = np.interp(soc, s, v)
        lo, hi = soc < s[0], soc > s[-1]
        out[lo] = v[0] + (v[1] - v[0]) / (s[1] - s[0]) * (soc[lo] - s[0])
        out[hi] = v[-1] + (v[-1] - v[-2]) / (s[-1] - s[-2]) * (soc[hi] - s[-1])
        return out

    def simulate(self, soc0: float, current: np.ndarray, dt: float):
        """Exact zero-order hold from (soc0, vc=0); returns (soc, vc, volts)."""
        alpha = math.exp(-dt / (self.r1 * self.c1))
        charge = np.concatenate(([0.0], np.cumsum(current[:-1], dtype=np.longdouble)))
        soc = (soc0 - (dt / self.capacity) * charge).astype(float)
        vc = lfilter([0.0, self.r1 * (1.0 - alpha)], [1.0, -alpha], current)
        return soc, vc, self.ocv(soc) - vc - self.r0 * current


def load_cell() -> Cell:
    return Cell.from_json(json.loads(CELL_FILE.read_text()))


def sin_mix(amplitude, bias, duration, dt, phase_seed) -> np.ndarray:
    n = int(math.floor(duration / dt + 1e-9)) + 1
    t = dt * np.arange(n)
    span = dt * (n - 1)
    phases = np.random.default_rng(phase_seed).uniform(0.0, 2.0 * np.pi, size=3)
    out = np.full(n, float(bias))
    for cycles, weight, phase in zip(SIN_MIX_CYCLES, SIN_MIX_WEIGHTS, phases):
        out = out + amplitude * weight * np.sin(2.0 * np.pi * cycles * t / span + phase)
    return out


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def write_series(path: Path, dt: float, values: np.ndarray) -> None:
    rows = [f"{k * dt!r},{float(v)!r}" for k, v in enumerate(values)]
    path.write_text("time_s,value\n" + "\n".join(rows) + "\n")


def read_table(path: Path, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        got = fh.readline().strip().split(",")
    if got != header:
        raise CheckFailed(f"{path.name}: header {got} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ workloads


@dataclass
class Case:
    """One config the command runs on, with what the checks need."""

    config: Path
    ref: dict = field(default_factory=dict)


class Workload:
    """A set of generated inputs, the command run on them, and its checks.

    ``size`` shrinks or grows the input for the smoke mode and the
    scaling reference; the benchmark proper runs each workload at its
    default size.
    """

    name = ""
    command = ""

    def __init__(self, **size):
        self.size = size

    def make(self, seed: int, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def prepare_refs(self, cases: list[Case]) -> None:
        """Compute, once per run, what the checks compare against."""

    def check(self, case: Case, out: Path, stdout: str) -> None:
        raise NotImplementedError

    @staticmethod
    def seeds(seed: int, count: int) -> list[int]:
        return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


class ScenarioLong(Workload):
    """``voltmask scenario`` on the tc1_mismatch cell over a long horizon.

    Over-discharge 0.8 -> 0.2 at dt = 1 s; bias and amplitude scale with
    2000 s / duration so the nominal SoC still ends at 0.5.
    """

    name = "scenario-long"
    command = "scenario"

    def make(self, seed, workdir):
        cell = load_cell()
        n = self.size.get("n", 50_001)
        duration = float(n - 1)
        scale = TC_DURATION / duration
        profile_seed, noise_seed = self.seeds(seed, 2)
        write_json(workdir / "cell.json", cell.to_json())
        config = workdir / "scenario.json"
        write_json(
            config,
            {
                "params_file": "cell.json",
                "dt": 1.0,
                "weights": TC_WEIGHTS,
                "k_a": -0.05,
                "i_max": 30.0,
                "x0": {"soc": 0.8, "vc": 0.0},
                "profile": {
                    "kind": "sin_mix",
                    "amplitude": TC_AMPLITUDE * scale,
                    "bias": TC_BIAS * scale,
                    "duration": duration,
                    "seed": profile_seed,
                },
                "reference": {"shape": "linear_ramp", "soc_target": 0.2},
                "plant_overrides": {
                    "r0_ohm": cell.r0 * 1.2,
                    "noise_std": NOISE_STD,
                    "seed": noise_seed,
                },
            },
        )
        plant = Cell(cell.capacity, cell.r0 * 1.2, cell.r1, cell.c1, cell.ocv_soc, cell.ocv_v)
        u_nom = sin_mix(TC_AMPLITUDE * scale, TC_BIAS * scale, duration, 1.0, profile_seed)
        return [Case(config, {"cell": cell, "plant": plant, "u_nom": u_nom})]

    def prepare_refs(self, cases):
        for case in cases:
            ref = case.ref
            cell, plant = ref["cell"], ref["plant"]
            ref["y_plant_nominal"] = plant.simulate(0.8, ref["u_nom"], 1.0)[2]
            a = np.array([[0.0, 0.0], [0.0, -1.0 / (cell.r1 * cell.c1)]])
            b = np.array([[-1.0 / cell.capacity], [1.0 / cell.c1]])
            q2 = np.diag(TC_WEIGHTS["q2"])
            ref["s_care"] = solve_continuous_are(a, b, q2, np.array([[TC_WEIGHTS["r"]]]))

    def check(self, case, out, stdout):
        ref = case.ref
        cell = ref["cell"]
        n = ref["u_nom"].size
        cols = [
            "t", "u_nom", "u_a", "i_applied", "soc_nominal", "soc_attacked",
            "y_nom", "y_plant", "y_a", "y_measured",
        ]  # fmt: skip
        atk = dict(zip(cols, read_table(out / "attack.csv", cols).T))
        expect(atk["t"].size == n, f"attack.csv has {atk['t'].size} rows, expected {n}")
        expect(np.array_equal(atk["t"], np.arange(n, dtype=float)), "attack.csv: t != k*dt")
        expect(
            np.abs(atk["u_nom"] - ref["u_nom"]).max() <= 1e-9,
            "attack.csv: u_nom differs from the configured sin_mix profile",
        )
        expect(
            np.array_equal(atk["i_applied"], atk["u_nom"] + atk["u_a"]),
            "attack.csv: i_applied != u_nom + u_a",
        )
        expect(
            np.array_equal(atk["y_measured"], atk["y_plant"] + atk["y_a"]),
            "attack.csv: y_measured != y_plant + y_a",
        )
        for soc_col, cur_col in (("soc_attacked", "i_applied"), ("soc_nominal", "u_nom")):
            counted = 0.8 - (1.0 / cell.capacity) * math.fsum(atk[cur_col][:-1])
            final = atk[soc_col][-1]
            expect(
                abs(final - counted) <= 1e-12 * abs(counted),
                f"{soc_col} ends at {final!r}, coulomb count gives {counted!r}",
            )
        expect(abs(atk["soc_attacked"][-1] - 0.2) <= 0.02, "attacked SoC misses 0.2 by > 0.02")
        expect(abs(atk["soc_nominal"][-1] - 0.5) <= 0.005, "nominal SoC misses 0.5 by > 0.005")

        summary = json.loads((out / "summary.json").read_text())
        expect(summary["final_soc_attacked"] == atk["soc_attacked"][-1], "summary SoC != csv")
        expect(summary["final_soc_nominal"] == atk["soc_nominal"][-1], "summary SoC != csv")
        residual = rms(atk["y_measured"] - ref["y_plant_nominal"])
        expect(
            abs(summary["residual_rms_V"] - residual) <= 1e-9,
            f"residual_rms_V {summary['residual_rms_V']!r} != recomputed {residual!r}",
        )
        expect(
            f"residual_rms {summary['residual_rms_V']:.6e} V" in stdout,
            "printed residual does not match summary.json",
        )

        ric = read_table(out / "riccati.csv", ["t", "s11", "s12", "s22", "v1", "v2"])
        expect(ric.shape[0] == n, f"riccati.csv has {ric.shape[0]} rows, expected {n}")
        q1 = TC_WEIGHTS["q1"]
        xref_tf = 0.8 + (0.2 - 0.8) * 1.0
        terminal = [float(n - 1), q1[0], 0.0, q1[1], q1[0] * xref_tf + 0.0 * 0.0, 0.0]
        expect(ric[-1].tolist() == terminal, f"riccati terminal row {ric[-1].tolist()}")
        s11, s12, s22 = ric[:, 1], ric[:, 2], ric[:, 3]
        tol = 1e-9 * np.maximum(1.0, np.abs(ric[:, 1:4]).max(axis=1))
        expect(
            bool(((s11 >= -tol) & (s22 >= -tol) & (s11 * s22 - s12 * s12 >= -tol * tol)).all()),
            "riccati.csv: a row is not positive semidefinite",
        )
        care = ref["s_care"]
        row0 = np.array([[s11[0], s12[0]], [s12[0], s22[0]]])
        err = np.abs(row0 - care).max() / np.abs(care).max()
        expect(err <= 1e-9, f"riccati row 0 differs from the CARE solution by {err:.1e}")


class SweepFine(Workload):
    """``voltmask sweep`` on a tc3-like over-charge at a fine step.

    Terminal-only weights give S11(t) = 1/(1/q1 + b1^2 (tf - t) / r),
    which never settles, so every sweep step does full work.
    """

    name = "sweep-fine"
    command = "sweep"
    Q1, R = 1e7, 1.0

    def make(self, seed, workdir):
        cell = load_cell()
        dt = self.size.get("dt", 0.5)
        profile_seed, noise_seed = self.seeds(seed, 2)
        write_json(workdir / "cell.json", cell.to_json())
        config = workdir / "sweep.json"
        write_json(
            config,
            {
                "params_file": "cell.json",
                "dt": dt,
                "weights": {"q1": [self.Q1, 0.0], "q2": [0.0, 0.0], "r": self.R},
                "k_a": -0.05,
                "i_max": 30.0,
                "ka_values": list(SWEEP_GAINS),
                "x0": {"soc": 0.2, "vc": 0.0},
                "profile": {
                    "kind": "sin_mix",
                    "amplitude": TC_AMPLITUDE,
                    "bias": -TC_BIAS,
                    "duration": TC_DURATION,
                    "seed": profile_seed,
                },
                "reference": {"shape": "linear_ramp", "soc_target": 0.8},
                "plant_overrides": {
                    "r0_ohm": cell.r0 * 1.2,
                    "r1_ohm": cell.r1 * 1.1,
                    "noise_std": NOISE_STD,
                    "seed": noise_seed,
                },
            },
        )
        plant = Cell(cell.capacity, cell.r0 * 1.2, cell.r1 * 1.1, cell.c1, cell.ocv_soc, cell.ocv_v)
        return [Case(config, {"cell": cell, "plant": plant, "dt": dt})]

    def prepare_refs(self, cases):
        # The injection u_a comes from the library; everything scored
        # against it below is the benchmark's own computation.
        sys.path.insert(0, str(ROOT / "src"))
        from voltmask.attack import solve_riccati, synthesize_input_attack
        from voltmask.scenario import load_scenario, prepare

        for case in cases:
            ref = case.ref
            prep = prepare(load_scenario(case.config))
            ric = solve_riccati(prep.adv_params, prep.weights, prep.reference, prep.u_nom)
            b1 = -1.0 / ref["cell"].capacity
            closed = 1.0 / (1.0 / self.Q1 + b1 * b1 * (ric.grid[-1] - ric.grid[0]) / self.R)
            err = abs(ric.s[0, 0, 0] - closed) / closed
            expect(err <= 1e-9, f"S11(0) differs from the closed form by {err:.1e}")
            expect(
                not ric.s[:, 0, 1].any() and not ric.s[:, 1, 1].any(),
                "S12 or S22 is nonzero under terminal-only weights",
            )
            atk = synthesize_input_attack(
                prep.adv_params, prep.weights, prep.reference, prep.u_nom, prep.x0, prep.i_max
            )
            u_nom, u_a = prep.u_nom.samples, atk.u_a.samples
            dt = ref["dt"]
            cell, plant = ref["cell"], ref["plant"]
            soc_att, _, m_att = cell.simulate(0.2, u_nom + u_a, dt)
            expect(abs(soc_att[-1] - 0.8) <= 0.02, f"attacked model SoC ends at {soc_att[-1]}")
            p_att = plant.simulate(0.2, u_nom + u_a, dt)[2]
            p_nom = plant.simulate(0.2, u_nom, dt)[2]
            m_nom = cell.simulate(0.2, u_nom, dt)[2]
            ref["mismatch"] = (p_att - m_att, p_nom - m_nom)

    def check(self, case, out, stdout):
        rows = read_table(out / "sweep.csv", ["k_a", "residual_rms_V"])
        expect(rows[:, 0].tolist() == sorted(SWEEP_GAINS), "sweep.csv gains != sorted gains")
        mis_att, mis_nom = case.ref["mismatch"]
        for ka, got in rows:
            clean = rms(mis_att / (1.0 - ka) - mis_nom)
            expect(
                abs(got - clean) <= 1.05 * NOISE_STD / abs(1.0 - ka),
                f"k_a={ka}: residual {got!r} is outside the noise envelope of {clean!r}",
            )
        best = min(rows.tolist(), key=lambda row: (row[1], abs(row[0]), row[0]))
        match = re.search(r"argmin k_a = (\S+) \(residual_rms = (\S+) V\)", stdout)
        expect(match is not None, f"no argmin line in {stdout!r}")
        expect(float(match.group(1)) == best[0], f"printed argmin {match.group(1)} != {best[0]}")
        expect(match.group(2) == f"{best[1]:.6e}", "printed argmin residual != smallest row")


class FitRc(Workload):
    """``voltmask fit`` with an OCV block and an RC block.

    Each case has its own excitation record; the OCV sweeps are shared.
    The fit's iteration count varies by about 15% from one noise draw to
    the next, so a run fits 10 records drawn from its seed and reports
    the mean over them.
    """

    name = "fit-rc"
    command = "fit"
    SOC0 = 0.55

    def make(self, seed, workdir):
        cell = load_cell()
        cases_n = self.size.get("cases", 10)
        ocv_dt = self.size.get("ocv_dt", 4.0)
        write_json(workdir / "initial.json", cell.to_json(r0=1.5, r1=1.5, c1=1.5))
        amp = 0.2
        n = int(cell.capacity / amp / ocv_dt) + 1
        for name, current, soc0 in (("chg", -amp, 0.0), ("dis", amp, 1.0)):
            i = np.full(n, current)
            write_series(workdir / f"{name}_i.csv", ocv_dt, i)
            write_series(workdir / f"{name}_v.csv", ocv_dt, cell.simulate(soc0, i, ocv_dt)[2])
        cases = []
        for j, sub in enumerate(self.seeds(seed, cases_n)):
            phase_seed, noise_seed = self.seeds(sub, 2)
            current = sin_mix(4.0, 0.5, 1500.0, 1.0, phase_seed)
            volts = cell.simulate(self.SOC0, current, 1.0)[2]
            volts = volts + NOISE_STD * np.random.default_rng(noise_seed).standard_normal(volts.size)
            write_series(workdir / f"exc{j}_i.csv", 1.0, current)
            write_series(workdir / f"exc{j}_v.csv", 1.0, volts)
            config = workdir / f"fit{j}.json"
            write_json(
                config,
                {
                    "initial_params_file": "initial.json",
                    "ocv": {
                        "charge_current_csv": "chg_i.csv",
                        "charge_voltage_csv": "chg_v.csv",
                        "discharge_current_csv": "dis_i.csv",
                        "discharge_voltage_csv": "dis_v.csv",
                        "dt": ocv_dt,
                    },
                    "rc": {
                        "current_csv": f"exc{j}_i.csv",
                        "voltage_csv": f"exc{j}_v.csv",
                        "dt": 1.0,
                        "frozen": ["capacity_q"],
                        "soc0": self.SOC0,
                        "vc0": 0.0,
                    },
                },
            )
            cases.append(Case(config, {"cell": cell, "current": current, "volts": volts}))
        return cases

    def check(self, case, out, stdout):
        cell = case.ref["cell"]
        fitted = Cell.from_json(json.loads((out / "fitted_params.json").read_text()))
        expect(fitted.capacity == cell.capacity, "frozen capacity changed")
        for name in ("r0", "r1", "c1"):
            err = abs(getattr(fitted, name) / getattr(cell, name) - 1.0)
            expect(err <= 0.05, f"fitted {name} is {err:.1%} off the generating cell")
        grid = np.linspace(0.0, 1.0, 401)
        ocv_err = np.abs(fitted.ocv(grid) - cell.ocv(grid)).max()
        expect(ocv_err <= 5e-3, f"refitted OCV is {ocv_err * 1e3:.2f} mV off")
        report = json.loads((out / "fit_report.json").read_text())
        expect(report["converged"] is True, "fit did not converge")
        expect(report["rmse_V"] <= 1.2e-3, f"fit rmse {report['rmse_V']} V > 1.2 mV")
        resim = rms(fitted.simulate(self.SOC0, case.ref["current"], 1.0)[2] - case.ref["volts"])
        expect(
            abs(resim - report["rmse_V"]) <= 1e-9,
            f"fit rmse {report['rmse_V']!r} != recomputed {resim!r}",
        )
        expect(f"after {report['iterations']} iterations" in stdout, "printed iterations differ")


WORKLOADS = {w.name: w for w in (ScenarioLong, SweepFine, FitRc)}
