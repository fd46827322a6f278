"""Acceptance gate: nine headline requirements, one test and one verdict line each.

Every scenario run here goes through the CLI entry point, exactly as a
user would invoke it.  Each test prints a single PASS/FAIL line with the
measured figure against its bound; the lines are written to the real
stdout so they survive pytest's capture.
"""

import csv
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from voltmask import (
    AttackWeights,
    BatteryState,
    ReferenceTrajectory,
    TimeSeries,
    add,
    build_reference,
    extract_ocv,
    fit_rc,
    load_scenario,
    prepare,
    run_scenario,
    simulate,
    solve_riccati,
    synthesize_input_attack,
    synthetic_profile,
)
from voltmask.cli import main as cli_main
from voltmask.ecm import _ocv_array, load_params

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
PARAMS = REPO / "params" / "paper_cell.json"
TC_NAMES = ("tc1", "tc2", "tc3", "tc4")


@pytest.fixture()
def report(capfd):
    """Verdict printer whose lines bypass output capture, then assert."""

    def _report(num, name, ok, detail):
        line = f"acceptance {num} {'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return {name: data[:, j] for j, name in enumerate(rows[0])}


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """One timed CLI run per shipped adversary scenario."""
    runs = {}
    for name in TC_NAMES:
        out = tmp_path_factory.mktemp(f"run_{name}")
        start = time.perf_counter()
        code = cli_main(
            ["scenario", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(out)]
        )
        elapsed = time.perf_counter() - start
        assert code == 0, f"{name} exited {code}"
        runs[name] = {
            "out": out,
            "elapsed": elapsed,
            "summary": json.loads((out / "summary.json").read_text()),
        }
    return runs


def test_1_exact_masking(scenario_runs, report):
    """Plant identical to the adversary model, no noise: masking is exact."""
    worst = 0.0
    slowest = 0.0
    for name in TC_NAMES:
        cols = read_columns(scenario_runs[name]["out"] / "attack.csv")
        resid = np.abs(cols["y_measured"] - cols["y_nom"]).max()
        worst = max(worst, resid)
        slowest = max(slowest, scenario_runs[name]["elapsed"])
    ok = worst <= 1e-9 and slowest < 1.0
    report(
        1,
        "exact masking",
        ok,
        f"max|y_measured - y_nom| {worst:.3e} V (bound 1e-9), slowest run {slowest:.2f} s (bound 1 s)",
    )


# --- independent discrete-time oracle for the sweep ----------------------


def zoh_discretize(params, dt):
    tau = params.r1 * params.c1
    alpha = math.exp(-dt / tau)
    ad = np.array([[1.0, 0.0], [0.0, alpha]])
    bd = np.array([-dt / params.capacity_q, params.r1 * (1.0 - alpha)])
    return ad, bd


def dp_tracking(ad, bd, q1, q2, r, dt, xref, unom, x0):
    """Backward value recursion for the discrete LQ tracker; returns u (N,)."""
    n_nodes = xref.shape[0]
    N = n_nodes - 1
    P = q1.copy()
    q = q1 @ xref[-1]
    Ks = np.empty((N, 2))
    k0s = np.empty(N)
    qt = q2 * dt
    rt = r * dt
    for k in range(N - 1, -1, -1):
        d = bd * unom[k]
        h = rt + bd @ P @ bd
        K = (bd @ P @ ad) / h
        k0 = (bd @ (P @ d - q)) / h
        acl = ad - np.outer(bd, K)
        qnew = qt @ xref[k] + acl.T @ (q - P @ d)
        P = qt + ad.T @ P @ ad - np.outer(ad.T @ P @ bd, K)
        P = 0.5 * (P + P.T)
        q = qnew
        Ks[k] = K
        k0s[k] = k0
    x = np.array([x0.soc, x0.vc])
    u = np.empty(N)
    for k in range(N):
        u[k] = -(Ks[k] @ x) - k0s[k]
        x = ad @ x + bd * (u[k] + unom[k])
    return u


def qp_tracking(ad, bd, q1, q2, r, dt, xref, unom, x0):
    """Dense quadratic solve over the stacked control vector (independent route)."""
    n_nodes = xref.shape[0]
    N = n_nodes - 1
    F = [np.eye(2)]
    for _ in range(N):
        F.append(ad @ F[-1])
    G = np.zeros((n_nodes, N, 2))
    for k in range(1, n_nodes):
        for j in range(k):
            G[k, j] = np.linalg.matrix_power(ad, k - 1 - j) @ bd
    drift = np.zeros((n_nodes, 2))
    for k in range(1, n_nodes):
        drift[k] = ad @ drift[k - 1] + bd * unom[k - 1]
    xfree = np.array([F[k] @ np.array([x0.soc, x0.vc]) + drift[k] for k in range(n_nodes)])
    H = np.zeros((N, N))
    g = np.zeros(N)
    for k in range(n_nodes):
        W = q1 if k == N else q2 * dt
        if not W.any():
            continue
        Gk = G[k]
        H += Gk @ W @ Gk.T
        g += Gk @ W @ (xfree[k] - xref[k])
    H += np.eye(N) * r * dt
    return np.linalg.solve(H, -g)


def test_2_riccati_matches_dp_oracle(report):
    """Continuous sweep vs discrete dynamic programming on a 50-step problem."""
    start = time.perf_counter()
    params = load_params(PARAMS)
    dt_coarse = 2.0
    N = 50
    duration = N * dt_coarse
    x0 = BatteryState(0.6, 0.0)
    unom_val = 2.5
    q1 = np.diag([1e6, 0.0])
    q2 = np.diag([50.0, 0.0])
    r = 1.0
    ref = ReferenceTrajectory(0.6, 0.55, "linear_ramp")

    xref_c = build_reference(ref, N + 1)
    ad, bd = zoh_discretize(params, dt_coarse)
    unom_c = np.full(N + 1, unom_val)
    u_dp = dp_tracking(ad, bd, q1, q2, r, dt_coarse, xref_c, unom_c, x0)
    u_qp = qp_tracking(ad, bd, q1, q2, r, dt_coarse, xref_c, unom_c, x0)
    cross = np.abs(u_dp - u_qp).max() / np.abs(u_qp).max()
    assert cross <= 1e-10, f"oracle self-check failed: dp vs qp {cross:.3e}"

    dt_fine = 0.01
    u_nom_fine = synthetic_profile("constant", 0.0, unom_val, duration, dt_fine)
    atk = synthesize_input_attack(
        params, AttackWeights(q1=q1, q2=q2, r=r), ref, u_nom_fine, x0
    )
    stride = int(round(dt_coarse / dt_fine))
    u_cont = atk.u_a.samples[::stride][:N]
    dev = np.abs(u_cont - u_dp).max() / np.abs(u_dp).max()
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-3 and elapsed < 5.0
    report(
        2,
        "riccati vs dp oracle",
        ok,
        f"sup relative deviation {dev:.3e} (bound 1e-3), {elapsed:.2f} s (bound 5 s)",
    )


def test_3_objective_attainment(scenario_runs, report):
    """Attacked SoC hits the target band while the nominal run stays put."""
    targets = {"tc1": 0.2, "tc2": 0.2, "tc3": 0.8, "tc4": 0.8}
    details = []
    ok = True
    for name in TC_NAMES:
        s = scenario_runs[name]["summary"]
        elapsed = scenario_runs[name]["elapsed"]
        hit = (
            abs(s["final_soc_attacked"] - targets[name]) <= 0.02
            and abs(s["final_soc_nominal"] - 0.5) <= 0.005
            and elapsed < 5.0
        )
        ok = ok and hit
        details.append(
            f"{name} attacked {s['final_soc_attacked']:.4f}->"
            f"{targets[name]} nominal {s['final_soc_nominal']:.4f} in {elapsed:.2f} s"
        )
    report(3, "objective attainment", ok, "; ".join(details))


def test_4_ka_sensitivity(tmp_path, report):
    """With r0 mismatched +20 percent the best masking gain is negative."""
    out = tmp_path / "sweep"
    code = cli_main(
        ["sweep", "--config", str(SCENARIOS / "tc1_mismatch.json"), "--out", str(out)]
    )
    assert code == 0
    cols = read_columns(out / "sweep.csv")
    rows = dict(zip(cols["k_a"], cols["residual_rms_V"]))
    assert set(rows) == {-0.1, -0.05, 0.0, 0.05, 0.1}
    argmin_ka = min(rows, key=rows.get)
    ok = argmin_ka < 0.0 and rows[argmin_ka] < rows[0.0]
    report(
        4,
        "masking gain sensitivity",
        ok,
        f"argmin k_a {argmin_ka} (rms {rows[argmin_ka]:.3e} V) vs k_a=0 rms {rows[0.0]:.3e} V",
    )


def test_5_coulomb_exactness(report):
    """Final SoC equals soc0 - (dt/Q) * sum(i) to 1e-12 on every simulation."""
    worst = 0.0
    for name in TC_NAMES:
        prep = prepare(load_scenario(SCENARIOS / f"{name}.json"))
        run = run_scenario(prep)
        q = prep.plant.true_params.capacity_q
        u_total = add(prep.u_nom, run.input_attack.u_a)
        for soc_final, profile in (
            (run.stealth.plant_nominal.soc[-1], prep.u_nom),
            (run.stealth.plant_attacked.soc[-1], u_total),
            (run.input_attack.model.soc[-1], u_total),
        ):
            expected = prep.x0.soc - profile.dt / q * math.fsum(profile.samples[:-1].tolist())
            worst = max(worst, abs(soc_final - expected) / abs(expected))
    ok = worst <= 1e-12
    report(5, "coulomb exactness", ok, f"worst relative error {worst:.3e} (bound 1e-12)")


def test_6_riccati_structure(report):
    """S stays symmetric and PSD; terminal conditions are bit-exact."""
    params = load_params(PARAMS)
    cases = []
    prep = prepare(load_scenario(SCENARIOS / "tc1.json"))
    cases.append((params, prep.weights, prep.reference, prep.u_nom))
    # a fully coupled weight pair so the off-diagonal channel is exercised
    u_nom = synthetic_profile("sin_mix", 1.5, 2.0, 500.0, 1.0, seed=4)
    cases.append(
        (
            params,
            AttackWeights(
                q1=np.array([[4.0, 0.8], [0.8, 1.0]]),
                q2=np.array([[1.5, 0.2], [0.2, 0.4]]),
                r=0.7,
            ),
            ReferenceTrajectory(0.6, 0.4),
            u_nom,
        )
    )
    worst_sym = 0.0
    worst_eig = 0.0
    terminal_exact = True
    for cell, weights, ref, profile in cases:
        sol = solve_riccati(cell, weights, ref, profile)
        worst_sym = max(worst_sym, float(np.abs(sol.s - np.transpose(sol.s, (0, 2, 1))).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(sol.s).min()))
        xref = build_reference(ref, len(profile))
        terminal_exact = (
            terminal_exact
            and np.array_equal(sol.s[-1], weights.q1)
            and np.array_equal(sol.v[-1], weights.q1 @ xref[-1])
        )
    ok = worst_sym <= 1e-9 and worst_eig >= -1e-9 and terminal_exact
    report(
        6,
        "riccati structure",
        ok,
        f"max asymmetry {worst_sym:.1e} (bound 1e-9), min eigenvalue {worst_eig:.1e} "
        f"(bound -1e-9), terminal bit-exact {terminal_exact}",
    )


def test_7_zero_attack_identity(report):
    """Zero weights synthesize a zero injection and change nothing."""
    params = load_params(PARAMS)
    prep = prepare(load_scenario(SCENARIOS / "tc1.json"))
    weights = AttackWeights(q1=np.zeros((2, 2)), q2=np.zeros((2, 2)), r=1.0)
    atk = synthesize_input_attack(params, weights, prep.reference, prep.u_nom, prep.x0)
    nominal = simulate(params, prep.x0, prep.u_nom)
    attacked = simulate(params, prep.x0, add(prep.u_nom, atk.u_a))
    ok = (
        (atk.u_a.samples == 0.0).all()
        and np.array_equal(atk.model.soc, nominal.soc)
        and np.array_equal(atk.model.vc, nominal.vc)
        and np.array_equal(attacked.soc, nominal.soc)
        and np.array_equal(attacked.voltage.samples, nominal.voltage.samples)
    )
    report(7, "zero-attack identity", ok, "u_a all zero and trajectories bit-identical")


def test_8_sysid_round_trips(report):
    """Parameter and OCV identification recover the generating cell."""
    start = time.perf_counter()
    cell = load_params(PARAMS)

    current = synthetic_profile("sin_mix", 4.0, 0.5, 1500.0, 1.0, seed=9)
    x0 = BatteryState(0.55, 0.0)
    voltage = simulate(cell, x0, current).voltage
    perturbed = dataclasses.replace(
        cell, r0=cell.r0 * 1.5, r1=cell.r1 * 1.5, c1=cell.c1 * 1.5
    )
    fit = fit_rc(perturbed, (current, voltage), frozen={"capacity_q"}, x0=x0)
    rc_errs = {
        name: abs(getattr(fit.fitted, name) / getattr(cell, name) - 1.0)
        for name in ("r0", "r1", "c1")
    }

    amp, dt = 0.2, 4.0
    n = int(cell.capacity_q / amp / dt) + 1
    chg_i = TimeSeries(0.0, dt, np.full(n, -amp))
    dis_i = TimeSeries(0.0, dt, np.full(n, amp))
    chg_v = simulate(cell, BatteryState(0.0, 0.0), chg_i).voltage
    dis_v = simulate(cell, BatteryState(1.0, 0.0), dis_i).voltage
    grid = np.linspace(0.0, 1.0, 401)

    clean = extract_ocv((chg_i, chg_v), (dis_i, dis_v), cell.capacity_q)
    err_clean = np.abs(_ocv_array(clean, grid) - _ocv_array(cell.ocv, grid)).max()

    rng = np.random.default_rng(12)
    noisy = extract_ocv(
        (chg_i, chg_v.with_samples(chg_v.samples + 1e-3 * rng.standard_normal(n))),
        (dis_i, dis_v.with_samples(dis_v.samples + 1e-3 * rng.standard_normal(n))),
        cell.capacity_q,
    )
    err_noisy = np.abs(_ocv_array(noisy, grid) - _ocv_array(cell.ocv, grid)).max()

    elapsed = time.perf_counter() - start
    ok = (
        max(rc_errs.values()) <= 0.05
        and err_clean <= 2e-3
        and err_noisy <= 5e-3
        and elapsed < 30.0
    )
    report(
        8,
        "sysid round trips",
        ok,
        f"r0/r1/c1 errors {rc_errs['r0']:.2e}/{rc_errs['r1']:.2e}/{rc_errs['c1']:.2e} "
        f"(bound 5e-2), ocv {err_clean * 1e3:.2f} mV clean (bound 2) / "
        f"{err_noisy * 1e3:.2f} mV noisy (bound 5), {elapsed:.1f} s (bound 30 s)",
    )


def test_9_byte_determinism(tmp_path, report):
    """Identical config and seed give byte-identical outputs on every rerun."""
    # a noisy mismatch variant exercises the seeded noise path end to end
    raw = json.loads((SCENARIOS / "tc1_mismatch.json").read_text())
    raw["params_file"] = str(PARAMS)
    raw["plant_overrides"]["noise_std"] = 1e-3
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps(raw))

    outs = [tmp_path / f"s{i}" for i in (1, 2)]
    for out in outs:
        code = cli_main(
            ["scenario", "--config", str(config), "--out", str(out), "--seed", "3"]
        )
        assert code == 0
    scenario_same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("attack.csv", "riccati.csv", "summary.json")
    )

    sweep_outs = [tmp_path / f"w{i}" for i in (1, 2)]
    for out in sweep_outs:
        code = cli_main(
            ["sweep", "--config", str(config), "--out", str(out), "--seed", "3"]
        )
        assert code == 0
    sweep_same = (
        (sweep_outs[0] / "sweep.csv").read_bytes()
        == (sweep_outs[1] / "sweep.csv").read_bytes()
    )
    ok = scenario_same and sweep_same
    report(
        9,
        "byte determinism",
        ok,
        f"scenario reruns identical {scenario_same}, sweep reruns identical {sweep_same}",
    )
