"""A hypothesis strategy for random attack set-ups, shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from voltmask import (
    AttackWeights,
    BatteryState,
    EcmParams,
    OcvCurve,
    ReferenceTrajectory,
    synthetic_profile,
)


@st.composite
def attack_setups(draw):
    """(cell, weights, reference, u_nom, x0) for synthesize_input_attack.

    The capacity is drawn as the current that moves the SoC by 1 over the
    horizon (1-20 A), and the SoC weights in units of capacity squared, so
    the injection stays within tens of amps.  S11 lies between q1 and the
    stationary sqrt(q2 r) / |b1|, so with r >= 1 the gain b1^2 S11 / r is
    at most 1.  At dt <= 1 the closed loop's h*lambda (dt times that gain)
    is then at most 1 and the sweep's (twice that) at most 2, inside the
    zero-order-hold limit of 2 and the RK4 limit of about 2.785.  Profiles
    with a large bias drive the SoC out of [0, 1] on some draws.

    About half the draws weight vc too, which the rollout steps on all
    five scalars from row 0.  Their vc weights are in units of c1 squared
    and at most a quarter of it, so the gain b2^2 S22 / r is at most 1/2,
    and their c1 keeps tau1 at 2 dt or more.  The sweep's h*lambda on the
    vc channel, dt (2 / tau1 + 2 b2^2 S22 / r), is then at most 2, and
    2 dt / tau1 alone at most 1, under the RK4 limit.  With b1 < 0 < b2,
    a negative off-diagonal weight adds to the two channels' gains:
    b' q b is a + v - 2 rho sqrt(a v) for the SoC and vc gains a and
    v and the correlation rho.  So a negative rho goes only down to where
    b' q b reaches 1, the SoC channel's own bound, which keeps the sweep's
    h*lambda at dt = 1 within what rho = 0 reaches at a = 1, v = 1/4
    (2.78); at rho = -1 the corners give b' q b = 2.25 and the sweep
    diverges.  |rho| is at most 0.9: an RK4 step from S = 0 under a
    singular q2 can leave the PSD cone.
    """
    weights_vc = draw(st.booleans())
    dt = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]) | st.floats(0.05, 1.0))
    n = draw(st.integers(2, 600))
    duration = dt * (n - 1)
    capacity = draw(st.floats(1.0, 20.0)) * duration
    rises = draw(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6))
    curve = OcvCurve(
        tuple(np.linspace(0.0, 1.0, len(rises) + 1)), tuple(3.0 + np.cumsum([0.0, *rises]))
    )
    r1 = draw(st.floats(1e-3, 5e-2))
    c1 = draw(st.floats(max(50.0, 2.0 * dt / r1) if weights_vc else 50.0, 5e3))
    cell = EcmParams(
        capacity_q=capacity, r0=draw(st.floats(1e-3, 5e-2)), r1=r1, c1=c1, ocv=curve
    )

    def weight(least_vc):
        a = draw(st.floats(0.0, 1.0))
        soc = a * capacity**2
        if not weights_vc:
            return np.diag([soc, 0.0])
        v = draw(st.floats(least_vc, 0.25))
        vc = v * c1**2
        least_rho = max(-0.9, min(0.0, (a + v - 1.0) / (2.0 * math.sqrt(a * v) or 1.0)))
        off = draw(st.floats(least_rho, 0.9)) * math.sqrt(soc * vc)
        return np.array([[soc, off], [off, vc]])

    weights = AttackWeights(q1=weight(0.0), q2=weight(1e-3), r=draw(st.floats(1.0, 5.0)))
    x0 = BatteryState(draw(st.floats(0.1, 0.9)), draw(st.floats(-0.05, 0.05)))
    ref = ReferenceTrajectory(
        soc_start=x0.soc,
        soc_target=draw(st.floats(0.0, 1.0)),
        shape=draw(st.sampled_from(["linear_ramp", "hold_target"])),
    )
    u_nom = synthetic_profile(
        draw(st.sampled_from(["constant", "sin_mix", "pulse_train"])),
        amplitude=draw(st.floats(0.0, 3.0)),
        bias=draw(st.floats(-2.0, 2.0)),
        duration=duration,
        dt=dt,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return cell, weights, ref, u_nom, x0
