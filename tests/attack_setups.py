"""A hypothesis strategy for random attack set-ups, shared by the test modules."""

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
    """
    dt = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]) | st.floats(0.05, 1.0))
    n = draw(st.integers(2, 600))
    duration = dt * (n - 1)
    capacity = draw(st.floats(1.0, 20.0)) * duration
    rises = draw(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6))
    curve = OcvCurve(
        tuple(np.linspace(0.0, 1.0, len(rises) + 1)), tuple(3.0 + np.cumsum([0.0, *rises]))
    )
    cell = EcmParams(
        capacity_q=capacity,
        r0=draw(st.floats(1e-3, 5e-2)),
        r1=draw(st.floats(1e-3, 5e-2)),
        c1=draw(st.floats(50.0, 5e3)),
        ocv=curve,
    )
    weights = AttackWeights(
        q1=np.diag([draw(st.floats(0.0, 1.0)) * capacity**2, 0.0]),
        q2=np.diag([draw(st.floats(0.0, 1.0)) * capacity**2, 0.0]),
        r=draw(st.floats(1.0, 5.0)),
    )
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
