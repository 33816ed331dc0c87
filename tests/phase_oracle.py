"""Test oracle: the per-time phase-table scan that ``synth._PhasePlan`` replaces.

``phase_at`` composes the phase table and, for one time, scans every row to
find the last one starting at or before it, then evaluates that row's ramp and
arc. ``_PhasePlan.kinematics`` and ``_PhasePlan.sample`` must give the same
floats bit for bit; the tests compare them with ``==``.
"""

from __future__ import annotations

import math

from motionkit.synth import Phase, _advance


def phase_at(phases: tuple[Phase, ...], t: float) -> tuple[float, float, float, float, float]:
    """(x, y, tangent heading, speed, cumulative distance) at time ``t``."""
    rows = []
    pose, t0, s0 = (0.0, 0.0, 0.0), 0.0, 0.0
    for ph in phases:
        length = ph.duration_s * (ph.v0 + ph.v1) / 2.0
        kappa = math.radians(ph.angle_deg) / length if length > 0 else 0.0
        rows.append((t0, pose, ph, kappa, s0))
        pose = _advance(pose, length, math.radians(ph.angle_deg))
        t0 += ph.duration_s
        s0 += length
    t = min(max(t, 0.0), t0)
    row = rows[0]
    for candidate in rows:
        if candidate[0] <= t + 1e-12:
            row = candidate
    t0, pose, ph, kappa, s0 = row
    u = min(max(t - t0, 0.0), ph.duration_s)
    accel = (ph.v1 - ph.v0) / ph.duration_s if ph.duration_s > 0 else 0.0
    s = ph.v0 * u + 0.5 * accel * u * u
    v = ph.v0 + accel * u
    x, y, h = _advance(pose, s, kappa * s)
    return x, y, h, v, s0 + s
