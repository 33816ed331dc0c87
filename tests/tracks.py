"""Track builders for the test suite, on the columnar model."""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from motionkit.core import AgentTrack, HorizonConfig


def make_track(
    xy: Sequence[tuple[float, float]],
    speeds: Optional[Sequence[float]] = None,
    headings: Optional[Sequence[float]] = None,
    valid: Optional[Sequence[bool]] = None,
    agent_id: str = "ego",
    agent_kind: str = "vehicle",
) -> AgentTrack:
    n = len(xy)
    return AgentTrack(
        agent_id=agent_id,
        agent_kind=agent_kind,
        t0=0,
        xy=np.asarray(xy, dtype=float).reshape(n, 2),
        headings=np.zeros(n) if headings is None else headings,
        speeds=np.zeros(n) if speeds is None else speeds,
        valid_mask=np.ones(n, dtype=bool) if valid is None else valid,
    )


def future_speed_track(
    future_speeds: Sequence[float], horizon: HorizonConfig = HorizonConfig()
) -> AgentTrack:
    """Straight-line track whose future window carries the given speed profile.

    Positions integrate the speeds along +x so geometry stays consistent; the
    observed prefix repeats the first future speed.
    """
    assert len(future_speeds) == horizon.t_pred
    speeds = np.array([future_speeds[0]] * horizon.t_obs + list(future_speeds), dtype=float)
    xs = np.concatenate(([0.0], np.cumsum(speeds[:-1] * horizon.dt)))
    return make_track(np.column_stack((xs, np.zeros_like(xs))), speeds=speeds)


def circle_track(
    radius: float,
    angle_deg: float,
    n: int,
    speed: Optional[float] = None,
    dt: float = 0.1,
) -> AgentTrack:
    """Points on a circular arc starting at the origin heading +x (CCW when
    angle_deg > 0)."""
    theta = math.radians(angle_deg)
    ts = np.linspace(0.0, theta, n)
    sign = 1.0 if theta >= 0 else -1.0
    xs = radius * np.sin(np.abs(ts))
    ys = sign * radius * (1.0 - np.cos(ts))
    arc_speed = speed if speed is not None else abs(radius * theta) / ((n - 1) * dt)
    return make_track(np.column_stack((xs, ys)), speeds=np.full(n, arc_speed), headings=ts)


def rigid_transform(track: AgentTrack, angle: float, tx: float, ty: float) -> AgentTrack:
    """Rotate the whole track about the origin and translate it."""
    c, s = math.cos(angle), math.sin(angle)
    x, y = track.xy[:, 0], track.xy[:, 1]
    h = track.headings + angle
    return dataclasses.replace(
        track,
        xy=np.column_stack((c * x - s * y + tx, s * x + c * y + ty)),
        headings=np.arctan2(np.sin(h), np.cos(h)),
    )


def mirror_track(track: AgentTrack) -> AgentTrack:
    """Reflect across the x axis (the initial-heading axis for origin-anchored tracks)."""
    return dataclasses.replace(track, xy=track.xy * (1.0, -1.0), headings=-track.headings)
