"""Direction, speed, and acceleration classification of a focal agent's motion.

Direction classes come from the relative heading between the window's first and
last samples plus the lateral offset of the endpoint in the frame of the window
start. Speed and acceleration categories are half-open bands over km/h values;
acceleration is measured as the signed speed change normalized to an 8 s
window.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import MPS_TO_KMH, AgentTrack, HorizonConfig, TrajectoryPoint
from .errors import InsufficientPoints, NegativeSpeed
from .geometry import EPSILON_DISP, wrap_angle


class FineDirection(enum.Enum):
    STATIONARY = "Stationary"
    STRAIGHT = "Straight"
    STRAIGHT_VEER_LEFT = "StraightVeerLeft"
    STRAIGHT_VEER_RIGHT = "StraightVeerRight"
    LEFT_TURN = "LeftTurn"
    RIGHT_TURN = "RightTurn"
    LEFT_U_TURN = "LeftUTurn"
    RIGHT_U_TURN = "RightUTurn"


class DirectionLabel(enum.Enum):
    STATIONARY = "Stationary"
    STRAIGHT = "Straight"
    RIGHT = "Right"
    LEFT = "Left"
    LEFT_U_TURN = "LeftUTurn"


class SpeedCategory(enum.Enum):
    VERY_SLOW = "VerySlow"
    SLOW = "Slow"
    MODERATE = "Moderate"
    FAST = "Fast"
    VERY_FAST = "VeryFast"


class AccelCategory(enum.Enum):
    CONSTANT = "Constant"
    MILD_ACCEL = "MildAccel"
    MODERATE_ACCEL = "ModerateAccel"
    AGGRESSIVE_ACCEL = "AggressiveAccel"
    EXTREME_ACCEL = "ExtremeAccel"
    MILD_DECEL = "MildDecel"
    MODERATE_DECEL = "ModerateDecel"
    AGGRESSIVE_DECEL = "AggressiveDecel"
    EXTREME_DECEL = "ExtremeDecel"


#: Upper thresholds (km/h) of VerySlow / Slow / Moderate / Fast; VeryFast is open-ended.
SPEED_THRESHOLDS_KMH: tuple[float, ...] = (20.0, 40.0, 90.0, 120.0)

#: |delta v| thresholds (km/h change over 8 s) separating Constant / Mild /
#: Moderate / Aggressive / Extreme.
ACCEL_THRESHOLDS_KMH: tuple[float, ...] = (6.0, 25.0, 46.0, 65.0)

#: Reference window for the acceleration table; shorter windows are rescaled to it.
REFERENCE_WINDOW_S = 8.0

DEFAULT_COLLAPSE: dict[FineDirection, DirectionLabel] = {
    FineDirection.STATIONARY: DirectionLabel.STATIONARY,
    FineDirection.STRAIGHT: DirectionLabel.STRAIGHT,
    FineDirection.STRAIGHT_VEER_LEFT: DirectionLabel.STRAIGHT,
    FineDirection.STRAIGHT_VEER_RIGHT: DirectionLabel.STRAIGHT,
    FineDirection.LEFT_TURN: DirectionLabel.LEFT,
    FineDirection.RIGHT_TURN: DirectionLabel.RIGHT,
    FineDirection.LEFT_U_TURN: DirectionLabel.LEFT_U_TURN,
    FineDirection.RIGHT_U_TURN: DirectionLabel.RIGHT,
}


@dataclass(frozen=True)
class DirectionThresholds:
    """Thresholds of the direction rules. ``theta_s`` is in degrees, distances in meters."""

    v_stationary: float = 2.0
    d_stationary: float = 5.0
    theta_s: float = 30.0
    d_v: float = 5.0
    d_u: float = 5.0
    epsilon_disp: float = EPSILON_DISP

    def __post_init__(self) -> None:
        for name in ("v_stationary", "d_stationary", "theta_s", "d_v", "d_u"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class LabelRules:
    """Everything that turns a track window into coarse labels: the direction
    thresholds, the fine-to-coarse collapse, and the speed and acceleration
    bands. Every function that returns a coarse label takes one, so a single
    resolved config labels the same track the same way everywhere."""

    direction: DirectionThresholds = DirectionThresholds()
    collapse: dict[FineDirection, DirectionLabel] = field(default_factory=lambda: dict(DEFAULT_COLLAPSE))
    speed_kmh: tuple[float, ...] = SPEED_THRESHOLDS_KMH
    accel_kmh: tuple[float, ...] = ACCEL_THRESHOLDS_KMH


def classify_direction_arrays(
    xy: np.ndarray,
    speeds: np.ndarray,
    th: DirectionThresholds = DirectionThresholds(),
    fallback_heading: float = 0.0,
) -> FineDirection:
    """Direction rules over already-valid samples given as arrays.

    ``fallback_heading`` stands in for both endpoint headings when no
    displacement exceeds ``epsilon_disp`` (the recorded-heading carry rule).
    Decision order:

    1. Stationary when the max speed is below ``v_stationary`` and the
       traveled path length is below ``d_stationary``.
    2. Otherwise compute the heading change ``dtheta`` between the first and
       last samples (headings inferred from consecutive displacements) and the
       endpoint's (lon, lat) in the frame of the window start.
    3. |dtheta| <= theta_s: Straight, upgraded to a veer when |lat| > d_v
       (positive lat veers left).
    4. |dtheta| > theta_s: turn toward sign(dtheta), upgraded to a U-turn when
       the endpoint lies more than d_u on the side opposite the turn.
    """
    if xy.shape[0] < 2:
        raise InsufficientPoints(f"direction rules need >= 2 valid points, got {xy.shape[0]}")
    seg = np.diff(xy, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    path_length = float(lengths.sum())
    if float(speeds.max()) < th.v_stationary and path_length < th.d_stationary:
        return FineDirection.STATIONARY

    # Only the first and last carried headings matter: the carry chain makes
    # heading[0] the first chord (or the fallback) and heading[-1] the most
    # recent above-threshold chord overall.
    big = np.flatnonzero(lengths > th.epsilon_disp)
    if lengths[0] > th.epsilon_disp:
        h_start = math.atan2(seg[0, 1], seg[0, 0])
    else:
        h_start = fallback_heading
    if big.size:
        last = big[-1]
        h_end = math.atan2(seg[last, 1], seg[last, 0])
    else:
        h_end = fallback_heading
    dtheta = wrap_angle(h_end - h_start)
    dx, dy = xy[-1, 0] - xy[0, 0], xy[-1, 1] - xy[0, 1]
    lat = -math.sin(h_start) * dx + math.cos(h_start) * dy

    theta_s = math.radians(th.theta_s)
    if abs(dtheta) <= theta_s:
        if abs(lat) > th.d_v:
            return FineDirection.STRAIGHT_VEER_LEFT if lat > 0 else FineDirection.STRAIGHT_VEER_RIGHT
        return FineDirection.STRAIGHT
    if dtheta > 0:
        return FineDirection.LEFT_U_TURN if lat < -th.d_u else FineDirection.LEFT_TURN
    return FineDirection.RIGHT_U_TURN if lat > th.d_u else FineDirection.RIGHT_TURN


def classify_direction_fine(
    points: Sequence[TrajectoryPoint] | AgentTrack,
    window: tuple[int, int],
    th: DirectionThresholds = DirectionThresholds(),
) -> FineDirection:
    """Classify the motion over ``window`` (half-open [start, stop) point
    indices), ignoring invalid points; see :func:`classify_direction_arrays`
    for the rules."""
    if isinstance(points, AgentTrack):
        points = points.points
    start, stop = window
    valid = [p for p in points[start:stop] if p.valid]
    if len(valid) < 2:
        raise InsufficientPoints(f"window [{start}, {stop}) has {len(valid)} valid points")
    xy = np.array([(p.x, p.y) for p in valid], dtype=float)
    speeds = np.array([p.speed for p in valid], dtype=float)
    return classify_direction_arrays(xy, speeds, th, fallback_heading=valid[0].heading)


def classify_speed(
    mean_speed_kmh: float, thresholds: tuple[float, ...] = SPEED_THRESHOLDS_KMH
) -> SpeedCategory:
    """Bucket a km/h speed; bands are half-open [lower, upper)."""
    if mean_speed_kmh < 0:
        raise NegativeSpeed(f"mean speed {mean_speed_kmh} km/h")
    for threshold, category in zip(thresholds, SpeedCategory):
        if mean_speed_kmh < threshold:
            return category
    return SpeedCategory.VERY_FAST


def classify_acceleration(
    delta_v_kmh: float, thresholds: tuple[float, ...] = ACCEL_THRESHOLDS_KMH
) -> AccelCategory:
    """Bucket a signed km/h-per-8s speed change; |dv| bands are half-open."""
    magnitude = abs(delta_v_kmh)
    if magnitude < thresholds[0]:
        return AccelCategory.CONSTANT
    levels_accel = (
        AccelCategory.MILD_ACCEL,
        AccelCategory.MODERATE_ACCEL,
        AccelCategory.AGGRESSIVE_ACCEL,
        AccelCategory.EXTREME_ACCEL,
    )
    levels_decel = (
        AccelCategory.MILD_DECEL,
        AccelCategory.MODERATE_DECEL,
        AccelCategory.AGGRESSIVE_DECEL,
        AccelCategory.EXTREME_DECEL,
    )
    levels = levels_accel if delta_v_kmh > 0 else levels_decel
    for threshold, category in zip(thresholds[1:], levels):
        if magnitude < threshold:
            return category
    return levels[-1]


def _window_valid(points: Sequence[TrajectoryPoint], window: tuple[int, int]) -> list[TrajectoryPoint]:
    start, stop = window
    return [p for p in points[start:stop] if p.valid]


def window_mean_speed_kmh(points: Sequence[TrajectoryPoint], window: tuple[int, int]) -> float:
    valid = _window_valid(points, window)
    if not valid:
        raise InsufficientPoints("no valid points in window")
    return float(np.mean([p.speed for p in valid])) * MPS_TO_KMH


def window_delta_v_kmh(points: Sequence[TrajectoryPoint], window: tuple[int, int], dt: float) -> float:
    """Signed speed change over the window, rescaled to the 8 s table convention.

    The window of n steps stands for n * dt seconds; the raw last-minus-first
    valid speed difference is multiplied by (8 s / window duration).
    """
    valid = _window_valid(points, window)
    if len(valid) < 2:
        raise InsufficientPoints("need >= 2 valid points for a speed change")
    duration = (window[1] - window[0]) * dt
    raw = (valid[-1].speed - valid[0].speed) * MPS_TO_KMH
    return raw * (REFERENCE_WINDOW_S / duration)


StepAttributes = tuple[DirectionLabel, SpeedCategory, AccelCategory]


def classify_two_step(
    track: AgentTrack, horizon: HorizonConfig, rules: LabelRules = LabelRules()
) -> tuple[StepAttributes, StepAttributes]:
    """Split the future window at its midpoint and classify each half independently."""
    start, stop = horizon.future_window
    mid = start + (stop - start) // 2
    steps = []
    for half in ((start, mid), (mid, stop)):
        fine = classify_direction_fine(track.points, half, rules.direction)
        speed = classify_speed(window_mean_speed_kmh(track.points, half), rules.speed_kmh)
        accel = classify_acceleration(window_delta_v_kmh(track.points, half, horizon.dt), rules.accel_kmh)
        steps.append((rules.collapse[fine], speed, accel))
    return steps[0], steps[1]


@dataclass(frozen=True)
class MotionAttributes:
    """Everything the extraction pipeline reports for one focal agent."""

    fine_direction: FineDirection
    direction: DirectionLabel
    speed: SpeedCategory
    acceleration: AccelCategory
    two_step: tuple[StepAttributes, StepAttributes]


def extract_motion_attributes(
    track: AgentTrack, horizon: HorizonConfig, rules: LabelRules = LabelRules()
) -> MotionAttributes:
    window = horizon.future_window
    fine = classify_direction_fine(track.points, window, rules.direction)
    return MotionAttributes(
        fine_direction=fine,
        direction=rules.collapse[fine],
        speed=classify_speed(window_mean_speed_kmh(track.points, window), rules.speed_kmh),
        acceleration=classify_acceleration(window_delta_v_kmh(track.points, window, horizon.dt), rules.accel_kmh),
        two_step=classify_two_step(track, horizon, rules),
    )
