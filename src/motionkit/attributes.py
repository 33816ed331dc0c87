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
import numpy as np

from .core import MPS_TO_KMH, AgentTrack, HorizonConfig
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

    def __post_init__(self) -> None:
        for name, what in (("speed_kmh", "speed"), ("accel_kmh", "acceleration")):
            bands = getattr(self, name)
            numbers = isinstance(bands, (list, tuple)) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in bands
            )
            if not numbers or len(bands) != 4 or any(a >= b for a, b in zip(bands, bands[1:])):
                raise ValueError(f"{what} thresholds must be 4 finite, strictly increasing numbers, got {bands!r}")
            object.__setattr__(self, name, tuple(bands))


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


def _valid_steps(track: AgentTrack, window: tuple[int, int]) -> np.ndarray:
    """Indices of the valid steps in ``window`` (half-open [start, stop))."""
    start, stop = window
    return start + np.flatnonzero(track.valid_mask[start:stop])


def classify_direction_fine(
    track: AgentTrack,
    window: tuple[int, int],
    th: DirectionThresholds = DirectionThresholds(),
) -> FineDirection:
    """Classify the motion over ``window`` (half-open [start, stop) step
    indices), ignoring invalid steps; see :func:`classify_direction_arrays`
    for the rules."""
    steps = _valid_steps(track, window)
    if steps.size < 2:
        raise InsufficientPoints(f"window [{window[0]}, {window[1]}) has {steps.size} valid points")
    return classify_direction_arrays(
        track.xy[steps], track.speeds[steps], th, fallback_heading=float(track.headings[steps[0]])
    )


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


def window_mean_speed_kmh(track: AgentTrack, window: tuple[int, int]) -> float:
    steps = _valid_steps(track, window)
    if not steps.size:
        raise InsufficientPoints("no valid points in window")
    return float(np.mean(track.speeds[steps])) * MPS_TO_KMH


def window_delta_v_kmh(track: AgentTrack, window: tuple[int, int], dt: float) -> float:
    """Signed speed change over the window, rescaled to the 8 s table convention.

    The window of n steps stands for n * dt seconds; the raw last-minus-first
    valid speed difference is multiplied by (8 s / window duration).
    """
    steps = _valid_steps(track, window)
    if steps.size < 2:
        raise InsufficientPoints("need >= 2 valid points for a speed change")
    duration = (window[1] - window[0]) * dt
    raw = float(track.speeds[steps[-1]] - track.speeds[steps[0]]) * MPS_TO_KMH
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
        fine = classify_direction_fine(track, half, rules.direction)
        speed = classify_speed(window_mean_speed_kmh(track, half), rules.speed_kmh)
        accel = classify_acceleration(window_delta_v_kmh(track, half, horizon.dt), rules.accel_kmh)
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
    fine = classify_direction_fine(track, window, rules.direction)
    return MotionAttributes(
        fine_direction=fine,
        direction=rules.collapse[fine],
        speed=classify_speed(window_mean_speed_kmh(track, window), rules.speed_kmh),
        acceleration=classify_acceleration(window_delta_v_kmh(track, window, horizon.dt), rules.accel_kmh),
        two_step=classify_two_step(track, horizon, rules),
    )
