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
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
                isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max for v in bands
            )
            if not numbers or len(bands) != 4 or any(a >= b for a, b in zip(bands, bands[1:])):
                raise ValueError(f"{what} thresholds must be 4 finite, strictly increasing numbers, got {bands!r}")
            object.__setattr__(self, name, tuple(bands))


def chords(xy: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """The chords between consecutive valid samples of each row of (N, T, 2) points.

    Returns ``(seg, ok, start)`` in an (N, T - 1) layout: entry ``j`` is the
    chord that ends at sample ``j + 1``. When every sample is valid, ``seg`` is
    the plain step difference and ``ok`` and ``start`` are None. Otherwise
    ``seg[i, j]`` runs from the row's last valid sample before ``j + 1``, whose
    index is ``start[i, j]`` (-1 when there is none), and ``ok[i, j]`` says
    whether the chord exists, i.e. both of its ends are valid.
    """
    if valid.all():
        return xy[:, 1:] - xy[:, :-1], None, None
    steps = np.where(valid, np.arange(valid.shape[1]), -1)
    start = np.maximum.accumulate(steps, axis=1)[:, :-1]
    ok = valid[:, 1:] & (start >= 0)
    origin = np.take_along_axis(xy, np.maximum(start, 0)[:, :, None], axis=1)
    return xy[:, 1:] - origin, ok, start


def classify_direction_arrays(
    xy: np.ndarray,
    speeds: np.ndarray,
    valid: np.ndarray,
    fallback_headings: Sequence[float],
    th: DirectionThresholds = DirectionThresholds(),
) -> list[Optional[FineDirection]]:
    """Direction rules for N rows of (N, T, 2) points, (N, T) speeds and an
    (N, T) validity mask; invalid samples are skipped. Returns one label per
    row, None for a row with fewer than two valid samples.

    ``fallback_headings[i]`` stands in for both endpoint headings of row ``i``
    when none of its displacements exceeds ``epsilon_disp`` (the
    recorded-heading carry rule). Decision order, per row:

    1. Stationary when the max speed is below ``v_stationary`` and the
       traveled path length is below ``d_stationary``.
    2. Otherwise compute the heading change ``dtheta`` between the first and
       last samples (headings inferred from consecutive displacements) and the
       endpoint's (lon, lat) in the frame of the window start.
    3. |dtheta| <= theta_s: Straight, upgraded to a veer when |lat| > d_v
       (positive lat veers left).
    4. |dtheta| > theta_s: turn toward sign(dtheta), upgraded to a U-turn when
       the endpoint lies more than d_u on the side opposite the turn.

    The floats match a per-row walk over the packed valid samples bit for bit:
    endpoint headings come from ``math.atan2`` (``np.arctan2`` can differ in
    the last bit), and the path length is summed over the row's packed chords
    alone, since zeros in the sum could change numpy's pairwise grouping.
    """
    n, t = valid.shape
    if t < 2:
        return [None] * n
    seg, ok, _ = chords(xy, valid)
    lengths = np.hypot(seg[..., 0], seg[..., 1])
    big = lengths > th.epsilon_disp
    rows = np.arange(n)
    if ok is None:
        enough = [True] * n
        first_seg, first_big = seg[:, 0], big[:, 0]
        disp = xy[:, -1] - xy[:, 0]
        slow = speeds.max(axis=1) < th.v_stationary
    else:
        big &= ok
        enough = ok.any(axis=1).tolist()
        first_chord = ok.argmax(axis=1)
        first_seg, first_big = seg[rows, first_chord], big[rows, first_chord]
        disp = xy[rows, t - 1 - valid[:, ::-1].argmax(axis=1)] - xy[rows, valid.argmax(axis=1)]
        slow = np.where(valid, speeds, -np.inf).max(axis=1) < th.v_stationary
    # Only the first and last carried headings matter: the carry chain makes
    # the start heading the first chord (or the fallback) and the end heading
    # the most recent above-threshold chord overall.
    last_big = t - 2 - big[:, ::-1].argmax(axis=1)
    last_seg, any_big = seg[rows, last_big].tolist(), big[rows, last_big].tolist()
    first_seg, first_big, disp, slow = first_seg.tolist(), first_big.tolist(), disp.tolist(), slow.tolist()
    fallback = [float(h) for h in fallback_headings]
    theta_s = math.radians(th.theta_s)

    labels: list[Optional[FineDirection]] = []
    for i in range(n):
        if not enough[i]:
            labels.append(None)
            continue
        if slow[i]:
            path = lengths[i] if ok is None else lengths[i][ok[i]]
            if float(path.sum()) < th.d_stationary:
                labels.append(FineDirection.STATIONARY)
                continue
        h_start = math.atan2(first_seg[i][1], first_seg[i][0]) if first_big[i] else fallback[i]
        h_end = math.atan2(last_seg[i][1], last_seg[i][0]) if any_big[i] else fallback[i]
        dtheta = wrap_angle(h_end - h_start)
        dx, dy = disp[i]
        lat = -math.sin(h_start) * dx + math.cos(h_start) * dy
        if abs(dtheta) <= theta_s:
            if abs(lat) > th.d_v:
                labels.append(FineDirection.STRAIGHT_VEER_LEFT if lat > 0 else FineDirection.STRAIGHT_VEER_RIGHT)
            else:
                labels.append(FineDirection.STRAIGHT)
        elif dtheta > 0:
            labels.append(FineDirection.LEFT_U_TURN if lat < -th.d_u else FineDirection.LEFT_TURN)
        else:
            labels.append(FineDirection.RIGHT_U_TURN if lat > th.d_u else FineDirection.RIGHT_TURN)
    return labels


def _valid_steps(track: AgentTrack, window: tuple[int, int]) -> np.ndarray:
    """Indices of the valid steps in ``window`` (half-open [start, stop))."""
    start, stop = window
    return start + np.flatnonzero(track.valid_mask[start:stop])


def _classify_windows(
    track: AgentTrack, windows: Sequence[tuple[int, int]], th: DirectionThresholds
) -> list[FineDirection]:
    """:func:`classify_direction_fine` of each half-open window, in one kernel
    call: a window shorter than the widest is padded with invalid trailing
    steps, which the rules skip."""
    valid = [track.valid_mask[start:stop] for start, stop in windows]
    shape = (len(windows), max(v.size for v in valid))
    xy, speeds, mask = np.zeros((*shape, 2)), np.zeros(shape), np.zeros(shape, bool)
    for i, ((start, stop), v) in enumerate(zip(windows, valid)):
        n = v.size
        xy[i, :n], speeds[i, :n], mask[i, :n] = track.xy[start:stop], track.speeds[start:stop], v
    fallback = [track.headings[start + int(v.argmax())] if v.size else 0.0 for (start, _), v in zip(windows, valid)]
    labels = classify_direction_arrays(xy, speeds, mask, fallback, th)
    for (start, stop), v, label in zip(windows, valid, labels):
        if label is None:
            raise InsufficientPoints(f"window [{start}, {stop}) has {int(v.sum())} valid points")
    return labels


def classify_direction_fine(
    track: AgentTrack,
    window: tuple[int, int],
    th: DirectionThresholds = DirectionThresholds(),
) -> FineDirection:
    """Classify the motion over ``window`` (half-open [start, stop) step
    indices), ignoring invalid steps; see :func:`classify_direction_arrays`
    for the rules."""
    start, stop = window
    valid = track.valid_mask[start:stop]
    fallback = track.headings[start + int(valid.argmax())] if valid.size else 0.0
    (label,) = classify_direction_arrays(
        track.xy[None, start:stop], track.speeds[None, start:stop], valid[None], [fallback], th
    )
    if label is None:
        raise InsufficientPoints(f"window [{start}, {stop}) has {int(valid.sum())} valid points")
    return label


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
    """Split the future window at its midpoint and classify each half
    independently; one kernel call labels both halves' directions."""
    start, stop = horizon.future_window
    mid = start + (stop - start) // 2
    halves = ((start, mid), (mid, stop))
    steps = []
    for half, fine in zip(halves, _classify_windows(track, halves, rules.direction)):
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
