"""Direction, speed, and acceleration classification of a focal agent's motion.

Direction classes come from the relative heading between the window's first and
last samples plus the lateral offset of the endpoint in the frame of the window
start. Speed and acceleration categories are half-open bands over km/h values;
acceleration is measured as the signed speed change normalized to an 8 s
window.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import MPS_TO_KMH, AgentTrack, HorizonConfig, _check_fields, _is_number
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
        _check_fields(self)
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
            numbers = isinstance(bands, (list, tuple)) and all(map(_is_number, bands))
            if not numbers or len(bands) != 4 or any(a >= b for a, b in zip(bands, bands[1:])):
                raise ValueError(f"{what} thresholds must be 4 finite, strictly increasing numbers, got {bands!r}")
            object.__setattr__(self, name, tuple(bands))


def classify_turn(dtheta: float, lat: float, th: DirectionThresholds) -> FineDirection:
    """The heading rule, shared by track windows and feasibility candidates:
    Straight when |dtheta| <= theta_s, otherwise a turn toward sign(dtheta),
    upgraded to a U-turn when ``lat`` lies more than d_u on the side opposite
    the turn. ``dtheta`` is in radians, ``lat`` in meters (positive left)."""
    if abs(dtheta) <= math.radians(th.theta_s):
        return FineDirection.STRAIGHT
    if dtheta > 0:
        return FineDirection.LEFT_U_TURN if lat < -th.d_u else FineDirection.LEFT_TURN
    return FineDirection.RIGHT_U_TURN if lat > th.d_u else FineDirection.RIGHT_TURN


def speed_change_kmh(dv_mps: float, steps: int, dt: float) -> float:
    """A speed change over a window of ``steps`` steps of ``dt`` seconds, in
    km/h rescaled to the 8 s reference window of the acceleration table."""
    return dv_mps * MPS_TO_KMH * (REFERENCE_WINDOW_S / (steps * dt))


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
    origin = xy[np.arange(len(xy))[:, None], np.maximum(start, 0)]
    return xy[:, 1:] - origin, ok, start


def classify_direction_arrays(
    xy: np.ndarray,
    max_speed: Sequence[float],
    valid: np.ndarray,
    fallback_headings: Sequence[float],
    th: DirectionThresholds = DirectionThresholds(),
) -> list[Optional[FineDirection]]:
    """Direction rules for N rows of (N, T, 2) points, the max speed over each
    row's valid samples, and an (N, T) validity mask; invalid samples are
    skipped. Returns one label per row, None for a row with fewer than two
    valid samples.

    ``fallback_headings[i]`` stands in for both endpoint headings of row ``i``
    when none of its displacements exceeds ``epsilon_disp`` (the
    recorded-heading carry rule). Decision order, per row:

    1. Stationary when the max speed is below ``v_stationary`` and the
       traveled path length is below ``d_stationary``.
    2. Otherwise compute the heading change ``dtheta`` between the first and
       last samples (headings inferred from consecutive displacements) and the
       endpoint's (lon, lat) in the frame of the window start.
    3. :func:`classify_turn` of ``dtheta`` and the endpoint's lat; a Straight
       is upgraded to a veer when |lat| > d_v (positive lat veers left).

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
    else:
        big &= ok
        enough = ok.any(axis=1).tolist()
        first_chord = ok.argmax(axis=1)
        first_seg, first_big = seg[rows, first_chord], big[rows, first_chord]
        disp = xy[rows, t - 1 - valid[:, ::-1].argmax(axis=1)] - xy[rows, valid.argmax(axis=1)]
    # Only the first and last carried headings matter: the carry chain makes
    # the start heading the first chord (or the fallback) and the end heading
    # the most recent above-threshold chord overall.
    last_big = t - 2 - big[:, ::-1].argmax(axis=1)
    last_seg, any_big = seg[rows, last_big].tolist(), big[rows, last_big].tolist()
    first_seg, first_big, disp = first_seg.tolist(), first_big.tolist(), disp.tolist()
    slow = (np.asarray(max_speed) < th.v_stationary).tolist()
    fallback = [float(h) for h in fallback_headings]

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
        dx, dy = disp[i]
        lat = -math.sin(h_start) * dx + math.cos(h_start) * dy
        fine = classify_turn(wrap_angle(h_end - h_start), lat, th)
        if fine is FineDirection.STRAIGHT and abs(lat) > th.d_v:
            fine = FineDirection.STRAIGHT_VEER_LEFT if lat > 0 else FineDirection.STRAIGHT_VEER_RIGHT
        labels.append(fine)
    return labels


def _classify_windows(
    track: AgentTrack, windows: Sequence[tuple[int, int]], th: DirectionThresholds
) -> list[tuple[FineDirection, float, float]]:
    """Each half-open [start, stop) window of ``track``: its fine direction,
    the mean of its valid speeds in km/h, and its last-minus-first valid speed
    change in m/s. Windows of one width are labelled by one
    :func:`classify_direction_arrays` call on the stack of their own steps,
    without padding. Raises :class:`InsufficientPoints` for the first window
    with fewer than two valid points. A sum over the packed valid speeds
    matches ``np.mean`` bit for bit."""
    valid = [track.valid_mask[start:stop] for start, stop in windows]
    speeds = [track.speeds[start:stop][ok] for (start, stop), ok in zip(windows, valid)]
    labels: list[Optional[FineDirection]] = [None] * len(windows)
    by_width: dict[int, list[int]] = {}
    for i, ok in enumerate(valid):
        by_width.setdefault(ok.size, []).append(i)
    for members in by_width.values():
        xy = np.array([track.xy[slice(*windows[i])] for i in members])
        max_speed = [speeds[i].max(initial=-np.inf) for i in members]
        fallback = [track.headings[windows[i][0] + int(valid[i].argmax())] if valid[i].size else 0.0 for i in members]
        found = classify_direction_arrays(xy, max_speed, np.array([valid[i] for i in members]), fallback, th)
        for i, label in zip(members, found):
            labels[i] = label
    out = []
    for (start, stop), label, row in zip(windows, labels, speeds):
        if label is None:
            raise InsufficientPoints(f"window [{start}, {stop}) has {row.size} valid points")
        out.append((label, float(row.sum()) / row.size * MPS_TO_KMH, float(row[-1] - row[0])))
    return out


def classify_direction_fine(
    track: AgentTrack,
    window: tuple[int, int],
    th: DirectionThresholds = DirectionThresholds(),
) -> FineDirection:
    """Classify the motion over ``window`` (half-open [start, stop) step
    indices), ignoring invalid steps; see :func:`classify_direction_arrays`
    for the rules."""
    return _classify_windows(track, [window], th)[0][0]


_SPEED_BANDS = tuple(SpeedCategory)
# The |dv| bands for a gain and for a loss of speed; both start at Constant.
_ACCEL_BANDS = tuple(AccelCategory)[:5]
_DECEL_BANDS = (AccelCategory.CONSTANT, *tuple(AccelCategory)[5:])


def classify_speed(
    mean_speed_kmh: float, thresholds: tuple[float, ...] = SPEED_THRESHOLDS_KMH
) -> SpeedCategory:
    """Bucket a km/h speed; bands are half-open [lower, upper)."""
    if mean_speed_kmh < 0:
        raise NegativeSpeed(f"mean speed {mean_speed_kmh} km/h")
    return _SPEED_BANDS[bisect.bisect_right(thresholds, mean_speed_kmh)]


def classify_acceleration(
    delta_v_kmh: float, thresholds: tuple[float, ...] = ACCEL_THRESHOLDS_KMH
) -> AccelCategory:
    """Bucket a signed km/h-per-8s speed change; |dv| bands are half-open."""
    bands = _ACCEL_BANDS if delta_v_kmh > 0 else _DECEL_BANDS
    return bands[bisect.bisect_right(thresholds, abs(delta_v_kmh))]


class StepAttributes(NamedTuple):
    """The labels of one half of the future window; the field names are the keys of a two_step
    entry in extract and dataset rows."""

    direction: DirectionLabel
    speed: SpeedCategory
    acceleration: AccelCategory


def _window_attributes(
    track: AgentTrack, windows: Sequence[tuple[int, int]], dt: float, rules: LabelRules
) -> list[tuple[FineDirection, SpeedCategory, AccelCategory]]:
    """Each window's fine direction and its speed and acceleration bands."""
    speed, accel = rules.speed_kmh, rules.accel_kmh
    return [
        (fine, classify_speed(mean, speed), classify_acceleration(speed_change_kmh(dv, b - a, dt), accel))
        for (a, b), (fine, mean, dv) in zip(windows, _classify_windows(track, windows, rules.direction))
    ]


def _halves(horizon: HorizonConfig) -> tuple[tuple[int, int], tuple[int, int]]:
    """The future window split at its midpoint."""
    start, stop = horizon.future_window
    mid = start + (stop - start) // 2
    return (start, mid), (mid, stop)


def classify_two_step(
    track: AgentTrack, horizon: HorizonConfig, rules: LabelRules = LabelRules()
) -> tuple[StepAttributes, StepAttributes]:
    """Split the future window at its midpoint and classify each half
    independently."""
    labels = _window_attributes(track, _halves(horizon), horizon.dt, rules)
    first, second = (StepAttributes(rules.collapse[f], s, a) for f, s, a in labels)
    return first, second


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
    """The future window and both of its halves, each labelled on its own steps."""
    windows = (horizon.future_window, *_halves(horizon))
    (fine, speed, accel), *halves = _window_attributes(track, windows, horizon.dt, rules)
    return MotionAttributes(
        fine_direction=fine,
        direction=rules.collapse[fine],
        speed=speed,
        acceleration=accel,
        two_step=tuple(StepAttributes(rules.collapse[f], s, a) for f, s, a in halves),
    )
