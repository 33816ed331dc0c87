"""Test oracle: the direction rules walked one row at a time.

This is the per-mode path that ``attributes.classify_direction_arrays`` and the
batched ``metrics.classify_prediction`` replaced, kept here only as the
reference the tests compare them against: labels must be ``==``, which holds
only when every float on the way is bit-identical.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from motionkit.attributes import DirectionLabel, DirectionThresholds, FineDirection, LabelRules
from motionkit.geometry import wrap_angle


def direction_rules_1d(
    xy: np.ndarray, speeds: np.ndarray, th: DirectionThresholds, fallback_heading: float
) -> FineDirection:
    """The rules over one row of already-valid (n >= 2) samples."""
    seg = np.diff(xy, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    path_length = float(lengths.sum())
    if float(speeds.max()) < th.v_stationary and path_length < th.d_stationary:
        return FineDirection.STATIONARY
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


def classify_prediction_per_mode(
    xy: np.ndarray, valid: Optional[np.ndarray], dt: float, rules: LabelRules = LabelRules()
) -> Optional[DirectionLabel]:
    """One (T, 2) trajectory's label: speeds from the displacement to the next valid
    sample over the elapsed time, the last sample repeating the previous speed."""
    xy = np.asarray(xy, dtype=float)
    if valid is None:
        pts = xy
        gaps = np.ones(max(xy.shape[0] - 1, 0))
    else:
        idx = np.flatnonzero(np.asarray(valid, dtype=bool))
        pts = xy[idx]
        gaps = np.diff(idx).astype(float)
    if pts.shape[0] < 2:
        return None
    seg = np.diff(pts, axis=0)
    pair_speeds = np.hypot(seg[:, 0], seg[:, 1]) / (dt * gaps)
    speeds = np.append(pair_speeds, pair_speeds[-1])
    return rules.collapse[direction_rules_1d(pts, speeds, rules.direction, 0.0)]


def packed_path_length(xy: np.ndarray, valid: np.ndarray) -> float:
    """The path length the rules compare with ``d_stationary``: the 1-D sum over the packed chords."""
    seg = np.diff(xy[np.asarray(valid, dtype=bool)], axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())
