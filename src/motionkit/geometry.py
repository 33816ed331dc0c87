"""Planar rigid-frame geometry: angle wrapping, frame rotation, polyline arc length.

Conventions used everywhere in this package:

* map frame: x east-ish, y north-ish, heading in radians measured CCW from +x,
  wrapped to (-pi, pi];
* ego frame: +longitudinal along the anchor heading, +lateral to the LEFT of
  travel (a standard right-handed frame).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: Displacements below this length (meters) are treated as standstill when
#: inferring headings from consecutive samples; keeps headings stable against
#: sub-centimeter jitter at 10 Hz.
EPSILON_DISP = 0.05


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % TWO_PI


def rotate_into_frame(xy: np.ndarray, anchor_xy: Sequence[float], anchor_heading: float) -> np.ndarray:
    """Express map-frame points in the frame anchored at ``anchor_xy``/``anchor_heading``.

    Returns an (n, 2) array of (longitudinal, lateral) offsets; lateral is
    positive to the left of the anchor heading.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    d = xy - np.asarray(anchor_xy, dtype=float)
    c, s = math.cos(anchor_heading), math.sin(anchor_heading)
    lon = c * d[:, 0] + s * d[:, 1]
    lat = -s * d[:, 0] + c * d[:, 1]
    return np.stack([lon, lat], axis=1)


def polyline_arclength(xy: np.ndarray) -> np.ndarray:
    """Cumulative arc length along a polyline, starting at 0."""
    xy = np.asarray(xy, dtype=float)
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def point_along_polyline(xy: np.ndarray, cum: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interpolate (x, y, chord heading) arrays at the arc distances ``s`` along a polyline.

    ``cum`` is the cumulative arc length from :func:`polyline_arclength`; each
    distance is clamped to the polyline extent. The heading is the direction of
    the segment containing the distance, from ``math.atan2`` so it matches the
    scalar libm value bit for bit (``np.arctan2`` can differ in the last bit).
    A one-vertex polyline yields its vertex with heading 0.
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, cum[-1])
    i = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(cum) - 2)
    seg_len = cum[i + 1] - cum[i]
    t = np.divide(s - cum[i], seg_len, out=np.zeros_like(s), where=seg_len > 0)
    p0, p1 = xy[i], xy[i + 1]
    x = p0[:, 0] + t * (p1[:, 0] - p0[:, 0])
    y = p0[:, 1] + t * (p1[:, 1] - p0[:, 1])
    heading = np.array([math.atan2(dy, dx) for dx, dy in (p1 - p0).tolist()], dtype=float)
    return x, y, heading
