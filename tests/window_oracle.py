"""Test oracle: a window's mean speed and 8 s speed change, one window at a time.

These are the per-window functions that the one labelling pass
``attributes._classify_windows`` replaced, kept here only as the reference the
tests compare it against: values must be ``==``, which holds only when every
float on the way is bit-identical.
"""

from __future__ import annotations

import numpy as np

from motionkit.attributes import REFERENCE_WINDOW_S
from motionkit.core import MPS_TO_KMH, AgentTrack
from motionkit.errors import InsufficientPoints


def _valid_steps(track: AgentTrack, window: tuple[int, int]) -> np.ndarray:
    """Indices of the valid steps in ``window`` (half-open [start, stop))."""
    start, stop = window
    return start + np.flatnonzero(track.valid_mask[start:stop])


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
