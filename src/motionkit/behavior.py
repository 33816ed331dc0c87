"""Speed-profile meta-behavior classification and safety-guideline matching.

A behavior label summarizes the focal agent's future speed profile (not moving,
stopping, waiting then moving, ...). A guideline book maps (scenario type,
behavior) to a safe/unsafe verdict plus a short instruction template sentence.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .attributes import speed_change_kmh
from .core import AgentTrack, HorizonConfig
from .errors import CapError, CoverageError, InsufficientPoints, SchemaError, UnknownScenarioType

MAX_ENTRIES_PER_SIDE = 10


class BehaviorLabel(enum.Enum):
    NOT_MOVING = "NotMoving"
    STOPPING = "Stopping"
    WAITING_THEN_MOVING = "WaitingThenMoving"
    SLOWING_DOWN = "SlowingDown"
    SPEEDING_UP = "SpeedingUp"
    SLOWING_THEN_SPEEDING = "SlowingThenSpeeding"
    SPEEDING_THEN_SLOWING = "SpeedingThenSlowing"
    MAINTAINING_SPEED = "MaintainingSpeed"


BEHAVIOR_PHRASE = {
    BehaviorLabel.NOT_MOVING: "not moving",
    BehaviorLabel.STOPPING: "stopping",
    BehaviorLabel.WAITING_THEN_MOVING: "waiting then moving",
    BehaviorLabel.SLOWING_DOWN: "slowing down",
    BehaviorLabel.SPEEDING_UP: "speeding up",
    BehaviorLabel.SLOWING_THEN_SPEEDING: "slowing down then speeding up",
    BehaviorLabel.SPEEDING_THEN_SLOWING: "speeding up then slowing down",
    BehaviorLabel.MAINTAINING_SPEED: "maintaining speed",
}


class Safety(enum.Enum):
    SAFE = "Safe"
    UNSAFE = "Unsafe"


@dataclass(frozen=True)
class BehaviorParams:
    """Thresholds of the behavior rules; all configurable.

    ``v_stop`` (m/s) separates rest from motion, ``dwell_s`` is the window
    checked at the start/end for waiting/stopping, ``delta_v_const_kmh`` is the
    8 s-normalized speed-change band treated as constant (same 6 km/h as the
    acceleration table).
    """

    v_stop: float = 0.5
    dwell_s: float = 1.0
    delta_v_const_kmh: float = 6.0

    def __post_init__(self) -> None:
        for name in ("v_stop", "dwell_s", "delta_v_const_kmh"):
            if getattr(self, name) <= 0:
                raise SchemaError(f"behavior param {name} must be positive")


def classify_behavior(
    track: AgentTrack, horizon: HorizonConfig, params: BehaviorParams = BehaviorParams()
) -> BehaviorLabel:
    """Classify the future speed profile; first matching rule wins.

    Order: NotMoving, WaitingThenMoving, Stopping, the two-phase trends
    (slowing-then-speeding and its mirror, judged on 8 s-normalized half-window
    speed changes), single trends, MaintainingSpeed.
    """
    start, stop = horizon.future_window
    dt = horizon.dt
    # Offsets of the valid future steps, counted from the first future step so
    # dwell windows are stable integer comparisons, and their speeds.
    offsets = np.flatnonzero(track.valid_mask[start:stop])
    speeds = track.speeds[start + offsets]
    if speeds.size < 2:
        raise InsufficientPoints("behavior classification needs >= 2 valid future points")
    v_stop = params.v_stop
    dwell_steps = max(1, round(params.dwell_s / dt))
    n_steps = stop - start

    if (speeds < v_stop).all():
        return BehaviorLabel.NOT_MOVING
    head = speeds[offsets < dwell_steps]
    if head.size and (head < v_stop).all():
        return BehaviorLabel.WAITING_THEN_MOVING
    tail = speeds[offsets >= n_steps - dwell_steps]
    if speeds[0] >= v_stop and tail.size and (tail < v_stop).all():
        return BehaviorLabel.STOPPING

    def delta_v(sub: np.ndarray, steps: int) -> float:
        if sub.size < 2 or steps <= 0:
            return 0.0
        return speed_change_kmh(float(sub[-1] - sub[0]), steps, dt)

    band = params.delta_v_const_kmh
    mid = n_steps // 2
    dv1 = delta_v(speeds[offsets < mid], mid)
    dv2 = delta_v(speeds[offsets >= mid], n_steps - mid)
    if dv1 < -band and dv2 > band:
        return BehaviorLabel.SLOWING_THEN_SPEEDING
    if dv1 > band and dv2 < -band:
        return BehaviorLabel.SPEEDING_THEN_SLOWING

    dv_total = delta_v(speeds, n_steps)
    if dv_total <= -band:
        return BehaviorLabel.SLOWING_DOWN
    if dv_total >= band:
        return BehaviorLabel.SPEEDING_UP
    return BehaviorLabel.MAINTAINING_SPEED


@dataclass(frozen=True)
class GuidelineBook:
    """Per-scenario-type safety verdicts: (type, behavior) -> (Safety, template)."""

    entries: dict[tuple[str, BehaviorLabel], tuple[Safety, str]]
    defaults: dict[str, Optional[Safety]]

    @property
    def scenario_types(self) -> set[str]:
        return set(self.defaults)


def load_guidelines(text: str | bytes) -> GuidelineBook:
    """Parse and validate a guideline book JSON document.

    Schema: ``{scenario_type: {default?: "safe"|"unsafe", entries:
    [{behavior, safety, template}]}}``. Each type may list at most 10 safe and
    10 unsafe entries, a behavior at most once, and must either cover all
    eight behaviors or declare a default.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid guideline JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("guideline book must be a JSON object keyed by scenario type")

    behaviors_by_value = {b.value: b for b in BehaviorLabel}
    safety_by_value = {"safe": Safety.SAFE, "unsafe": Safety.UNSAFE}
    entries: dict[tuple[str, BehaviorLabel], tuple[Safety, str]] = {}
    defaults: dict[str, Optional[Safety]] = {}

    for scenario_type, spec in obj.items():
        if not isinstance(spec, dict) or set(spec) - {"default", "entries"}:
            raise SchemaError(f"{scenario_type}: expected an object with 'default'/'entries'")
        default = spec.get("default")
        if default is not None:
            if default not in safety_by_value:
                raise SchemaError(f"{scenario_type}: default must be 'safe' or 'unsafe'")
            default = safety_by_value[default]
        defaults[scenario_type] = default
        raw_entries = spec.get("entries", [])
        if not isinstance(raw_entries, list):
            raise SchemaError(f"{scenario_type}: entries must be a list")
        # The per-side cap is a raw count checked up front, so an over-long
        # entry list reports the cap even when individual entries are broken.
        for side in ("safe", "unsafe"):
            count = sum(1 for e in raw_entries if isinstance(e, dict) and e.get("safety") == side)
            if count > MAX_ENTRIES_PER_SIDE:
                raise CapError(f"{scenario_type}: {count} {side} entries exceed the cap of {MAX_ENTRIES_PER_SIDE}")
        seen: set[BehaviorLabel] = set()
        for entry in raw_entries:
            if not isinstance(entry, dict) or set(entry) != {"behavior", "safety", "template"}:
                raise SchemaError(f"{scenario_type}: entry must have behavior/safety/template")
            behavior_raw = entry["behavior"]
            if behavior_raw not in behaviors_by_value:
                raise SchemaError(f"{scenario_type}: unknown behavior {behavior_raw!r}")
            behavior = behaviors_by_value[behavior_raw]
            if entry["safety"] not in safety_by_value:
                raise SchemaError(f"{scenario_type}: safety must be 'safe' or 'unsafe'")
            safety = safety_by_value[entry["safety"]]
            if not isinstance(entry["template"], str) or not entry["template"]:
                raise SchemaError(f"{scenario_type}: template must be a non-empty string")
            if behavior in seen:
                raise SchemaError(f"{scenario_type}: duplicate entry for behavior {behavior_raw}")
            seen.add(behavior)
            entries[(scenario_type, behavior)] = (safety, entry["template"])
        if default is None and seen != set(BehaviorLabel):
            missing = sorted(b.value for b in set(BehaviorLabel) - seen)
            raise CoverageError(f"{scenario_type}: behaviors {missing} unlisted and no default declared")

    return GuidelineBook(entries=entries, defaults=defaults)


def load_default_guidelines() -> GuidelineBook:
    """The guideline book shipped with the package (14 scenario types)."""
    text = resources.files("motionkit.data").joinpath("guidelines.json").read_text(encoding="utf-8")
    return load_guidelines(text)


def label_safety(scenario_type: str, behavior: BehaviorLabel, book: GuidelineBook) -> tuple[Safety, str]:
    """Look up the verdict and template, falling back to the type's default.

    Fallback templates are synthesized deterministically from the behavior
    phrase and verdict.
    """
    if scenario_type not in book.defaults:
        raise UnknownScenarioType(f"scenario_type {scenario_type!r} is not in the guideline book")
    hit = book.entries.get((scenario_type, behavior))
    if hit is not None:
        return hit
    default = book.defaults[scenario_type]
    if default is None:  # unreachable for books that passed load-time coverage checks
        raise CoverageError(f"{scenario_type}: no entry for {behavior.value} and no default")
    phrase = BEHAVIOR_PHRASE[behavior].capitalize()
    verdict = "safe" if default is Safety.SAFE else "unsafe"
    template = f"{phrase} is considered {verdict} in a {scenario_type.replace('_', ' ')} scenario."
    return default, template
