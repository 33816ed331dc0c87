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
from typing import NamedTuple, Optional

import numpy as np

from .attributes import _halves, speed_change_kmh
from .core import AgentTrack, HorizonConfig, _check_fields, _record_from_obj
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
        _check_fields(self)
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
    (_, mid), _ = _halves(horizon)
    cut = np.searchsorted(offsets, mid - start)  # the valid steps before ``mid`` are the first half's
    dv1 = delta_v(speeds[:cut], mid - start)
    dv2 = delta_v(speeds[cut:], stop - mid)
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


class Verdict(enum.Enum):
    """A verdict as the guideline book spells it; ``Safety[verdict.name]`` is its label."""

    SAFE = "safe"
    UNSAFE = "unsafe"


class GuidelineEntry(NamedTuple):
    """One entry of a scenario type in the guideline book."""

    behavior: BehaviorLabel
    safety: Verdict
    template: str


class GuidelineType(NamedTuple):
    """One scenario type of the guideline book."""

    default: Optional[Verdict] = None
    entries: tuple[GuidelineEntry, ...] = ()


@dataclass(frozen=True)
class GuidelineBook:
    """Per-scenario-type safety verdicts: (type, behavior) -> (Safety, non-empty template), and a
    default of Safety or None per type. Each entry's type is a type of ``defaults`` and its behavior
    a BehaviorLabel. A behavior that a type leaves out gets the type's default verdict and a template
    made from its phrase when the book is built; a type with no default must list all eight
    behaviors."""

    entries: dict[tuple[str, BehaviorLabel], tuple[Safety, str]]
    defaults: dict[str, Optional[Safety]]

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        for key, value in entries.items():
            pair = type(key) is tuple and len(key) == 2 and isinstance(key[1], BehaviorLabel)
            if not (pair and isinstance(key[0], str) and key[0] in self.defaults):
                raise SchemaError(f"entry key {key!r} must be a (str, BehaviorLabel) pair of a type in defaults")
            scenario_type, behavior = key
            pair = isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], Safety)
            if not (pair and isinstance(value[1], str) and value[1]):
                raise SchemaError(f"{scenario_type}: {behavior} must map to a (Safety, non-empty str) pair, got {value!r}")
        for scenario_type, default in self.defaults.items():
            if not (default is None or isinstance(default, Safety)):
                raise SchemaError(f"{scenario_type}: default must be a Safety or None, got {default!r}")
            missing = [b for b in BehaviorLabel if (scenario_type, b) not in entries]
            if missing and default is None:
                unlisted = sorted(b.value for b in missing)
                raise CoverageError(f"{scenario_type}: behaviors {unlisted} unlisted and no default declared")
            place = scenario_type.replace("_", " ")
            for b in missing:
                phrase, verdict = BEHAVIOR_PHRASE[b].capitalize(), default.name.lower()
                entries[scenario_type, b] = default, f"{phrase} is considered {verdict} in a {place} scenario."
        object.__setattr__(self, "entries", entries)

    @property
    def scenario_types(self) -> set[str]:
        return set(self.defaults)


def load_guidelines(text: str | bytes) -> GuidelineBook:
    """Parse and validate a guideline book JSON document.

    Schema: ``{scenario_type: {default?: "safe"|"unsafe", entries: [{behavior, safety,
    template}]}}``, each type a :class:`GuidelineType`. A type lists at most 10 safe and 10 unsafe
    entries and a behavior at most once. Each error names its path, such as
    ``t.entries[0].behavior``; :class:`GuidelineBook` checks the templates and the coverage.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"invalid guideline JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("guideline book must be a JSON object keyed by scenario type")
    entries: dict[tuple[str, BehaviorLabel], tuple[Safety, str]] = {}
    defaults: dict[str, Optional[Safety]] = {}
    for scenario_type, spec in obj.items():
        spec = _record_from_obj(GuidelineType, spec, scenario_type)
        _check_fields(spec, f"{scenario_type}.")
        for verdict in Verdict:  # before the duplicate check, so an over-long list reports the cap
            if (count := sum(entry.safety is verdict for entry in spec.entries)) > MAX_ENTRIES_PER_SIDE:
                message = f"{count} {verdict.value} entries exceed the cap of {MAX_ENTRIES_PER_SIDE}"
                raise CapError(f"{scenario_type}: {message}")
        for i, (behavior, verdict, template) in enumerate(spec.entries):
            if (scenario_type, behavior) in entries:
                raise SchemaError(f"{scenario_type}.entries[{i}]: duplicate entry for behavior {behavior.value}")
            entries[scenario_type, behavior] = Safety[verdict.name], template
        defaults[scenario_type] = None if spec.default is None else Safety[spec.default.name]
    return GuidelineBook(entries=entries, defaults=defaults)


def load_default_guidelines() -> GuidelineBook:
    """The guideline book shipped with the package (14 scenario types)."""
    text = resources.files("motionkit.data").joinpath("guidelines.json").read_text(encoding="utf-8")
    return load_guidelines(text)


def label_safety(scenario_type: str, behavior: BehaviorLabel, book: GuidelineBook) -> tuple[Safety, str]:
    """The verdict and template of ``behavior`` in ``scenario_type``."""
    if scenario_type not in book.defaults:
        raise UnknownScenarioType(f"scenario_type {scenario_type!r} is not in the guideline book")
    return book.entries[scenario_type, behavior]
