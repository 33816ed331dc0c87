"""Dataset-row assembly: instruction/caption templates, decision tokens, samplers.

Rows come in two modes. Direction mode carries a feasibility tag (GT / F / IF)
and accepts feasible instructions; behavior mode carries a safety tag and
accepts safe ones. The English templates below are normative for this
repository's golden tests.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .attributes import (
    AccelCategory,
    DirectionLabel,
    LabelRules,
    SpeedCategory,
    StepAttributes,
    classify_two_step,
)
from .behavior import (
    BehaviorLabel,
    BehaviorParams,
    GuidelineBook,
    Safety,
    classify_behavior,
    label_safety,
)
from .core import Scenario, _equal_by_value, _json_array, _json_mask, _optional_flag, _reject_extra
from .errors import EmptyClass, SchemaError
from .feasibility import FeasibilityParams, FeasibilityReport, FeasTag, feasibility_set, tag_instruction

DIRECTION_PHRASE = {
    DirectionLabel.STATIONARY: "stationary",
    DirectionLabel.STRAIGHT: "straight",
    DirectionLabel.RIGHT: "right",
    DirectionLabel.LEFT: "left",
    DirectionLabel.LEFT_U_TURN: "left U-turn",
}

SPEED_PHRASE = {
    SpeedCategory.VERY_SLOW: "very slow",
    SpeedCategory.SLOW: "slow",
    SpeedCategory.MODERATE: "moderate",
    SpeedCategory.FAST: "fast",
    SpeedCategory.VERY_FAST: "very fast",
}

ACCEL_PHRASE = {
    AccelCategory.CONSTANT: "constant velocity",
    AccelCategory.MILD_ACCEL: "mild acceleration",
    AccelCategory.MODERATE_ACCEL: "moderate acceleration",
    AccelCategory.AGGRESSIVE_ACCEL: "aggressive acceleration",
    AccelCategory.EXTREME_ACCEL: "extreme acceleration",
    AccelCategory.MILD_DECEL: "mild deceleration",
    AccelCategory.MODERATE_DECEL: "moderate deceleration",
    AccelCategory.AGGRESSIVE_DECEL: "aggressive deceleration",
    AccelCategory.EXTREME_DECEL: "extreme deceleration",
}


class Decision(enum.Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


def render_instruction(direction: DirectionLabel) -> str:
    return f"Reach the final direction: {DIRECTION_PHRASE[direction]}."


def render_caption(
    direction: DirectionLabel, two_step: Optional[tuple[StepAttributes, StepAttributes]] = None
) -> str:
    """Accept-side caption; the two wayfinding steps appear when available."""
    text = f"[Accept] Final direction: {DIRECTION_PHRASE[direction]}."
    if two_step is not None:
        for i, (d, s, a) in enumerate(two_step, start=1):
            text += f" Step {i}: {DIRECTION_PHRASE[d]}, {SPEED_PHRASE[s]}, {ACCEL_PHRASE[a]}."
    return text


def render_reject_caption(direction: DirectionLabel) -> str:
    return f"[Reject] The instruction {DIRECTION_PHRASE[direction]} is infeasible."


def render_behavior_caption(safety: Safety, template: str) -> str:
    token = "[Accept]" if safety is Safety.SAFE else "[Reject]"
    return f"{token} {template}"


_STEP_FIELDS = ("direction", "speed", "acceleration")


@dataclass(frozen=True, eq=False)
class InstructionRecord:
    """One dataset row; exactly one of feas_tag / safety_tag is present. The GT future is a
    read-only (T, 2) float array of finite numbers (at most ``core.MAX_ABS`` in magnitude) with an
    optional (T,) bool validity mask."""

    scenario_id: str
    focal_agent_id: str
    instruction_text: str
    caption_text: str
    decision: Decision
    feas_tag: Optional[FeasTag] = None
    safety_tag: Optional[Safety] = None
    direction: Optional[DirectionLabel] = None
    behavior: Optional[BehaviorLabel] = None
    two_step: Optional[tuple[StepAttributes, StepAttributes]] = None
    has_gt_trajectory: bool = False
    gt_future_xy: Optional[np.ndarray] = None
    gt_future_valid: Optional[np.ndarray] = None
    with_context: Optional[bool] = None

    __eq__ = _equal_by_value

    def __post_init__(self) -> None:
        if (self.feas_tag is None) == (self.safety_tag is None):
            raise SchemaError("exactly one of feas_tag / safety_tag must be present")
        if self.feas_tag is not None:
            should_accept = self.feas_tag in (FeasTag.GT, FeasTag.F)
        else:
            should_accept = self.safety_tag is Safety.SAFE
        if (self.decision is Decision.ACCEPT) != should_accept:
            raise SchemaError(f"decision {self.decision.value} inconsistent with tag")
        if self.two_step is not None and len(self.two_step) != 2:
            raise SchemaError(f"two_step must hold exactly 2 steps, got {len(self.two_step)}")
        if not isinstance(self.has_gt_trajectory, bool):
            raise SchemaError("has_gt_trajectory must be true or false")
        if self.has_gt_trajectory and self.gt_future_xy is None:
            raise SchemaError("has_gt_trajectory rows must carry gt_future_xy")
        if self.gt_future_xy is not None:
            xy = _json_array(self.gt_future_xy, "gt_future_xy")
            if xy.ndim != 2 or xy.shape[1] != 2:
                raise SchemaError(f"gt_future_xy must be (T, 2), got {xy.shape}")
            object.__setattr__(self, "gt_future_xy", xy)
        if self.gt_future_valid is not None:
            valid = _json_mask(self.gt_future_valid, "gt_future_valid")
            if self.gt_future_xy is None or valid.shape != (len(self.gt_future_xy),):
                raise SchemaError("gt_future_valid must be (T,), one flag per gt_future_xy point")
            object.__setattr__(self, "gt_future_valid", valid)
        _optional_flag(self.with_context, "with_context")

    def to_obj(self) -> dict:
        obj: dict = {
            "scenario_id": self.scenario_id,
            "focal_agent_id": self.focal_agent_id,
            "instruction_text": self.instruction_text,
            "caption_text": self.caption_text,
            "decision": self.decision.value,
            "has_gt_trajectory": self.has_gt_trajectory,
        }
        if self.feas_tag is not None:
            obj["feas_tag"] = self.feas_tag.value
        if self.safety_tag is not None:
            obj["safety_tag"] = self.safety_tag.value
        if self.direction is not None:
            obj["direction"] = self.direction.value
        if self.behavior is not None:
            obj["behavior"] = self.behavior.value
        if self.two_step is not None:
            obj["two_step"] = [
                {"direction": d.value, "speed": s.value, "acceleration": a.value} for d, s, a in self.two_step
            ]
        if self.gt_future_xy is not None:
            obj["gt_future_xy"] = self.gt_future_xy.tolist()
        if self.gt_future_valid is not None:
            obj["gt_future_valid"] = self.gt_future_valid.tolist()
        if self.with_context is not None:
            obj["with_context"] = self.with_context
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "InstructionRecord":
        """One decoded dataset line; its arrays go to the constructor's checks unconverted."""
        if not isinstance(obj, dict):
            raise SchemaError("dataset row must be an object")
        _reject_extra(obj, cls.__dataclass_fields__)
        try:
            if not isinstance(obj["scenario_id"], str):
                raise TypeError("scenario_id must be a string")
            two_step = None
            if "two_step" in obj:
                for i, step in enumerate(obj["two_step"]):
                    if not isinstance(step, dict):
                        raise TypeError(f"two_step[{i}] must be an object")
                    _reject_extra(step, _STEP_FIELDS, f"two_step[{i}]")
                two_step = tuple(
                    (DirectionLabel(s["direction"]), SpeedCategory(s["speed"]), AccelCategory(s["acceleration"]))
                    for s in obj["two_step"]
                )
            return cls(
                scenario_id=obj["scenario_id"],
                focal_agent_id=obj["focal_agent_id"],
                instruction_text=obj["instruction_text"],
                caption_text=obj["caption_text"],
                decision=Decision(obj["decision"]),
                feas_tag=FeasTag(obj["feas_tag"]) if "feas_tag" in obj else None,
                safety_tag=Safety(obj["safety_tag"]) if "safety_tag" in obj else None,
                direction=DirectionLabel(obj["direction"]) if "direction" in obj else None,
                behavior=BehaviorLabel(obj["behavior"]) if "behavior" in obj else None,
                two_step=two_step,  # type: ignore[arg-type]
                has_gt_trajectory=obj.get("has_gt_trajectory", False),
                gt_future_xy=obj.get("gt_future_xy"),
                gt_future_valid=obj.get("gt_future_valid"),
                with_context=obj.get("with_context"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(f"bad instruction record: {exc}") from exc


def _gt_future(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    start, stop = scenario.horizon.future_window
    track = scenario.focal_track
    return track.xy[start:stop], track.valid_mask[start:stop]


def build_direction_row(
    scenario: Scenario,
    instructed: DirectionLabel,
    report: FeasibilityReport,
    rules: LabelRules = LabelRules(),
) -> InstructionRecord:
    """Compose feasibility tagging and templating into one dataset row, given
    the scenario's :func:`feasibility_set` report.

    GT rows carry the two-step caption and the ground-truth future trajectory;
    F rows accept without a step plan (no trajectory realizes them); IF rows
    reject.
    """
    tag = tag_instruction(report, instructed)
    common = dict(
        scenario_id=scenario.scenario_id,
        focal_agent_id=scenario.focal_agent_id,
        instruction_text=render_instruction(instructed),
        feas_tag=tag,
        direction=instructed,
    )
    if tag is FeasTag.GT:
        two_step = classify_two_step(scenario.focal_track, scenario.horizon, rules)
        xy, valid = _gt_future(scenario)
        return InstructionRecord(
            caption_text=render_caption(instructed, two_step),
            decision=Decision.ACCEPT,
            two_step=two_step,
            has_gt_trajectory=True,
            gt_future_xy=xy,
            gt_future_valid=valid,
            **common,
        )
    if tag is FeasTag.F:
        return InstructionRecord(caption_text=render_caption(instructed), decision=Decision.ACCEPT, **common)
    return InstructionRecord(caption_text=render_reject_caption(instructed), decision=Decision.REJECT, **common)


def build_direction_rows(
    scenario: Scenario,
    params: FeasibilityParams = FeasibilityParams(),
    rules: LabelRules = LabelRules(),
) -> list[InstructionRecord]:
    """One row per direction label (the GT row first, then F, then IF)."""
    report = feasibility_set(scenario, params, rules)
    rows = [build_direction_row(scenario, d, report, rules) for d in DirectionLabel]
    order = {FeasTag.GT: 0, FeasTag.F: 1, FeasTag.IF: 2}
    rows.sort(key=lambda r: (order[r.feas_tag], r.direction.value))  # type: ignore[union-attr]
    return rows


def build_behavior_row(
    scenario: Scenario,
    book: GuidelineBook,
    params: BehaviorParams = BehaviorParams(),
) -> InstructionRecord:
    """Safety-grounded row from the focal agent's own future behavior.

    The guideline template doubles as the instruction text; safe rows accept
    and carry the ground-truth trajectory that realizes the behavior.
    """
    if scenario.scenario_type is None:
        raise SchemaError(f"scenario {scenario.scenario_id} has no scenario_type for behavior mode")
    behavior = classify_behavior(scenario.focal_track, scenario.horizon, params)
    safety, template = label_safety(scenario.scenario_type, behavior, book)
    safe = safety is Safety.SAFE
    xy, valid = _gt_future(scenario) if safe else (None, None)
    return InstructionRecord(
        scenario_id=scenario.scenario_id,
        focal_agent_id=scenario.focal_agent_id,
        instruction_text=template,
        caption_text=render_behavior_caption(safety, template),
        decision=Decision.ACCEPT if safe else Decision.REJECT,
        safety_tag=safety,
        behavior=behavior,
        has_gt_trajectory=safe,
        gt_future_xy=xy,
        gt_future_valid=valid,
    )


@dataclass(frozen=True)
class SamplerConfig:
    """Training-mixture sampler settings.

    The draw path uses only integer arithmetic on a Mersenne Twister
    (``random.Random``) stream, so identical seeds reproduce identical row
    streams on every platform.
    """

    gt_fraction: float = 0.7
    if_fraction: float = 0.3
    class_balanced: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.gt_fraction <= 1.0 or not 0.0 <= self.if_fraction <= 1.0:
            raise SchemaError("mixture fractions must lie in [0, 1]")
        if abs(self.gt_fraction + self.if_fraction - 1.0) > 1e-9:
            raise SchemaError("gt_fraction + if_fraction must equal 1 in direction mode")


_LABEL_ORDER = tuple(DirectionLabel)
_GT_BITS = 53


def sample_training_mix(
    rows: Sequence[InstructionRecord], cfg: SamplerConfig, n_draws: int
) -> Iterator[InstructionRecord]:
    """Emit ``n_draws`` rows of a GT/IF training mixture with optional class balancing.

    Each draw picks a GT row with probability ``gt_fraction`` and an IF row
    otherwise. With ``class_balanced``, the GT draw first picks uniformly among
    the direction classes present (so minority classes are resampled), then a
    row within the class. Raises :class:`EmptyClass` up front when a needed
    pool is empty.
    """
    gt_rows = [r for r in rows if r.feas_tag is FeasTag.GT]
    if_rows = [r for r in rows if r.feas_tag is FeasTag.IF]
    by_class: dict[DirectionLabel, list[InstructionRecord]] = {}
    for r in gt_rows:
        by_class.setdefault(r.direction, []).append(r)  # type: ignore[arg-type]
    classes = [label for label in _LABEL_ORDER if label in by_class]

    if cfg.gt_fraction > 0 and not gt_rows:
        raise EmptyClass("mixture requests GT rows but none are available")
    if cfg.if_fraction > 0 and not if_rows:
        raise EmptyClass("mixture requests IF rows but none are available")

    rng = random.Random(cfg.seed)
    threshold = round(cfg.gt_fraction * (1 << _GT_BITS))
    for _ in range(n_draws):
        if rng.getrandbits(_GT_BITS) < threshold:
            if cfg.class_balanced:
                pool = by_class[classes[rng.randrange(len(classes))]]
            else:
                pool = gt_rows
            yield pool[rng.randrange(len(pool))]
        else:
            yield if_rows[rng.randrange(len(if_rows))]

