"""Dataset-row assembly: instruction/caption templates, decision tokens, samplers.

Rows come in two modes. Direction mode carries a feasibility tag (GT / F / IF)
and accepts feasible instructions; behavior mode carries a safety tag and
accepts safe ones. :func:`decision_for` is that rule, for the rows built here
and for the accuracies a model's decisions are scored by. The English
templates below are normative for this repository's golden tests.
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
from .core import (
    Scenario,
    _check_fields,
    _equal_by_value,
    _json_array,
    _json_mask,
    _record_from_obj,
    _record_obj,
)
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


_ACCEPTED = frozenset({FeasTag.GT, FeasTag.F, Safety.SAFE})


def decision_for(tag: FeasTag | Safety) -> Decision:
    """The decision a row tagged ``tag`` carries: Accept for a feasible direction (GT or F) or a
    safe behavior, Reject otherwise."""
    return Decision.ACCEPT if tag in _ACCEPTED else Decision.REJECT


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
    return f"[{decision_for(safety).value}] {template}"


@dataclass(frozen=True, eq=False)
class InstructionRecord:
    """One dataset row; exactly one of feas_tag / safety_tag is present, and the decision is
    :func:`decision_for` of it. The GT future is a read-only (T, 2) float array of finite numbers
    (at most ``core.MAX_ABS`` in magnitude) with an optional (T,) bool validity mask."""

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
        _check_fields(self)
        if (self.feas_tag is None) == (self.safety_tag is None):
            raise SchemaError("exactly one of feas_tag / safety_tag must be present")
        if self.decision is not decision_for(self.feas_tag if self.safety_tag is None else self.safety_tag):
            raise SchemaError(f"decision {self.decision.value} inconsistent with tag")
        if self.two_step is not None:
            object.__setattr__(self, "two_step", tuple(map(StepAttributes._make, self.two_step)))
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

    def to_obj(self) -> dict:
        return _record_obj(self)

    from_obj = classmethod(_record_from_obj)  # one decoded dataset line


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
        decision=decision_for(tag),
        feas_tag=tag,
        direction=instructed,
    )
    if tag is FeasTag.GT:
        two_step = classify_two_step(scenario.focal_track, scenario.horizon, rules)
        xy, valid = _gt_future(scenario)
        return InstructionRecord(
            caption_text=render_caption(instructed, two_step),
            two_step=two_step,
            has_gt_trajectory=True,
            gt_future_xy=xy,
            gt_future_valid=valid,
            **common,
        )
    if tag is FeasTag.F:
        return InstructionRecord(caption_text=render_caption(instructed), **common)
    return InstructionRecord(caption_text=render_reject_caption(instructed), **common)


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
    decision = decision_for(safety)
    accepted = decision is Decision.ACCEPT
    xy, valid = _gt_future(scenario) if accepted else (None, None)
    return InstructionRecord(
        scenario_id=scenario.scenario_id,
        focal_agent_id=scenario.focal_agent_id,
        instruction_text=template,
        caption_text=render_behavior_caption(safety, template),
        decision=decision,
        safety_tag=safety,
        behavior=behavior,
        has_gt_trajectory=accepted,
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
        _check_fields(self)
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

