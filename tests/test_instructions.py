"""Templates, dataset rows, and the training-mixture sampler."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from motionkit import errors
from motionkit.attributes import AccelCategory, DirectionLabel, SpeedCategory
from motionkit.behavior import BehaviorLabel, Safety, load_default_guidelines
from motionkit.core import HorizonConfig
from motionkit.feasibility import FeasTag, feasibility_set
from motionkit.instructions import (
    Decision,
    InstructionRecord,
    SamplerConfig,
    build_behavior_row,
    build_direction_row,
    build_direction_rows,
    decision_for,
    render_caption,
    render_instruction,
    render_reject_caption,
    sample_training_mix,
)
from motionkit.synth import SynthSpec, gen_scenario

H = HorizonConfig()


class TestTemplates:
    @pytest.mark.parametrize(
        "direction,text",
        [
            (DirectionLabel.LEFT, "Reach the final direction: left."),
            (DirectionLabel.STATIONARY, "Reach the final direction: stationary."),
            (DirectionLabel.LEFT_U_TURN, "Reach the final direction: left U-turn."),
            (DirectionLabel.STRAIGHT, "Reach the final direction: straight."),
            (DirectionLabel.RIGHT, "Reach the final direction: right."),
        ],
    )
    def test_instruction(self, direction, text):
        assert render_instruction(direction) == text

    def test_accept_caption_with_steps(self):
        step = (DirectionLabel.STRAIGHT, SpeedCategory.SLOW, AccelCategory.CONSTANT)
        assert render_caption(DirectionLabel.STRAIGHT, (step, step)) == (
            "[Accept] Final direction: straight. "
            "Step 1: straight, slow, constant velocity. "
            "Step 2: straight, slow, constant velocity."
        )

    def test_reject_caption(self):
        assert render_reject_caption(DirectionLabel.RIGHT) == "[Reject] The instruction right is infeasible."

    def test_rendering_injective(self):
        seen = set()
        step_pool = list(
            itertools.product(list(DirectionLabel)[:3], list(SpeedCategory)[:3], list(AccelCategory)[:3])
        )
        for direction in DirectionLabel:
            for two_step in itertools.product(step_pool[:5], step_pool[:5]):
                seen.add(render_caption(direction, two_step))
            seen.add(render_caption(direction, None))
            seen.add(render_reject_caption(direction))
        assert len(seen) == len(DirectionLabel) * (25 + 2)


class TestRecordInvariants:
    def test_decision_must_match_feas_tag(self):
        with pytest.raises(errors.SchemaError):
            InstructionRecord(
                scenario_id="s",
                focal_agent_id="ego",
                instruction_text="i",
                caption_text="c",
                decision=Decision.REJECT,
                feas_tag=FeasTag.GT,
            )

    @pytest.mark.parametrize(
        "tag,decision",
        [
            (FeasTag.GT, Decision.ACCEPT),
            (FeasTag.F, Decision.ACCEPT),
            (FeasTag.IF, Decision.REJECT),
            (Safety.SAFE, Decision.ACCEPT),
            (Safety.UNSAFE, Decision.REJECT),
        ],
    )
    def test_decision_for_accepts_feasible_and_safe_tags(self, tag, decision):
        assert decision_for(tag) is decision

    def test_exactly_one_tag(self):
        with pytest.raises(errors.SchemaError):
            InstructionRecord(
                scenario_id="s",
                focal_agent_id="ego",
                instruction_text="i",
                caption_text="c",
                decision=Decision.ACCEPT,
                feas_tag=FeasTag.GT,
                safety_tag=Safety.SAFE,
            )
        with pytest.raises(errors.SchemaError):
            InstructionRecord(
                scenario_id="s",
                focal_agent_id="ego",
                instruction_text="i",
                caption_text="c",
                decision=Decision.ACCEPT,
            )

    GT_ROW = dict(
        scenario_id="s",
        focal_agent_id="ego",
        instruction_text="i",
        caption_text="c",
        decision=Decision.ACCEPT,
        feas_tag=FeasTag.GT,
        has_gt_trajectory=True,
    )

    @pytest.mark.parametrize(
        "change,message",
        [
            # a bool or string hidden in a list numpy promotes, or in an object array
            ({"gt_future_xy": [[True, 0.5], [1, 2]]}, "gt_future_xy must hold finite numbers"),
            ({"gt_future_xy": np.array([[["1.5", "2"]]], dtype=object)}, "gt_future_xy must hold finite numbers"),
            ({"gt_future_xy": np.ones((2, 2), dtype=bool)}, "gt_future_xy must hold finite numbers"),
            ({"gt_future_xy": [[1, np.nan], [1, 2]]}, "gt_future_xy must hold finite numbers of magnitude at most"),
            ({"gt_future_xy": [[1, 2], [3]]}, "gt_future_xy must nest lists of equal length"),
            ({"gt_future_xy": [[1, 2, 3]]}, "gt_future_xy must be (T, 2), got (1, 3)"),
            ({"gt_future_valid": [True, 0]}, "gt_future_valid must hold booleans"),
            ({"gt_future_valid": [True]}, "gt_future_valid must be (T,)"),
        ],
    )
    def test_rejects_bad_arrays(self, change, message):
        fields = self.GT_ROW | {"gt_future_xy": [[0, 1], [2, 3]], "gt_future_valid": [True, False]} | change
        with pytest.raises(errors.SchemaError, match=re.escape(message)):
            InstructionRecord(**fields)

    @pytest.mark.parametrize("name", ["scenario_id", "focal_agent_id", "instruction_text", "caption_text"])
    def test_text_fields_must_be_strings(self, name):
        with pytest.raises(errors.SchemaError, match=f"^{name} must be a string$"):
            InstructionRecord(**(self.GT_ROW | {name: 7}), gt_future_xy=[[0, 1], [2, 3]])

    STEP = (DirectionLabel.STRAIGHT, SpeedCategory.SLOW, AccelCategory.CONSTANT)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"decision": "Accept"}, "decision must be a Decision, got 'Accept'"),
            ({"decision": None}, "decision must be a Decision, got None"),
            ({"feas_tag": "GT"}, "feas_tag must be a FeasTag or None, got 'GT'"),
            ({"feas_tag": Safety.SAFE}, "feas_tag must be a FeasTag or None"),
            ({"safety_tag": "Safe"}, "safety_tag must be a Safety or None, got 'Safe'"),
            ({"direction": "Straight"}, "direction must be a DirectionLabel or None, got 'Straight'"),
            ({"behavior": 3}, "behavior must be a BehaviorLabel or None, got 3"),
            ({"two_step": 5}, "two_step must be a tuple of 2 StepAttributes, got 5"),
            ({"two_step": (STEP, STEP[:2])}, "two_step[1] must be a StepAttributes, got (<DirectionLabel.STRAIGHT"),
            ({"two_step": (STEP, ("Straight", "Slow", "Constant"))}, "two_step[1].direction must be a DirectionLabel"),
            (
                {"two_step": (STEP, (SpeedCategory.SLOW, DirectionLabel.STRAIGHT, AccelCategory.CONSTANT))},
                "two_step[1].direction must be a DirectionLabel, got <SpeedCategory.SLOW",
            ),
            ({"two_step": (STEP, DirectionLabel.STRAIGHT)}, "two_step[1] must be a StepAttributes, got <Direction"),
        ],
    )
    def test_a_record_built_in_code_checks_its_labels(self, change, message):
        """A wrong label type raises SchemaError, never AttributeError or TypeError."""
        with pytest.raises(errors.SchemaError, match=re.escape(message)):
            InstructionRecord(**(self.GT_ROW | change), gt_future_xy=[[0, 1], [2, 3]])

    def test_two_step_built_from_plain_tuples_encodes_as_decoded(self):
        step = (DirectionLabel.STRAIGHT, SpeedCategory.SLOW, AccelCategory.CONSTANT)
        row = InstructionRecord(**self.GT_ROW, two_step=(step, step), gt_future_xy=[[0, 1], [2, 3]])
        obj = row.to_obj()
        assert obj["two_step"] == [{"direction": "Straight", "speed": "Slow", "acceleration": "Constant"}] * 2
        assert InstructionRecord.from_obj(obj) == row

    @pytest.mark.parametrize(
        "xy,valid",
        [
            (((0, 1.5), (2, 3)), (True, False)),  # tuples, as a caller builds them from .tolist()
            ([[np.float64(0), np.float64(1.5)], [2, 3]], [np.True_, np.False_]),
            (np.array([[0, 1], [2, 3]]), np.array([True, False])),
        ],
        ids=["tuples", "numpy_scalars", "int_arrays"],
    )
    def test_accepts_tuples_numpy_scalars_and_int_arrays(self, xy, valid):
        row = InstructionRecord(**self.GT_ROW, gt_future_xy=xy, gt_future_valid=valid)
        assert row.gt_future_xy.tolist() == np.array(xy, dtype=float).tolist()
        assert row.gt_future_valid.tolist() == [True, False]
        for array, dtype in ((row.gt_future_xy, float), (row.gt_future_valid, bool)):
            assert array.dtype == dtype and not array.flags.writeable

    def test_roundtrip(self):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s1", H, topology="t_junction")
        rows = build_direction_rows(scenario)
        for row in rows:
            again = InstructionRecord.from_obj(json.loads(json.dumps(row.to_obj())))
            assert again == row
            if again.has_gt_trajectory:
                columns = ((again.gt_future_xy, float, (H.t_pred, 2)), (again.gt_future_valid, bool, (H.t_pred,)))
                for column, dtype, shape in columns:
                    assert isinstance(column, np.ndarray) and column.dtype == dtype and column.shape == shape
                    assert not column.flags.writeable
        assert rows[0].has_gt_trajectory
        # a record without a GT future never equals one with it, whichever side is compared
        bare = dataclasses.replace(rows[0], has_gt_trajectory=False, gt_future_xy=None, gt_future_valid=None)
        with_gt = dataclasses.replace(rows[0], has_gt_trajectory=False)
        assert bare != with_gt and with_gt != bare


class TestBuildRows:
    def test_tags_match_report_on_junction(self):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s1", H, topology="t_junction")
        report = feasibility_set(scenario)
        rows = build_direction_rows(scenario)
        assert len(rows) == 5
        by_dir = {r.direction: r for r in rows}
        assert by_dir[report.gt_direction].feas_tag is FeasTag.GT
        for d in report.feasible:
            assert by_dir[d].feas_tag is FeasTag.F
        for d in report.infeasible:
            assert by_dir[d].feas_tag is FeasTag.IF

    def test_gt_row_accepts_with_trajectory(self):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s1", H)
        row = build_direction_row(scenario, DirectionLabel.STRAIGHT, feasibility_set(scenario))
        assert row.feas_tag is FeasTag.GT
        assert row.decision is Decision.ACCEPT
        assert row.has_gt_trajectory
        assert len(row.gt_future_xy) == H.t_pred
        assert row.two_step is not None

    def test_if_row_rejects_without_trajectory(self):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s1", H)
        row = build_direction_row(scenario, DirectionLabel.LEFT, feasibility_set(scenario))
        assert row.feas_tag is FeasTag.IF
        assert row.decision is Decision.REJECT
        assert not row.has_gt_trajectory
        assert row.caption_text == "[Reject] The instruction left is infeasible."

    def test_behavior_row_safe_and_unsafe(self):
        book = load_default_guidelines()
        slow, _ = gen_scenario(
            SynthSpec(kind="straight", speed=0.0),
            "s1",
            H,
            scenario_type="waiting_for_pedestrian_to_cross",
        )
        row = build_behavior_row(slow, book)
        assert row.behavior is BehaviorLabel.NOT_MOVING
        assert row.safety_tag is Safety.SAFE
        assert row.decision is Decision.ACCEPT
        assert row.caption_text.startswith("[Accept] Do not move; the vehicle should remain stationary")
        moving, _ = gen_scenario(
            SynthSpec(kind="straight", speed=10.0),
            "s2",
            H,
            scenario_type="waiting_for_pedestrian_to_cross",
        )
        row = build_behavior_row(moving, book)
        assert row.safety_tag is Safety.UNSAFE
        assert row.decision is Decision.REJECT
        assert row.caption_text.startswith("[Reject] ")

    def test_behavior_row_requires_scenario_type(self):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s1", H)
        with pytest.raises(errors.SchemaError):
            build_behavior_row(scenario, load_default_guidelines())


def _mini_rows(n_straight: int, n_left: int, n_if: int) -> list[InstructionRecord]:
    rows = []
    for i in range(n_straight):
        rows.append(
            InstructionRecord(
                scenario_id=f"st{i}",
                focal_agent_id="ego",
                instruction_text=render_instruction(DirectionLabel.STRAIGHT),
                caption_text="c",
                decision=Decision.ACCEPT,
                feas_tag=FeasTag.GT,
                direction=DirectionLabel.STRAIGHT,
            )
        )
    for i in range(n_left):
        rows.append(
            InstructionRecord(
                scenario_id=f"lf{i}",
                focal_agent_id="ego",
                instruction_text=render_instruction(DirectionLabel.LEFT),
                caption_text="c",
                decision=Decision.ACCEPT,
                feas_tag=FeasTag.GT,
                direction=DirectionLabel.LEFT,
            )
        )
    for i in range(n_if):
        rows.append(
            InstructionRecord(
                scenario_id=f"if{i}",
                focal_agent_id="ego",
                instruction_text=render_instruction(DirectionLabel.RIGHT),
                caption_text="c",
                decision=Decision.REJECT,
                feas_tag=FeasTag.IF,
                direction=DirectionLabel.RIGHT,
            )
        )
    return rows


class TestSampler:
    def test_balanced_two_class_counts(self):
        rows = _mini_rows(90, 10, 5)
        cfg = SamplerConfig(gt_fraction=1.0, if_fraction=0.0, class_balanced=True, seed=123)
        drawn = list(sample_training_mix(rows, cfg, n_draws=1000))
        straight = sum(1 for r in drawn if r.direction is DirectionLabel.STRAIGHT)
        left = sum(1 for r in drawn if r.direction is DirectionLabel.LEFT)
        assert straight + left == 1000
        assert abs(straight - 500) <= 50  # +-5% of the 500 expectation
        assert abs(left - 500) <= 50

    def test_gt_fraction_one_emits_no_if(self):
        rows = _mini_rows(10, 10, 10)
        cfg = SamplerConfig(gt_fraction=1.0, if_fraction=0.0, seed=0)
        assert all(r.feas_tag is FeasTag.GT for r in sample_training_mix(rows, cfg, 500))

    def test_same_seed_identical_stream(self):
        rows = _mini_rows(30, 10, 20)
        cfg = SamplerConfig(seed=777)
        a = [json.dumps(r.to_obj(), sort_keys=True) for r in sample_training_mix(rows, cfg, 400)]
        b = [json.dumps(r.to_obj(), sort_keys=True) for r in sample_training_mix(rows, cfg, 400)]
        assert a == b

    def test_empty_class_raised(self):
        rows = _mini_rows(10, 0, 0)  # no IF rows
        with pytest.raises(errors.EmptyClass):
            list(sample_training_mix(rows, SamplerConfig(seed=1), 10))

    def test_unbalanced_uses_raw_frequencies(self):
        rows = _mini_rows(90, 10, 5)
        cfg = SamplerConfig(gt_fraction=1.0, if_fraction=0.0, class_balanced=False, seed=5)
        drawn = list(sample_training_mix(rows, cfg, 2000))
        left = sum(1 for r in drawn if r.direction is DirectionLabel.LEFT)
        assert abs(left - 200) < 60  # ~10% of draws

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(errors.SchemaError):
            SamplerConfig(gt_fraction=0.7, if_fraction=0.4)
