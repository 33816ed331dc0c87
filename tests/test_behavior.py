"""Meta-behavior classification and guideline-book safety lookup."""

import dataclasses
import json

import pytest

from motionkit import errors
from motionkit.behavior import (
    BehaviorLabel,
    BehaviorParams,
    Safety,
    classify_behavior,
    label_safety,
    load_default_guidelines,
    load_guidelines,
)
from motionkit.core import HorizonConfig

from tracks import future_speed_track

H = HorizonConfig()

PEDESTRIAN_TEMPLATE = "Do not move; the vehicle should remain stationary while a pedestrian is crossing"


def ramp(v0: float, v1: float, n: int) -> list[float]:
    return [v0 + (v1 - v0) * k / (n - 1) for k in range(n)]


def canonical_profiles() -> dict[BehaviorLabel, list[float]]:
    n = H.t_pred
    half = n // 2
    return {
        BehaviorLabel.NOT_MOVING: [0.0] * n,
        # 10 m/s braking to rest with the final second parked
        BehaviorLabel.STOPPING: ramp(10.0, 0.0, n - 15) + [0.0] * 15,
        # parked for two seconds, then pulling away
        BehaviorLabel.WAITING_THEN_MOVING: [0.0] * 20 + ramp(0.0, 8.0, n - 20),
        BehaviorLabel.SLOWING_DOWN: ramp(10.0, 6.0, n),
        BehaviorLabel.SPEEDING_UP: ramp(6.0, 10.0, n),
        BehaviorLabel.SLOWING_THEN_SPEEDING: ramp(10.0, 4.0, half) + ramp(4.0, 10.0, n - half),
        BehaviorLabel.SPEEDING_THEN_SLOWING: ramp(4.0, 10.0, half) + ramp(10.0, 4.0, n - half),
        BehaviorLabel.MAINTAINING_SPEED: [8.0] * n,
    }


class TestClassifyBehavior:
    @pytest.mark.parametrize("label", list(BehaviorLabel))
    def test_canonical_profiles(self, label):
        track = future_speed_track(canonical_profiles()[label], H)
        assert classify_behavior(track, H) is label

    def test_insufficient_points(self):
        track = future_speed_track([5.0] * H.t_pred, H)
        valid = track.valid_mask.copy()
        start, stop = H.future_window
        valid[start + 1 : stop] = False
        broken = dataclasses.replace(track, valid_mask=valid)
        with pytest.raises(errors.InsufficientPoints):
            classify_behavior(broken, H)

    def test_decision_order_not_moving_beats_waiting(self):
        # all-zero speeds satisfy the waiting precondition too; NotMoving wins
        track = future_speed_track([0.0] * H.t_pred, H)
        assert classify_behavior(track, H) is BehaviorLabel.NOT_MOVING

    def test_scale_consistency(self):
        # same physical profile sampled at 5 Hz instead of 10 Hz
        coarse = HorizonConfig(t_obs=6, t_pred=40, t_select=(14, 24, 39), dt=0.2)
        for label, speeds in canonical_profiles().items():
            resampled = speeds[::2]
            track = future_speed_track(resampled, coarse)
            assert classify_behavior(track, coarse) is label

    def test_thresholds_configurable(self):
        # with a huge constant band everything trend-like collapses to maintaining
        params = BehaviorParams(delta_v_const_kmh=100.0)
        track = future_speed_track(ramp(6.0, 10.0, H.t_pred), H)
        assert classify_behavior(track, H, params) is BehaviorLabel.MAINTAINING_SPEED


class TestGuidelineBook:
    def test_default_book_loads_14_types_and_8_behaviors(self):
        book = load_default_guidelines()
        assert len(book.scenario_types) == 14
        for scenario_type in book.scenario_types:
            covered = {b for (t, b) in book.entries if t == scenario_type}
            assert covered == set(BehaviorLabel)

    def test_cap_error_on_11_safe_entries(self):
        # 11 safe entries can only arise with repeats; the cap still fires first
        entries = [
            {"behavior": list(BehaviorLabel)[i % 8].value, "safety": "safe", "template": f"ok {i}"}
            for i in range(11)
        ]
        doc = {"t": {"default": "unsafe", "entries": entries}}
        with pytest.raises(errors.CapError):
            load_guidelines(json.dumps(doc))

    def test_unknown_behavior_string(self):
        doc = {"t": {"default": "safe", "entries": [{"behavior": "Flying", "safety": "safe", "template": "x"}]}}
        with pytest.raises(errors.SchemaError):
            load_guidelines(json.dumps(doc))

    def test_coverage_error_without_default(self):
        doc = {"t": {"entries": [{"behavior": "NotMoving", "safety": "safe", "template": "x"}]}}
        with pytest.raises(errors.CoverageError):
            load_guidelines(json.dumps(doc))

    def test_duplicate_behavior_rejected(self):
        doc = {
            "t": {
                "default": "safe",
                "entries": [
                    {"behavior": "NotMoving", "safety": "safe", "template": "x"},
                    {"behavior": "NotMoving", "safety": "unsafe", "template": "y"},
                ],
            }
        }
        with pytest.raises(errors.SchemaError):
            load_guidelines(json.dumps(doc))


class TestLabelSafety:
    def test_pedestrian_crossing_not_moving_is_safe_with_template(self):
        book = load_default_guidelines()
        safety, template = label_safety("waiting_for_pedestrian_to_cross", BehaviorLabel.NOT_MOVING, book)
        assert safety is Safety.SAFE
        assert template == PEDESTRIAN_TEMPLATE

    def test_pedestrian_crossing_any_movement_unsafe(self):
        book = load_default_guidelines()
        for behavior in BehaviorLabel:
            if behavior is BehaviorLabel.NOT_MOVING:
                continue
            safety, _ = label_safety("waiting_for_pedestrian_to_cross", behavior, book)
            assert safety is Safety.UNSAFE, behavior

    def test_unknown_scenario_type(self):
        book = load_default_guidelines()
        with pytest.raises(errors.UnknownScenarioType):
            label_safety("time_travel", BehaviorLabel.NOT_MOVING, book)

    def test_default_fallback_synthesizes_template(self):
        doc = {"quiet_road": {"default": "safe", "entries": []}}
        book = load_guidelines(json.dumps(doc))
        safety, template = label_safety("quiet_road", BehaviorLabel.SPEEDING_UP, book)
        assert safety is Safety.SAFE
        assert "speeding up" in template.lower()
        assert "quiet road" in template
