"""The synthetic generator: oracle equivalence, determinism, fixtures."""

import pytest

from motionkit import errors
from motionkit.attributes import extract_motion_attributes
from motionkit.behavior import classify_behavior
from motionkit.core import HorizonConfig
from motionkit.feasibility import feasibility_set
from motionkit.metrics import ifr_scenario
from motionkit.synth import (
    Phase,
    SynthSpec,
    TOPOLOGIES,
    default_suite,
    gen_lane_graph,
    gen_prediction_set,
    gen_scenario,
    gen_trajectory,
)

H = HorizonConfig()


class TestOracleEquivalence:
    def test_classifiers_match_analytic_labels_on_full_suite(self):
        mismatches = []
        for i, spec in enumerate(default_suite(500)):
            track, expected = gen_trajectory(spec, H)
            attrs = extract_motion_attributes(track, H)
            behavior = classify_behavior(track, H)
            if attrs.fine_direction is not expected.fine:
                mismatches.append((i, spec.kind, "fine", attrs.fine_direction, expected.fine))
            if attrs.direction is not expected.direction:
                mismatches.append((i, spec.kind, "direction", attrs.direction, expected.direction))
            if attrs.speed is not expected.speed:
                mismatches.append((i, spec.kind, "speed", attrs.speed, expected.speed))
            if attrs.acceleration is not expected.acceleration:
                mismatches.append((i, spec.kind, "accel", attrs.acceleration, expected.acceleration))
            if behavior is not expected.behavior:
                mismatches.append((i, spec.kind, "behavior", behavior, expected.behavior))
        assert mismatches == []

    def test_suite_spans_all_families(self):
        fines = {gen_trajectory(s, H)[1].fine.value for s in default_suite(100)}
        assert {"Straight", "Stationary", "LeftTurn", "RightTurn", "LeftUTurn", "RightUTurn"} <= fines
        assert fines & {"StraightVeerLeft", "StraightVeerRight"}


class TestDeterminism:
    def test_suite_is_seed_deterministic(self):
        assert default_suite(60, seed=21) == default_suite(60, seed=21)
        assert default_suite(60, seed=21) != default_suite(60, seed=22)

    def test_trajectory_is_reproducible(self):
        spec = SynthSpec(kind="u_turn", radius=1.1, angle_deg=168.0, speed=8.4)
        a, _ = gen_trajectory(spec, H)
        b, _ = gen_trajectory(spec, H)
        assert a == b


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(kind="teleport")

    def test_arc_angle_range(self):
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(kind="arc", angle_deg=250.0)
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(kind="arc", angle_deg=0.0)

    def test_arc_must_fit_window(self):
        with pytest.raises(errors.InvalidSpec):
            gen_trajectory(SynthSpec(kind="arc", radius=100.0, angle_deg=150.0, speed=5.0), H)

    def test_piecewise_needs_phases(self):
        with pytest.raises(errors.InvalidSpec):
            gen_trajectory(SynthSpec(kind="piecewise"), H)

    def test_piecewise_too_long(self):
        with pytest.raises(errors.InvalidSpec):
            gen_trajectory(SynthSpec(kind="piecewise", phases=(Phase(9.0, 5.0, 5.0),)), H)


class TestLaneFixtures:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_fixture_labels_realized(self, topology):
        fixture = gen_lane_graph(topology)
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s", H, topology=topology)
        report = feasibility_set(scenario)
        realized = set(report.feasible) | {report.gt_direction}
        assert fixture.expected_feasible <= realized

    def test_unknown_topology(self):
        with pytest.raises(errors.InvalidSpec):
            gen_lane_graph("roundabout")

    def test_lane_graphs_are_valid_model_objects(self):
        for topology in TOPOLOGIES:
            for lane in gen_lane_graph(topology).lanes:
                assert len(lane.xy) >= 2


class TestPredictionSets:
    @pytest.mark.parametrize("matches,expected", [(6, 1.0), (2, 2.0 / 6.0), (0, 0.0)])
    def test_controlled_match_counts(self, matches, expected):
        track, exp = gen_trajectory(SynthSpec(kind="straight", speed=10.0), H)
        preds = gen_prediction_set(track, exp.direction, match_count=matches, n_modes=6, horizon=H)
        assert ifr_scenario(exp.direction, preds, H.dt)[0] == pytest.approx(expected, abs=1e-12)

    def test_redirects_verified_for_every_label(self):
        specs = {
            "Straight": SynthSpec(kind="straight", speed=10.0),
            "Left": SynthSpec(kind="arc", radius=15.0, angle_deg=90.0, speed=8.0),
            "Right": SynthSpec(kind="arc", radius=15.0, angle_deg=-90.0, speed=8.0),
            "LeftUTurn": SynthSpec(kind="u_turn", radius=1.0, angle_deg=170.0, speed=8.5),
            "Stationary": SynthSpec(kind="straight", speed=0.0),
        }
        for name, spec in specs.items():
            track, exp = gen_trajectory(spec, H)
            assert exp.direction.value == name
            preds = gen_prediction_set(track, exp.direction, match_count=0, n_modes=3, horizon=H)
            assert ifr_scenario(exp.direction, preds, H.dt)[0] == 0.0

    def test_jitter_preserves_labels(self):
        track, exp = gen_trajectory(SynthSpec(kind="arc", radius=15.0, angle_deg=90.0, speed=8.0), H)
        preds = gen_prediction_set(
            track, exp.direction, match_count=4, n_modes=6, horizon=H, perturbation="jitter", seed=3
        )
        assert ifr_scenario(exp.direction, preds, H.dt)[0] == pytest.approx(4.0 / 6.0)

    def test_match_count_bounds(self):
        track, exp = gen_trajectory(SynthSpec(kind="straight", speed=10.0), H)
        with pytest.raises(errors.InvalidSpec):
            gen_prediction_set(track, exp.direction, match_count=7, n_modes=6, horizon=H)
