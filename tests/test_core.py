"""Scenario schema, ego-frame rotation, and angle wrapping."""

import json
import math

import numpy as np
import pytest

from motionkit import errors
from motionkit.core import HorizonConfig, parse_scenario, serialize_scenario
from motionkit.geometry import rotate_into_frame, wrap_angle
from motionkit.synth import build_corpus


def minimal_doc(**overrides) -> dict:
    doc = {
        "scenario_id": "s1",
        "focal_agent_id": "ego",
        "horizon": {"t_obs": 2, "t_pred": 3, "t_select": [2], "dt": 0.1},
        "agents": [
            {
                "agent_id": "ego",
                "agent_kind": "vehicle",
                "points": [
                    {"t": i, "x": float(i), "y": 0.0, "heading": 0.0, "speed": 10.0, "valid": True}
                    for i in range(5)
                ],
            }
        ],
        "lanes": [
            {
                "lane_id": "lane_a",
                "successors": [],
                "centerline": [{"x": 0.0, "y": 0.0, "heading": 0.0}, {"x": 50.0, "y": 0.0, "heading": 0.0}],
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_minimal_document(self):
        s = parse_scenario(json.dumps(minimal_doc()))
        assert len(s.agents) == 1
        assert len(s.lanes) == 1
        assert s.horizon.t_obs == 2

    def test_missing_focal_agent_is_reference_error(self):
        with pytest.raises(errors.ReferenceError):
            parse_scenario(json.dumps(minimal_doc(focal_agent_id="ghost")))

    def test_dangling_successor(self):
        doc = minimal_doc()
        doc["lanes"][0]["successors"] = ["nowhere"]
        with pytest.raises(errors.ReferenceError):
            parse_scenario(json.dumps(doc))

    def test_extra_field_rejected(self):
        with pytest.raises(errors.SchemaError):
            parse_scenario(json.dumps(minimal_doc(bonus=1)))

    def test_wrong_type_rejected(self):
        doc = minimal_doc()
        doc["agents"][0]["points"][0]["x"] = "zero"
        with pytest.raises(errors.SchemaError):
            parse_scenario(json.dumps(doc))

    def test_negative_speed_rejected(self):
        doc = minimal_doc()
        doc["agents"][0]["points"][0]["speed"] = -1.0
        with pytest.raises(errors.SchemaError):
            parse_scenario(json.dumps(doc))

    def test_nonmonotonic_t_index(self):
        doc = minimal_doc()
        doc["agents"][0]["points"][2]["t"] = 0
        with pytest.raises(errors.GeometryError):
            parse_scenario(json.dumps(doc))

    def test_degenerate_centerline(self):
        doc = minimal_doc()
        doc["lanes"][0]["centerline"] = [{"x": 0.0, "y": 0.0, "heading": 0.0}] * 2
        with pytest.raises(errors.GeometryError):
            parse_scenario(json.dumps(doc))

    def test_point_count_must_match_horizon(self):
        doc = minimal_doc()
        doc["agents"][0]["points"] = doc["agents"][0]["points"][:4]
        with pytest.raises(errors.SchemaError):
            parse_scenario(json.dumps(doc))

    def test_bad_json_is_schema_error(self):
        with pytest.raises(errors.SchemaError):
            parse_scenario("{not json")

    def test_headings_normalized_on_input(self):
        doc = minimal_doc()
        doc["agents"][0]["points"][0]["heading"] = 7.0
        s = parse_scenario(json.dumps(doc))
        assert -math.pi < s.agents[0].points[0].heading <= math.pi

    def test_roundtrip_over_generated_corpus(self):
        for scenario, _ in build_corpus(100, seed=3):
            again = parse_scenario(serialize_scenario(scenario))
            assert again == scenario


class TestHorizonConfig:
    def test_t_select_bounds(self):
        with pytest.raises(errors.SchemaError):
            HorizonConfig(t_pred=10, t_select=(10,))

    def test_t_obs_minimum(self):
        with pytest.raises(errors.SchemaError):
            HorizonConfig(t_obs=1)


class TestEgoFrame:
    def test_anchor_maps_to_origin(self):
        lon, lat = rotate_into_frame(np.array([[3.0, 4.0]]), (3.0, 4.0), 0.7)[0]
        assert (lon, lat) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_point_straight_ahead(self):
        lon, lat = rotate_into_frame(np.array([[10.0, 0.0]]), (0.0, 0.0), 0.0)[0]
        assert (lon, lat) == pytest.approx((10.0, 0.0), abs=1e-12)

    def test_left_of_rotated_anchor(self):
        # anchor heading 90 deg at (2, 1); the map point (2 - 5, 1) sits 5 m to its left
        lon, lat = rotate_into_frame(np.array([[-3.0, 1.0]]), (2.0, 1.0), math.pi / 2)[0]
        assert (lon, lat) == pytest.approx((0.0, 5.0), abs=1e-12)

    def test_isometry_under_random_anchors(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            xy = rng.uniform(-50, 50, size=(12, 2))
            heading = float(rng.uniform(-math.pi, math.pi))
            out = rotate_into_frame(xy, xy[3], heading)
            orig = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)
            new = np.linalg.norm(out[:, None, :] - out[None, :, :], axis=2)
            assert np.max(np.abs(orig - new)) < 1e-9


class TestWrapAngle:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi / 2, -math.pi / 2), (2 * math.pi, 0.0)],
    )
    def test_values(self, theta, expected):
        assert wrap_angle(theta) == pytest.approx(expected, abs=1e-12)

    def test_range_half_open(self):
        for theta in np.linspace(-10, 10, 1001):
            w = wrap_angle(float(theta))
            assert -math.pi < w <= math.pi
