"""Scenario schema, ego-frame rotation, and angle wrapping."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionkit import errors
from motionkit.core import HorizonConfig, parse_scenario, serialize_scenario
from motionkit.geometry import (
    normalize_heading,
    point_along_polyline,
    polyline_arclength,
    rotate_into_frame,
    wrap_angle,
)
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
        assert -math.pi < s.agents[0].headings[0] <= math.pi

    @pytest.mark.parametrize("token", ["1e400", "1" + "0" * 400])
    def test_out_of_range_numbers_rejected(self, token):
        doc = minimal_doc()
        doc["agents"][0]["points"][3]["y"] = "__big__"
        with pytest.raises(errors.SchemaError, match=r"points\[3\]: field 'y' must be a finite number"):
            parse_scenario(json.dumps(doc).replace('"__big__"', token))

    def test_roundtrip_over_generated_corpus(self):
        for scenario, _ in build_corpus(100, seed=3):
            again = parse_scenario(serialize_scenario(scenario))
            assert again == scenario


_COORD = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-1000, max_value=1000),
    st.just(-0.0),
)
_HEADING = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0), st.integers(-7, 7), st.sampled_from([-math.pi, math.pi])
)
_POINT = st.fixed_dictionaries(
    {
        "x": _COORD,
        "y": _COORD,
        "heading": _HEADING,
        "speed": st.one_of(st.floats(min_value=0.0, max_value=100.0), st.integers(0, 50)),
        "valid": st.booleans(),
    }
)


@st.composite
def scenario_docs(draw) -> dict:
    """Valid scenario documents: random tracks (invalid points, out-of-range
    headings, -0.0, integer coordinates) and a lane with distinct vertices."""
    n = draw(st.integers(min_value=3, max_value=12))
    t0 = draw(st.integers(min_value=-5, max_value=5))
    agents = []
    for a in range(draw(st.integers(min_value=1, max_value=3))):
        points = [dict(draw(_POINT), t=t0 + i) for i in range(n)]
        kind = draw(st.sampled_from(["vehicle", "cyclist"]))
        agents.append({"agent_id": f"a{a}", "agent_kind": kind, "points": points})
    steps = draw(st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=1, max_size=5))
    xs = np.concatenate(([0.0], np.cumsum(steps))).tolist()
    centerline = [{"x": x, "y": 0.0, "heading": draw(_HEADING)} for x in xs]
    return {
        "scenario_id": "h",
        "focal_agent_id": "a0",
        "horizon": {"t_obs": 2, "t_pred": n - 2, "t_select": [0], "dt": 0.1},
        "agents": agents,
        "lanes": [{"lane_id": "l0", "successors": [], "centerline": centerline, "speed_limit_kmh": 50}],
    }


class TestColumnarRoundTrip:
    @given(scenario_docs())
    @settings(max_examples=150, deadline=None)
    def test_parse_serialize_parse(self, doc):
        s = parse_scenario(json.dumps(doc))
        text = serialize_scenario(s)
        again = parse_scenario(text)
        assert again == s
        assert serialize_scenario(again) == text

        for track, raw in zip(s.agents, doc["agents"]):
            points = raw["points"]
            assert track.t0 == points[0]["t"]
            assert track.xy.tolist() == [[float(p["x"]), float(p["y"])] for p in points]
            assert track.speeds.tolist() == [float(p["speed"]) for p in points]
            assert track.valid_mask.tolist() == [p["valid"] for p in points]
            # in-range headings are kept bit for bit, out-of-range ones wrapped
            assert track.headings.tolist() == [normalize_heading(float(p["heading"])) for p in points]
            for column in (track.xy, track.headings, track.speeds, track.valid_mask):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 0
        lane = s.lanes[0]
        assert not lane.xy.flags.writeable and not lane.headings.flags.writeable


class TestHorizonConfig:
    def test_t_select_bounds(self):
        with pytest.raises(errors.SchemaError):
            HorizonConfig(t_pred=10, t_select=(10,))

    def test_t_obs_minimum(self):
        with pytest.raises(errors.SchemaError):
            HorizonConfig(t_obs=1)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0])
    def test_dt_positive_and_finite(self, dt):
        with pytest.raises(errors.SchemaError):
            HorizonConfig(dt=dt)


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


class TestPointAlongPolyline:
    XY = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0], [-1.0, 10.0]])

    def test_vertices_and_segment_headings(self):
        cum = polyline_arclength(self.XY)
        assert cum.tolist() == [0.0, 5.0, 11.0, 15.0]
        x, y, heading = point_along_polyline(self.XY, cum, cum[:-1])
        assert np.stack([x, y], axis=1).tolist() == self.XY[:-1].tolist()
        assert heading.tolist() == [math.atan2(4.0, 3.0), math.atan2(6.0, 0.0), math.atan2(0.0, -4.0)]

    def test_interpolates_within_a_segment(self):
        x, y, heading = point_along_polyline(self.XY, polyline_arclength(self.XY), np.array([2.5, 8.0, 14.0]))
        assert x.tolist() == pytest.approx([1.5, 3.0, 0.0])
        assert y.tolist() == pytest.approx([2.0, 7.0, 10.0])
        assert heading.tolist() == [math.atan2(4.0, 3.0), math.pi / 2, math.pi]

    def test_clamps_at_both_ends(self):
        x, y, heading = point_along_polyline(self.XY, polyline_arclength(self.XY), np.array([-3.0, 15.0, 99.0]))
        assert x.tolist() == [0.0, -1.0, -1.0]
        assert y.tolist() == [0.0, 10.0, 10.0]
        assert heading.tolist() == [math.atan2(4.0, 3.0), math.pi, math.pi]

    def test_one_segment_and_one_vertex_lines(self):
        xy = np.array([[1.0, 1.0], [1.0, -1.0]])
        x, y, heading = point_along_polyline(xy, polyline_arclength(xy), np.array([0.0, 0.5, 2.0, 5.0]))
        assert x.tolist() == [1.0] * 4
        assert y.tolist() == [1.0, 0.5, -1.0, -1.0]
        assert heading.tolist() == [-math.pi / 2] * 4
        x, y, heading = point_along_polyline(xy[:1], np.array([0.0]), np.array([0.0]))
        assert (x.tolist(), y.tolist(), heading.tolist()) == ([1.0], [1.0], [0.0])

    def test_empty_grid(self):
        x, y, heading = point_along_polyline(self.XY, polyline_arclength(self.XY), np.array([]))
        assert x.shape == y.shape == heading.shape == (0,)


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
