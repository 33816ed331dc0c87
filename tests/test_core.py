"""Scenario schema, ego-frame rotation, and angle wrapping."""

import copy
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionkit import core, errors
from motionkit.core import HorizonConfig, parse_scenario, serialize_scenario
from motionkit.geometry import (
    point_along_polyline,
    polyline_arclength,
    rotate_into_frame,
    wrap_angle,
)
from motionkit.synth import build_corpus

from agent_docs import HEADING, POINT, agent_mutations, minimal_doc, three_agent_docs


def normalize_heading(theta: float) -> float:
    """Test oracle: the scalar form of ``core._normalize_headings``, which parse applies."""
    return theta if -math.pi < theta <= math.pi else wrap_angle(theta)


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


def _edit(path: tuple, value):
    """A ``minimal_doc`` with the field at ``path`` set to ``value``."""

    def edited() -> dict:
        doc = minimal_doc()
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        return doc

    return edited


def _duplicate(key: str):
    """A ``minimal_doc`` whose first ``key`` entry appears twice."""

    def edited() -> dict:
        doc = minimal_doc()
        doc[key].append(copy.deepcopy(doc[key][0]))
        return doc

    return edited


class TestScenarioRejections:
    """Each scenario-level rejection: its error class and its whole message, field path included."""

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (_duplicate("agents"), errors.ReferenceError, "scenario s1: duplicate agent_id"),
            (_duplicate("lanes"), errors.ReferenceError, "scenario s1: duplicate lane_id"),
            (_edit(("lanes", 0), 5), errors.SchemaError, "scenario s1.lanes[0]: lane must be an object"),
            (
                _edit(("lanes", 0, "speed_limit_kmh"), -1.0),
                errors.SchemaError,
                "scenario s1.lanes[0]: speed_limit_kmh must be >= 0",
            ),
            (
                _edit(("lanes", 0, "successors"), "lane_b"),
                errors.SchemaError,
                "scenario s1.lanes[0]: successors must be a list of lane ids",
            ),
            (
                _edit(("lanes", 0, "successors"), [1]),
                errors.SchemaError,
                "scenario s1.lanes[0]: successors must be a list of lane ids",
            ),
            (
                _edit(("lanes", 0, "left_neighbor"), 3),
                errors.SchemaError,
                "scenario s1.lanes[0]: left_neighbor must be a string or null",
            ),
            (_edit(("scenario_type",), 3), errors.SchemaError, "scenario s1: scenario_type must be a string or null"),
            (lambda: [], errors.SchemaError, "scenario document must be a JSON object"),
            (
                _edit(("horizon", "t_select"), [2.5]),
                errors.SchemaError,
                "scenario s1.horizon: t_select must be a list of integers",
            ),
            (_edit(("lanes",), {}), errors.SchemaError, "scenario s1: field 'lanes' has wrong type dict"),
            (
                _edit(("horizon", "t_obs"), 1),
                errors.SchemaError,
                "scenario s1.horizon: t_obs must be >= 2 (heading inference needs two points)",
            ),
            (
                _edit(("horizon", "t_select"), [3]),
                errors.SchemaError,
                "scenario s1.horizon: t_select entry 3 outside [0, 3)",
            ),
            (
                _edit(("horizon", "dt"), 0),
                errors.SchemaError,
                "scenario s1.horizon: dt must be a positive number of magnitude at most 1e+09",
            ),
            (
                _edit(("horizon", "dt"), "0.1"),
                errors.SchemaError,
                "scenario s1.horizon: field 'dt' must be a finite number of magnitude at most 1e+09",
            ),
            (
                _edit(("agents", 0, "agent_kind"), "robot"),
                errors.SchemaError,
                "scenario s1.agents[0]: unknown agent_kind 'robot'",
            ),
        ],
        ids=[
            "duplicate_agent_id",
            "duplicate_lane_id",
            "lane_not_object",
            "negative_speed_limit",
            "successors_not_list",
            "successors_not_strings",
            "left_neighbor_not_string",
            "scenario_type_not_string",
            "document_not_object",
            "t_select_not_integers",
            "lanes_not_list",
            "horizon_t_obs_1",
            "horizon_t_select_out_of_range",
            "horizon_dt_0",
            "horizon_dt_not_number",
            "unknown_agent_kind",
        ],
    )
    def test_rejection_message(self, make, error, message):
        with pytest.raises(errors.SchemaError) as info:
            parse_scenario(json.dumps(make()))
        assert type(info.value) is error
        assert str(info.value) == message


@st.composite
def scenario_docs(draw) -> dict:
    """Valid scenario documents: random tracks (invalid points, out-of-range
    headings, -0.0, integer coordinates) and a lane with distinct vertices."""
    n = draw(st.integers(min_value=3, max_value=12))
    t0 = draw(st.integers(min_value=-5, max_value=5))
    agents = []
    for a in range(draw(st.integers(min_value=1, max_value=3))):
        points = [dict(draw(POINT), t=t0 + i) for i in range(n)]
        kind = draw(st.sampled_from(["vehicle", "cyclist"]))
        agents.append({"agent_id": f"a{a}", "agent_kind": kind, "points": points})
    steps = draw(st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=1, max_size=5))
    xs = np.concatenate(([0.0], np.cumsum(steps))).tolist()
    centerline = [{"x": x, "y": 0.0, "heading": draw(HEADING)} for x in xs]
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


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _on_point(i, edit):
    return lambda agent: edit(agent["points"][i])


# Single edits of one agent of minimal_doc(), each a different problem.
_AGENT_EDITS = {
    "extra_key": _set("extra", 1),
    "id_type": _set("agent_id", 7),
    "no_id": lambda agent: agent.pop("agent_id"),
    "kind_type": _set("agent_kind", None),
    "no_kind": lambda agent: agent.pop("agent_kind"),
    "unknown_kind": _set("agent_kind", "truck"),
    "points_type": _set("points", {}),
    "no_points": lambda agent: agent.pop("points"),
    "point_not_object": lambda agent: agent["points"].__setitem__(3, 5),
    "string_x": _on_point(1, _set("x", "1")),
    "nan_y": _on_point(2, _set("y", float("nan"))),
    "huge_heading": _on_point(0, _set("heading", 10**400)),
    "point_extra": _on_point(0, _set("extra", 0)),
    "no_valid": _on_point(4, lambda point: point.pop("valid")),
    "negative_speed": _on_point(1, _set("speed", -1.0)),
    "t_gap": _on_point(2, _set("t", 7)),
    "four_points": lambda agent: agent["points"].pop(),
    "one_point": lambda agent: agent.__setitem__("points", agent["points"][:1]),
}


def parse_scenario_per_agent(text: str):
    """The reference: ``parse_scenario`` with the column pass declining every document, so each
    agent is read on its own by ``core._read_agent``. A patch, not a fixture: hypothesis rejects
    function-scoped fixtures."""
    with mock.patch.object(core, "_agent_block", return_value=None):
        return parse_scenario(text)


def _outcome(parse, text: str):
    """The parsed scenario, or the type and message of the error parsing raised."""
    try:
        return parse(text)
    except errors.MotionKitError as exc:
        return type(exc).__name__, str(exc)


class TestBlockParse:
    """The one column pass over all agents against the per-agent reader ``core._read_agent``."""

    @given(three_agent_docs(), st.integers(min_value=0, max_value=2), agent_mutations())
    @settings(max_examples=300, deadline=None)
    def test_one_mutation_raises_what_the_per_agent_reader_raises(self, doc, k, mutation):
        _, edit = mutation
        doc["agents"][k] = edit(doc["agents"][k])
        text = json.dumps(doc)
        assert _outcome(parse_scenario, text) == _outcome(parse_scenario_per_agent, text)

    def test_two_problems_in_one_agent_raise_the_first_in_reading_order(self):
        """Every pair of these edits on agent 1: the reading order (keys, agent_id, points, kind,
        unknown kind, point count, t_index) decides which problem is raised, as it did."""
        for (name_a, edit_a), (name_b, edit_b) in itertools.permutations(_AGENT_EDITS.items(), 2):
            doc = minimal_doc()
            doc["agents"] += [dict(copy.deepcopy(doc["agents"][0]), agent_id=f"other-{i}") for i in range(2)]
            try:
                edit_a(doc["agents"][1])
                edit_b(doc["agents"][1])
            except (KeyError, TypeError, IndexError):  # the first edit removed what the second edits
                continue
            text = json.dumps(doc)
            assert _outcome(parse_scenario, text) == _outcome(parse_scenario_per_agent, text), (name_a, name_b)

    @given(three_agent_docs())
    @settings(max_examples=50, deadline=None)
    def test_valid_documents_build_the_same_tracks(self, doc):
        text = json.dumps(doc)
        s = parse_scenario(text)
        assert s == parse_scenario_per_agent(text)
        assert s.agents == parse_scenario_per_agent(text).agents
        assert s.xy.shape == (3, len(doc["agents"][0]["points"]), 2)

    @staticmethod
    def _four_agents() -> dict:
        scenario, _ = build_corpus(1, seed=3)[0]
        doc = json.loads(serialize_scenario(scenario))
        ego = doc["agents"][0]
        doc["agents"] += [dict(ego, agent_id=f"other-{i}", points=[dict(p) for p in ego["points"]]) for i in range(3)]
        return doc

    def test_a_field_error_wins_over_an_earlier_short_track(self):
        doc = self._four_agents()
        doc["agents"][1]["points"].pop()  # 90 points where the horizon asks for 91
        doc["agents"][3]["points"][5]["x"] = "bad"
        text = json.dumps(doc)
        message = "scenario synth-000000.agents[3].points[5]: field 'x' must be a finite number"
        with pytest.raises(errors.SchemaError, match=re.escape(message)):
            parse_scenario(text)
        assert _outcome(parse_scenario, text) == _outcome(parse_scenario_per_agent, text)

    def test_a_lane_error_wins_over_unequal_point_counts(self):
        doc = self._four_agents()
        doc["agents"][1]["points"].pop()
        doc["lanes"][0]["successors"] = ["nowhere"]
        text = json.dumps(doc)
        with pytest.raises(errors.ReferenceError, match="references unknown lane 'nowhere'"):
            parse_scenario(text)
        assert _outcome(parse_scenario, text) == _outcome(parse_scenario_per_agent, text)
        doc["lanes"][0]["successors"] = []
        with pytest.raises(errors.SchemaError, match="agent other-0 has 90 points, horizon requires 91"):
            parse_scenario(json.dumps(doc))

    def test_no_agents_is_a_missing_focal_agent(self):
        doc = minimal_doc(agents=[])
        with pytest.raises(errors.ReferenceError, match="focal_agent_id 'ego' not among agents"):
            parse_scenario(json.dumps(doc))

    def test_tracks_are_views_of_the_block(self):
        s = parse_scenario(json.dumps(self._four_agents()))
        assert s.focal_track is s.focal_track and s.focal_track == s.agents[0]
        for a, track in enumerate(s.agents):
            assert track.agent_id == s.agent_ids[a]
            columns = (track.xy, track.headings, track.speeds, track.valid_mask)
            for column, block in zip(columns, (s.xy, s.headings, s.speeds, s.valid)):
                assert np.shares_memory(column, block)
                assert not column.flags.writeable and not block.flags.writeable


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

    @pytest.mark.parametrize("dt", [True, 1e10, "0.1"])
    def test_dt_must_be_a_number_within_the_limit(self, dt):
        with pytest.raises(errors.SchemaError, match="dt must be a positive number of magnitude at most 1e"):
            HorizonConfig(dt=dt)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"t_select": (True, 2.7)}, "t_select entry True is not an integer"),
            ({"t_select": (29, 2.0)}, "t_select entry 2.0 is not an integer"),
            ({"t_obs": 11.0}, "t_obs and t_pred must be integers"),
            ({"t_pred": True}, "t_obs and t_pred must be integers"),
        ],
        ids=["bool_select", "float_select", "float_t_obs", "bool_t_pred"],
    )
    def test_step_fields_must_be_integers(self, kwargs, message):
        with pytest.raises(errors.SchemaError, match=message):
            HorizonConfig(**kwargs)

    def test_t_select_is_stored_as_given(self):
        assert HorizonConfig(t_select=[2, 5]).t_select == (2, 5)


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
