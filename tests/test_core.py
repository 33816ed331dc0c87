"""Scenario schema, ego-frame rotation, and angle wrapping."""

import copy
import dataclasses
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

from agent_docs import HEADING, POINT, agent_mutations, centerline_mutations, minimal_doc, three_agent_docs
from scenario_oracle import scenario_to_obj


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
                "scenario s1.lanes[0]: speed_limit_kmh must be a number >= 0 of magnitude at most 1e+09",
            ),
            (
                _edit(("lanes", 0, "successors"), "lane_b"),
                errors.SchemaError,
                'scenario s1.lanes[0]: successors must be a list of strings, got "lane_b"',
            ),
            (
                _edit(("lanes", 0, "successors"), [1]),
                errors.SchemaError,
                "scenario s1.lanes[0]: successors must be a list of strings, got [1]",
            ),
            (
                _edit(("lanes", 0, "left_neighbor"), 3),
                errors.SchemaError,
                "scenario s1.lanes[0]: left_neighbor must be a string or None",
            ),
            (_edit(("scenario_type",), 3), errors.SchemaError, "scenario s1: scenario_type must be a string or None"),
            (lambda: [], errors.SchemaError, "scenario document must be a JSON object"),
            (
                _edit(("horizon", "t_select"), [2.5]),
                errors.SchemaError,
                "scenario s1.horizon: t_select must be a list of integers, got [2.5]",
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
                'scenario s1.horizon: dt must be a number, got "0.1"',
            ),
            (
                _edit(("agents", 0, "agent_kind"), "robot"),
                errors.SchemaError,
                "scenario s1.agents[0]: unknown agent_kind 'robot'",
            ),
            (
                _edit(("agents", 0, "points", 2, "t"), 0),
                errors.GeometryError,
                "scenario s1.agents[0]: agent ego: t_index must increase by exactly 1",
            ),
            (
                _edit(("agents", 0, "points"), [{"t": 0, "x": 0, "y": 0, "heading": 0, "speed": 0, "valid": True}]),
                errors.GeometryError,
                "scenario s1.agents[0]: agent ego: track needs >= 2 points",
            ),
            (
                _edit(("lanes", 0, "centerline"), [{"x": 0.0, "y": 0.0, "heading": 0.0}]),
                errors.GeometryError,
                "scenario s1.lanes[0]: lane lane_a: centerline needs >= 2 points",
            ),
            (
                _edit(("lanes", 0, "centerline"), [{"x": 1.0, "y": 2.0, "heading": 0.0}] * 2),
                errors.GeometryError,
                "scenario s1.lanes[0]: lane lane_a: consecutive centerline points must be distinct",
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
            "t_index_gap",
            "one_point_track",
            "one_vertex_centerline",
            "repeated_centerline_vertex",
        ],
    )
    def test_rejection_message(self, make, error, message):
        with pytest.raises(errors.MotionKitError) as info:
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


def parse_scenario_per_row(text: str):
    """The reference for both column passes: ``parse_scenario`` with ``core._columns`` declining
    every list of rows, which also declines ``core._agent_block``, so every agent is read by
    ``core._read_agent`` and every point and centerline vertex by ``core._read_row``."""
    with mock.patch.object(core, "_columns", return_value=None):
        return parse_scenario(text)


def _outcome(parse, text: str):
    """The parsed scenario, or the type and message of the error parsing raised."""
    try:
        return parse(text)
    except errors.MotionKitError as exc:
        return type(exc).__name__, str(exc)


def _same_outcome_everywhere(text: str):
    """The outcome of ``text``, after checking that both references give it too."""
    outcome = _outcome(parse_scenario, text)
    assert outcome == _outcome(parse_scenario_per_agent, text) == _outcome(parse_scenario_per_row, text)
    return outcome


_T_JUNCTION_DOCS = [json.loads(serialize_scenario(s)) for s, _ in build_corpus(6, seed=2, topology="t_junction")]


class TestBlockParse:
    """The column passes against the per-agent reader ``core._read_agent`` and the per-row reader
    ``core._read_row``."""

    @given(three_agent_docs(), st.integers(min_value=0, max_value=2), agent_mutations())
    @settings(max_examples=300, deadline=None)
    def test_one_mutation_raises_what_the_per_agent_reader_raises(self, doc, k, mutation):
        _, edit = mutation
        doc["agents"][k] = edit(doc["agents"][k])
        _same_outcome_everywhere(json.dumps(doc))

    @given(
        st.sampled_from(_T_JUNCTION_DOCS),
        st.one_of(
            st.tuples(st.just("agents"), st.just(0), agent_mutations()),
            st.tuples(st.just("lanes"), st.integers(min_value=0, max_value=2), centerline_mutations()),
            st.just(None),
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_point_and_lane_edits_read_alike_row_by_row(self, doc, mutation):
        """t_junction documents (one 91-point agent, three lanes), as built or with one agent or one
        centerline edited: the per-row reader builds what the column passes build, or raises what
        they raise."""
        doc = copy.deepcopy(doc)
        if mutation is not None:
            key, k, (_, edit) = mutation
            doc[key][k] = edit(doc[key][k])
        outcome = _same_outcome_everywhere(json.dumps(doc))
        if mutation is None:
            assert isinstance(outcome, core.Scenario) and len(outcome.lanes) == 3

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
            _same_outcome_everywhere(text)

    @given(three_agent_docs())
    @settings(max_examples=50, deadline=None)
    def test_valid_documents_build_the_same_tracks(self, doc):
        text = json.dumps(doc)
        s = parse_scenario(text)
        assert s == parse_scenario_per_agent(text) == parse_scenario_per_row(text)
        assert s.agents == parse_scenario_per_agent(text).agents == parse_scenario_per_row(text).agents
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
        _same_outcome_everywhere(text)

    def test_a_lane_error_wins_over_unequal_point_counts(self):
        doc = self._four_agents()
        doc["agents"][1]["points"].pop()
        doc["lanes"][0]["successors"] = ["nowhere"]
        text = json.dumps(doc)
        with pytest.raises(errors.ReferenceError, match="references unknown lane 'nowhere'"):
            parse_scenario(text)
        _same_outcome_everywhere(text)
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

    @pytest.mark.parametrize(
        "dt,message",
        [
            (True, "dt must be a number, got true"),
            (1e10, "dt must be a positive number of magnitude at most 1e"),
            ("0.1", 'dt must be a number, got "0.1"'),
        ],
        ids=["True", "1e10", "0.1"],
    )
    def test_dt_must_be_a_number_within_the_limit(self, dt, message):
        with pytest.raises(errors.SchemaError, match=re.escape(message)):
            HorizonConfig(dt=dt)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"t_select": (True, 2.7)}, "t_select must be a list of integers, got [true, 2.7]"),
            ({"t_select": (29, 2.0)}, "t_select must be a list of integers, got [29, 2.0]"),
            ({"t_obs": 11.0}, "t_obs must be an integer, got 11.0"),
            ({"t_pred": True}, "t_pred must be an integer, got true"),
        ],
        ids=["bool_select", "float_select", "float_t_obs", "bool_t_pred"],
    )
    def test_step_fields_must_be_integers(self, kwargs, message):
        with pytest.raises(errors.SchemaError, match=re.escape(message)):
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

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 3 * math.pi, -7 * math.pi / 2]),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_array_wrap_equals_the_scalar_wrap_bit_for_bit(self, thetas):
        """``numpy.remainder`` follows Python's float ``%``, so one call on a column gives each
        element's scalar wrap, bit for bit."""
        got = wrap_angle(np.array(thetas))
        assert got.tobytes() == np.array([wrap_angle(theta) for theta in thetas]).tobytes()


# Finite numbers a scenario may hold, from subnormals up to MAX_ABS, -0.0 and integral values.
_FINITE = st.one_of(
    st.floats(min_value=-core.MAX_ABS, max_value=core.MAX_ABS),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-7, 0.1, 1e9, -1e9, 123456789.12345679]),
    st.integers(-1000, 1000).map(float),
)
# Ids and types: any text, so non-ASCII, quotes, backslashes and U+2028 too.
_TEXT = st.text(max_size=6)


@st.composite
def scenarios(draw) -> core.Scenario:
    """Scenarios built in code: 1-20 agents with invalid steps and any first t_index, and 0-3
    lanes with every optional field present or absent. Each column mixes drawn numbers with
    seeded ones of magnitudes 1e-12 to 1e8."""
    horizon = HorizonConfig(
        t_obs=draw(st.integers(2, 4)), t_pred=draw(st.integers(1, 4)), t_select=(), dt=draw(st.sampled_from([0.1, 2]))
    )
    pool = draw(st.lists(_FINITE, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(*dims):
        seeded = rng.uniform(-1.0, 1.0, dims) * 10.0 ** rng.integers(-12, 9, dims)
        return np.where(rng.random(dims) < 0.5, rng.choice(pool, dims), seeded)

    ids = draw(st.lists(_TEXT, min_size=1, max_size=20, unique=True))
    shape = (len(ids), horizon.n_steps)
    lane_ids = draw(st.lists(_TEXT, max_size=3, unique=True))
    lanes = []
    for lane_id in lane_ids:
        xs = np.cumsum(rng.uniform(0.5, 1e6, rng.integers(2, 6)))
        neighbor = st.one_of(st.none(), st.sampled_from(lane_ids))
        lanes.append(
            core.Lane(
                lane_id,
                np.column_stack((xs, column(len(xs)))),
                column(len(xs)),
                speed_limit_kmh=draw(st.one_of(st.none(), st.floats(0.0, 200.0), st.integers(0, 200))),
                successors=tuple(draw(st.lists(st.sampled_from(lane_ids), max_size=2))),
                left_neighbor=draw(neighbor),
                right_neighbor=draw(neighbor),
            )
        )
    return core.Scenario(
        draw(_TEXT),
        draw(st.sampled_from(ids)),
        tuple(ids),
        tuple(rng.choice(sorted(core.AGENT_KINDS), len(ids)).tolist()),
        tuple(draw(st.lists(st.integers(-(2**40), 2**40), min_size=len(ids), max_size=len(ids)))),
        column(*shape, 2),
        column(*shape),
        np.abs(column(*shape)),
        rng.random(shape) < 0.7,
        tuple(lanes),
        horizon,
        draw(st.one_of(st.none(), _TEXT)),
    )


def _dumps(s: core.Scenario) -> str:
    return json.dumps(scenario_to_obj(s), sort_keys=True, separators=(",", ":"))


class TestWriter:
    SCENARIO = build_corpus(1, seed=4)[0][0]

    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_row_templates_write_the_json_dumps_bytes(self, s):
        assert serialize_scenario(s) == _dumps(s)

    def test_synth_corpora_write_the_json_dumps_bytes(self):
        for topology in ("single", "t_junction", "parallel_pair", "u_loop"):
            for s, _ in build_corpus(10, seed=4, topology=topology):
                assert serialize_scenario(s) == _dumps(s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5e9])
    @pytest.mark.parametrize("column", ["xy", "headings", "speeds", "lane xy", "lane headings", "speed_limit_kmh"])
    def test_a_number_no_line_could_hold_raises(self, column, bad):
        """A number outside ``core._bounded`` raises, naming the scenario, where ``json.dumps``
        wrote ``NaN``, ``Infinity`` or a number that parse rejects."""
        s, _ = build_corpus(1, seed=4)[0]
        lane = s.lanes[0]
        if column == "speed_limit_kmh":  # a Lane checks its own speed limit when it is built
            with pytest.raises(errors.SchemaError, match="^speed_limit_kmh must be a number"):
                dataclasses.replace(lane, speed_limit_kmh=bad)
            return
        if column.startswith("lane "):
            values = getattr(lane, column[5:]).copy()
            values.flat[5] = bad
            s = dataclasses.replace(s, lanes=(dataclasses.replace(lane, **{column[5:]: values}),))
        else:
            values = getattr(s, column).copy()
            values.flat[5] = bad
            s = dataclasses.replace(s, **{column: values})
        message = f"scenario synth-000000: agents and lanes must hold finite numbers {core.WITHIN}"
        with pytest.raises(errors.SchemaError, match=re.escape(message)):
            serialize_scenario(s)

    @given(
        speed=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, -1e-300, 0.0]),
        limit=st.none() | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, -1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_writer_raises_or_writes_a_line_that_parses(self, speed, limit):
        """A point speed and a lane speed limit drawn as any finite number: the lane refuses the
        limit when it is built, naming the field, ``serialize_scenario`` raises, naming the
        scenario, or ``parse_scenario`` reads its line back."""
        s = self.SCENARIO
        speeds = s.speeds.copy()
        speeds[0, 5] = speed
        try:
            s = dataclasses.replace(s, speeds=speeds, lanes=(dataclasses.replace(s.lanes[0], speed_limit_kmh=limit),))
            line = serialize_scenario(s)
        except errors.SchemaError as exc:
            assert str(exc).startswith(("scenario synth-000000: ", "speed_limit_kmh "))
            assert speed < 0 or abs(speed) > core.MAX_ABS or limit is not None and not 0 <= limit <= core.MAX_ABS
        else:
            assert parse_scenario(line) == s

    @pytest.mark.parametrize("t0", [2.5, 3.0, True])
    def test_a_first_t_index_that_is_not_an_integer_raises(self, t0):
        """``%d`` would write 2.5 as 2; ``json.dumps`` wrote a t that parse rejects."""
        s, _ = build_corpus(1, seed=4)[0]
        with pytest.raises(errors.SchemaError, match=r"^scenario synth-000000: t0 must be a list of integers, got \["):
            serialize_scenario(dataclasses.replace(s, t0=(t0,)))

    @pytest.mark.parametrize(
        "field,bad",
        [
            (field, bad)
            for field in ("scenario_id", "focal_agent_id", "agent_id", "lane_id", "scenario_type")
            for bad in (5, 2.5, True, None)
            if not (field == "scenario_type" and bad is None)  # None is no scenario_type
        ],
    )
    def test_an_id_or_scenario_type_that_is_not_a_string_raises(self, field, bad):
        """``json.dumps`` wrote a line that parse rejects: an id of another JSON type, or a
        ``scenario_type`` other than a string or null. A lane refuses such an id when it is built."""
        s, _ = build_corpus(1, seed=4)[0]
        if field == "lane_id":
            with pytest.raises(errors.SchemaError, match="^lane_id must be a string$"):
                dataclasses.replace(s.lanes[0], lane_id=bad)
            return
        focal = s.focal_track
        if field == "focal_agent_id":  # the focal agent's id, an AgentTrack built in code
            tracks, focal_id = [dataclasses.replace(focal, agent_id=bad)], bad
        else:  # a second agent, which may carry the bad id
            other = dataclasses.replace(focal, agent_id=bad if field == "agent_id" else "other")
            tracks, focal_id = [focal, other], focal.agent_id
        s = core.Scenario.from_tracks(s.scenario_id, focal_id, tracks, s.lanes, s.horizon, s.scenario_type)
        if field in ("scenario_id", "scenario_type"):
            s = dataclasses.replace(s, **{field: bad})
        message = f"scenario {s.scenario_id}: {'agent_ids' if field == 'agent_id' else field} must be "
        with pytest.raises(errors.SchemaError, match=f"^{re.escape(message)}"):
            serialize_scenario(s)

    @pytest.mark.parametrize("field", ["focal_agent_id", "agent_id", "lane_id"])
    @pytest.mark.parametrize("bad", [["a"], {"x": 1}], ids=["list", "object"])
    def test_an_unhashable_id_raises_when_the_scenario_is_built(self, field, bad):
        """The id checks put the ids in sets; an id that is a list or an object is a SchemaError. A
        lane refuses such an id when it is built."""
        s, _ = build_corpus(1, seed=4)[0]
        if field == "lane_id":
            with pytest.raises(errors.SchemaError, match="^lane_id must be a string$"):
                dataclasses.replace(s.lanes[0], lane_id=bad)
            return
        focal = s.focal_track
        if field == "focal_agent_id":
            tracks, focal_id = [dataclasses.replace(focal, agent_id=bad)], bad
        else:
            other = dataclasses.replace(focal, agent_id=bad if field == "agent_id" else "other")
            tracks, focal_id = [focal, other], focal.agent_id
        unhashable = f"unhashable type: '{type(bad).__name__}'"
        message = f"scenario {s.scenario_id}: agent and lane ids must be hashable ({unhashable})"
        with pytest.raises(errors.SchemaError, match=f"^{re.escape(message)}$"):
            core.Scenario.from_tracks(s.scenario_id, focal_id, tracks, s.lanes, s.horizon, s.scenario_type)


class TestLaneBuiltInCode:
    """A lane built in code is checked as a lane read from a line: each field holds its declared
    kind, ``successors`` is stored as a tuple and a speed limit lies in [0, MAX_ABS]."""

    XY, HEADINGS = [(0.0, 0.0), (10.0, 0.0)], [0.0, 0.0]

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"lane_id": 5}, "lane_id must be a string"),
            ({"successors": "b"}, 'successors must be a list of strings, got "b"'),
            ({"successors": ("b", None)}, 'successors must be a list of strings, got ["b", null]'),
            ({"left_neighbor": 3}, "left_neighbor must be a string or None"),
            ({"speed_limit_kmh": "50"}, 'speed_limit_kmh must be a number or None, got "50"'),
            ({"speed_limit_kmh": math.nan}, "speed_limit_kmh must be a number or None, got NaN"),
            ({"speed_limit_kmh": -1.0}, f"speed_limit_kmh must be a number >= 0 {core.WITHIN}"),
            ({"speed_limit_kmh": 1.5e9}, f"speed_limit_kmh must be a number >= 0 {core.WITHIN}"),
        ],
    )
    def test_a_field_of_the_wrong_kind_or_range_raises_naming_it(self, fields, message):
        with pytest.raises(errors.SchemaError) as info:
            core.Lane(**{"lane_id": "a", "xy": self.XY, "headings": self.HEADINGS, **fields})
        assert str(info.value) == message

    def test_successors_are_stored_as_a_tuple(self):
        lane = core.Lane("a", self.XY, self.HEADINGS, speed_limit_kmh=0, successors=["b", "c"])
        assert lane.successors == ("b", "c")
