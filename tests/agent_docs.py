"""Scenario documents as JSON objects, for the parse and CLI tests: a minimal valid document,
hypothesis strategies for valid three-agent documents, and one-agent, one-centerline, one lane
field or one top-level field edits that break them."""

from __future__ import annotations

import math

from hypothesis import strategies as st


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


_COORD = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-1000, max_value=1000),
    st.just(-0.0),
)
HEADING = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0), st.integers(-7, 7), st.sampled_from([-math.pi, math.pi])
)
POINT = st.fixed_dictionaries(
    {
        "x": _COORD,
        "y": _COORD,
        "heading": HEADING,
        "speed": st.one_of(st.floats(min_value=0.0, max_value=100.0), st.integers(0, 50)),
        "valid": st.booleans(),
    }
)


_AGENT_KEYS = ("agent_id", "agent_kind", "points")
_POINT_KEYS = ("t", "x", "y", "heading", "speed", "valid")
_FLOAT_KEYS = ("x", "y", "heading", "speed")
_OTHER_TYPES = st.sampled_from([None, True, "1", [], {}, 1.5, 2])


@st.composite
def three_agent_docs(draw) -> dict:
    """Valid documents with three agents of 4 to 8 points, each with its own first t_index. The
    focal agent ``a0`` has an all-valid future of 2 to 6 points, so ``extract`` labels a vehicle
    focal agent whose future halves hold 2 points each (a future of 4 or more)."""
    n = draw(st.integers(min_value=4, max_value=8))
    agents = []
    for a in range(3):
        t0 = draw(st.integers(min_value=-5, max_value=5))
        points = [dict(draw(POINT), t=t0 + i) for i in range(n)]
        if a == 0:
            for point in points[2:]:
                point["valid"] = True
        kind = draw(st.sampled_from(["vehicle", "cyclist"]))
        agents.append({"agent_id": f"a{a}", "agent_kind": kind, "points": points})
    horizon = {"t_obs": 2, "t_pred": n - 2, "t_select": [0], "dt": 0.1}
    return minimal_doc(agents=agents, focal_agent_id="a0", horizon=horizon)


@st.composite
def agent_mutations(draw):
    """One edit of one agent of a valid document: ``(name, edit)``, where ``edit(agent)`` mutates it."""
    kind = draw(
        st.sampled_from(
            [
                "drop_agent_key", "add_agent_key", "agent_not_object", "drop_point_key", "add_point_key",
                "point_not_object", "swap_agent_type", "swap_point_type", "nan", "1e308", "huge_int",
                "negative_speed", "t_gap", "short_track", "unknown_kind", "big_t0",
            ]
        )
    )
    j = draw(st.integers(min_value=0, max_value=2))  # every drawn track has at least 3 points
    key = draw(st.sampled_from(_POINT_KEYS))
    fkey = draw(st.sampled_from(_FLOAT_KEYS))
    akey = draw(st.sampled_from(_AGENT_KEYS))
    other = draw(_OTHER_TYPES)
    sign = draw(st.sampled_from([1, -1]))
    step = draw(st.sampled_from([-1, 1, 2, 7]))
    keep = draw(st.integers(min_value=0, max_value=2))
    offset = draw(st.sampled_from([2**63 - 2, 2**64, -(2**70)]))
    huge_key = draw(st.sampled_from(("t",) + _FLOAT_KEYS))

    def edit(agent):
        points = agent["points"]
        if kind == "drop_agent_key":
            del agent[akey]
        elif kind == "add_agent_key":
            agent["extra"] = 1
        elif kind == "agent_not_object":
            return other
        elif kind == "drop_point_key":
            del points[j][key]
        elif kind == "add_point_key":
            points[j]["extra"] = 0
        elif kind == "point_not_object":
            points[j] = other
        elif kind == "swap_agent_type":
            agent[akey] = other
        elif kind == "swap_point_type":
            points[j][key] = other
        elif kind == "nan":
            points[j][fkey] = float("nan")
        elif kind == "1e308":
            points[j][fkey] = sign * 1e308
        elif kind == "huge_int":
            points[j][huge_key] = sign * 10**400
        elif kind == "negative_speed":
            points[j]["speed"] = -0.5
        elif kind == "t_gap":
            points[j]["t"] += step
        elif kind == "short_track":
            del points[keep:]
        elif kind == "unknown_kind":
            agent["agent_kind"] = "truck"
        elif kind == "big_t0":
            for p in points:
                p["t"] += offset
        return agent

    return kind, edit


_VERTEX_KEYS = ("x", "y", "heading")


@st.composite
def centerline_mutations(draw):
    """One edit of one lane's centerline: ``(name, edit)``, where ``edit(lane)`` mutates the lane
    and returns it."""
    kind = draw(
        st.sampled_from(
            [
                "drop_vertex_key", "add_vertex_key", "vertex_not_object", "swap_vertex_type", "nan", "1e308",
                "huge_int", "repeat_vertex", "short_centerline", "centerline_not_list",
            ]
        )
    )
    j = draw(st.integers(min_value=0, max_value=1))  # every centerline has at least 2 vertices
    key = draw(st.sampled_from(_VERTEX_KEYS))
    other = draw(_OTHER_TYPES)
    sign = draw(st.sampled_from([1, -1]))
    keep = draw(st.integers(min_value=0, max_value=1))

    def edit(lane):
        vertices = lane["centerline"]
        if kind == "drop_vertex_key":
            del vertices[j][key]
        elif kind == "add_vertex_key":
            vertices[j]["extra"] = 0
        elif kind == "vertex_not_object":
            vertices[j] = other
        elif kind == "swap_vertex_type":
            vertices[j][key] = other
        elif kind == "nan":
            vertices[j][key] = float("nan")
        elif kind == "1e308":
            vertices[j][key] = sign * 1e308
        elif kind == "huge_int":
            vertices[j][key] = sign * 10**400
        elif kind == "repeat_vertex":
            vertices.insert(j, dict(vertices[j]))
        elif kind == "short_centerline":
            del vertices[keep:]
        elif kind == "centerline_not_list":
            lane["centerline"] = other
        return lane

    return kind, edit


_TOP_LEVEL_PATHS = (
    "scenario_id", "focal_agent_id", "scenario_type", "horizon", "horizon.t_obs", "horizon.t_pred",
    "horizon.t_select", "horizon.dt", "agents", "lanes",
)
_TOP_LEVEL_VALUES = st.one_of(
    _OTHER_TYPES,
    st.sampled_from([0, -1, 3, 0.2, math.nan, 10**400, "a1", "traversing_intersection", [0], [99]]),
)
_LANE_KEYS = ("lane_id", "speed_limit_kmh", "successors", "left_neighbor", "right_neighbor")
_LANE_VALUES = st.one_of(
    _OTHER_TYPES, st.sampled_from([-1, 1e10, math.nan, 10**400, "lane_a", "nowhere", ["lane_a"], ["nowhere"], [None]])
)


@st.composite
def field_mutations(draw, paths: tuple, values):
    """One edit of a field of an object or of one key of an object it holds (``horizon.t_obs``):
    ``(name, edit)``, where ``edit(obj)`` deletes the field or sets it to one of ``values`` and
    returns the object."""
    path = draw(st.sampled_from(paths))
    delete = draw(st.booleans())
    value = draw(values)
    *parents, key = path.split(".")

    def edit(obj):
        target = obj
        for parent in parents:
            target = target[parent]
        if delete:
            target.pop(key, None)
        else:
            target[key] = value
        return obj

    return f"{'drop' if delete else 'set'} {path}", edit


def top_level_mutations():
    """One edit of a top-level field of a document or of one key of its horizon."""
    return field_mutations(_TOP_LEVEL_PATHS, _TOP_LEVEL_VALUES)


def lane_field_mutations():
    """One edit of a lane field other than the centerline, to null among other JSON values."""
    return field_mutations(_LANE_KEYS, _LANE_VALUES)
