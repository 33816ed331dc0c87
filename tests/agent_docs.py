"""Scenario documents as JSON objects, for the parse and CLI tests: a minimal valid document,
hypothesis strategies for valid three-agent documents, and one-agent edits that break them."""

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
    """Valid documents with three agents of 3 to 6 points, each with its own first t_index."""
    n = draw(st.integers(min_value=3, max_value=6))
    agents = []
    for a in range(3):
        t0 = draw(st.integers(min_value=-5, max_value=5))
        points = [dict(draw(POINT), t=t0 + i) for i in range(n)]
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
