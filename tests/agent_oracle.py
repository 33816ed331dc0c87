"""Test oracle: a scenario read one agent at a time.

This is the per-agent reader that the one column pass ``core._agent_block``
replaced, kept here only as the reference the tests compare it against. Each
agent is checked and built as an ``AgentTrack`` on its own, in agent order;
then the lanes are read, and the id and point-count checks run last, as they
did when a scenario stored a tuple of tracks. The block pass must raise the
same first error with the same message, and build the same scenario.
"""

from __future__ import annotations

import json

import numpy as np

from motionkit.core import (
    _POINT_FIELDS,
    AgentTrack,
    HorizonConfig,
    Scenario,
    _check_ids,
    _normalize_headings,
    _parse_lanes,
    _reject_extra,
    _require,
    _table,
)
from motionkit.errors import GeometryError, SchemaError


def parse_agent(obj: dict, where: str) -> AgentTrack:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: agent must be an object")
    _reject_extra(obj, {"agent_id", "agent_kind", "points"}, where)
    agent_id = _require(obj, "agent_id", str, where)
    columns, (x, y, headings, speeds) = _table(obj, "points", _POINT_FIELDS, where)
    t = columns["t"]
    track = AgentTrack(
        agent_id=agent_id,
        agent_kind=_require(obj, "agent_kind", str, where),
        t0=t[0] if t else 0,
        xy=np.column_stack((x, y)),
        headings=_normalize_headings(headings),
        speeds=speeds,
        valid_mask=columns["valid"],
    )
    if t != list(range(track.t0, track.t0 + len(t))):
        raise GeometryError(f"agent {agent_id}: t_index must increase by exactly 1")
    return track


def parse_scenario_per_agent(text: str) -> Scenario:
    """The scenario of ``text``, whose top level and horizon must be valid; only the agents, lanes
    and ids are checked here."""
    obj = json.loads(text)
    where = f"scenario {obj['scenario_id']}"
    h = obj["horizon"]
    horizon = HorizonConfig(h["t_obs"], h["t_pred"], tuple(h["t_select"]), h["dt"])
    agents = _require(obj, "agents", list, where)
    tracks = [parse_agent(a, f"{where}.agents[{i}]") for i, a in enumerate(agents)]
    lanes = _parse_lanes(obj, where)
    focal_agent_id = _require(obj, "focal_agent_id", str, where)
    _check_ids(where, focal_agent_id, [t.agent_id for t in tracks], lanes)
    for t in tracks:
        if len(t.xy) != horizon.n_steps:
            raise SchemaError(f"{where}: agent {t.agent_id} has {len(t.xy)} points, horizon requires {horizon.n_steps}")
    return Scenario.from_tracks(obj["scenario_id"], focal_agent_id, tracks, lanes, horizon, obj.get("scenario_type"))
