"""Test oracle: a scenario as the JSON object ``json.dumps`` writes.

``core.serialize_scenario`` writes each point and centerline vertex from one
row template; this is the nested-object form it replaced, kept here only as the
reference its bytes are compared against:
``json.dumps(scenario_to_obj(s), sort_keys=True, separators=(",", ":"))``.
"""

from __future__ import annotations

from motionkit.core import Scenario


def scenario_to_obj(s: Scenario) -> dict:
    obj: dict = {
        "scenario_id": s.scenario_id,
        "focal_agent_id": s.focal_agent_id,
        "horizon": {
            "t_obs": s.horizon.t_obs,
            "t_pred": s.horizon.t_pred,
            "t_select": list(s.horizon.t_select),
            "dt": s.horizon.dt,
        },
        "agents": [
            {
                "agent_id": agent_id,
                "agent_kind": kind,
                "points": [
                    {"t": t0 + i, "x": x, "y": y, "heading": h, "speed": v, "valid": ok}
                    for i, ((x, y), h, v, ok) in enumerate(zip(xy, headings, speeds, valid))
                ],
            }
            for agent_id, kind, t0, xy, headings, speeds, valid in zip(
                s.agent_ids, s.agent_kinds, s.t0, *(c.tolist() for c in (s.xy, s.headings, s.speeds, s.valid))
            )
        ],
        "lanes": [],
    }
    if s.scenario_type is not None:
        obj["scenario_type"] = s.scenario_type
    for lane in s.lanes:
        lane_obj: dict = {
            "lane_id": lane.lane_id,
            "successors": list(lane.successors),
            "centerline": [
                {"x": x, "y": y, "heading": h} for (x, y), h in zip(lane.xy.tolist(), lane.headings.tolist())
            ],
        }
        if lane.speed_limit_kmh is not None:
            lane_obj["speed_limit_kmh"] = lane.speed_limit_kmh
        if lane.left_neighbor is not None:
            lane_obj["left_neighbor"] = lane.left_neighbor
        if lane.right_neighbor is not None:
            lane_obj["right_neighbor"] = lane.right_neighbor
        obj["lanes"].append(lane_obj)
    return obj
