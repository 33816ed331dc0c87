"""Feasible-direction analysis from the lane graph and current kinematics.

Candidate destinations are sampled along lanes reachable from the focal
vehicle's pose within a kinematic range (bounded speed increase over the
horizon, clamped by the lane speed limit and a hard range cap). Each candidate
is mapped to a coarse direction label with the same angular/lateral thresholds
used for ground-truth direction extraction; the union forms the feasible set.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .attributes import DirectionLabel, FineDirection, LabelRules, classify_direction_fine
from .core import MPS_TO_KMH, Lane, Scenario
from .errors import InvalidAnchor, SchemaError
from .geometry import point_along_polyline, polyline_arclength, rotate_into_frame, wrap_angle

ALL_DIRECTIONS = frozenset(DirectionLabel)


@dataclass(frozen=True)
class FeasibilityParams:
    max_speed_increase_kmh: float = 15.0
    horizon_s: float = 8.0
    max_range_m: float = 60.0
    stationary_speed_cap_kmh: float = 65.0
    lane_assoc_radius_m: float = 3.5
    lane_assoc_heading_tol_deg: float = 60.0
    allow_neighbor_transitions: bool = True
    sample_spacing_m: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "max_speed_increase_kmh",
            "horizon_s",
            "max_range_m",
            "stationary_speed_cap_kmh",
            "lane_assoc_radius_m",
            "lane_assoc_heading_tol_deg",
            "sample_spacing_m",
        ):
            if getattr(self, name) <= 0:
                raise SchemaError(f"feasibility param {name} must be positive")


class FeasTag(enum.Enum):
    GT = "GT"
    F = "F"
    IF = "IF"


class Candidate(NamedTuple):
    """One destination sample in the focal agent's ego frame."""

    lane_id: str
    arc_dist: float
    lon: float
    lat: float
    rel_heading: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Partition of the five direction labels into GT / feasible / infeasible."""

    gt_direction: DirectionLabel
    feasible: frozenset[DirectionLabel]
    infeasible: frozenset[DirectionLabel]
    candidates_examined: int

    def __post_init__(self) -> None:
        if self.gt_direction in self.feasible or self.gt_direction in self.infeasible:
            raise ValueError("gt_direction must be excluded from both sets")
        if self.feasible & self.infeasible:
            raise ValueError("feasible and infeasible must be disjoint")
        if {self.gt_direction} | self.feasible | self.infeasible != ALL_DIRECTIONS:
            raise ValueError("the three parts must cover all five labels")


def _focal_pose(scenario: Scenario) -> tuple[np.ndarray, float, float]:
    """(xy, heading, speed) of the focal agent at the current step."""
    track = scenario.focal_track
    i = scenario.horizon.current_index
    if not track.valid_mask[i]:
        raise InvalidAnchor("focal agent has no valid current pose")
    return track.xy[i], float(track.headings[i]), float(track.speeds[i])


def associate_lanes(scenario: Scenario, params: FeasibilityParams = FeasibilityParams()) -> list[tuple[str, int]]:
    """Lanes whose centerline passes near the focal pose with compatible heading.

    Returns (lane_id, index of the nearest centerline vertex) sorted by
    lane_id; empty when nothing is within ``lane_assoc_radius_m``.
    """
    pose_xy, pose_heading, _ = _focal_pose(scenario)
    tol = math.radians(params.lane_assoc_heading_tol_deg)
    out = []
    for lane in scenario.lanes:
        d = np.linalg.norm(lane.xy - pose_xy, axis=1)
        idx = int(np.argmin(d))
        if d[idx] > params.lane_assoc_radius_m:
            continue
        if abs(wrap_angle(float(lane.headings[idx]) - pose_heading)) <= tol:
            out.append((lane.lane_id, idx))
    out.sort(key=lambda item: item[0])
    return out


def reachable_range(
    current_speed_mps: float,
    speed_limit_kmh: Optional[float],
    params: FeasibilityParams = FeasibilityParams(),
) -> float:
    """Meters reachable over the horizon under a constant-acceleration ramp.

    Top speed is the current speed plus ``max_speed_increase_kmh``, clamped to
    the lane speed limit when one is given (the clamp also applies when the
    vehicle already exceeds the limit). The traveled distance is the
    trapezoidal ramp average, capped at ``max_range_m``.
    """
    v_max = current_speed_mps + params.max_speed_increase_kmh / MPS_TO_KMH
    if speed_limit_kmh is not None:
        v_max = min(v_max, speed_limit_kmh / MPS_TO_KMH)
    ramp = params.horizon_s * (current_speed_mps + v_max) / 2.0
    return min(params.max_range_m, max(ramp, 0.0))


def enumerate_candidates(
    scenario: Scenario, params: FeasibilityParams = FeasibilityParams()
) -> list[Candidate]:
    """Sample candidate destinations along reachable lanes, in ego frame.

    Breadth-first traversal starts at each associated lane's projection vertex
    and follows successors; when ``allow_neighbor_transitions`` is on, each
    branch may hop once to a left/right neighbor (the hop costs the straight
    line distance between entry vertices). Samples are emitted on the global
    arc-distance grid ``sample_spacing_m, 2*sample_spacing_m, ...`` up to the
    branch's reachable range, each lane is entered at most once, and the
    result is sorted by (lane_id, arc distance) so the order is reproducible.
    """
    assoc = associate_lanes(scenario, params)
    if not assoc:
        return []
    pose_xy, pose_heading, pose_speed = _focal_pose(scenario)
    lanes = {lane.lane_id: lane for lane in scenario.lanes}
    spacing = params.sample_spacing_m

    samples: list[Candidate] = []
    visited = {lane_id for lane_id, _ in assoc}
    # Queue entries: (lane_id, entry vertex, arc distance already spent, hops used, branch range).
    queue: deque[tuple[str, int, float, int, float]] = deque()
    for lane_id, idx in assoc:
        branch_range = reachable_range(pose_speed, lanes[lane_id].speed_limit_kmh, params)
        if branch_range > 0:
            queue.append((lane_id, idx, 0.0, 0, branch_range))

    def _walk(lane: Lane, entry_idx: int, dist0: float, limit: float) -> float:
        tail = lane.xy[entry_idx:]
        cum = polyline_arclength(tail)
        end = dist0 + min(limit - dist0, float(cum[-1]))
        # k runs from floor(dist0 / spacing) + 1 to one past floor(end / spacing); the mask, not
        # the division, decides which rounded products k * spacing lie in (dist0, end]. A product
        # can land on dist0 (3 * 0.7 == 2.0999999999999996), and a sample there would repeat
        # the predecessor lane's end sample.
        arc = np.arange(math.floor(dist0 / spacing) + 1, math.floor(end / spacing) + 2) * spacing
        arc = arc[(arc > dist0) & (arc <= end)]
        x, y, heading = point_along_polyline(tail, cum, arc - dist0)
        lon, lat = rotate_into_frame(np.stack([x, y], axis=1), pose_xy, pose_heading).T
        rel_heading = wrap_angle(heading - pose_heading)
        samples.extend(
            map(Candidate, [lane.lane_id] * len(arc), arc.tolist(), lon.tolist(), lat.tolist(), rel_heading.tolist())
        )
        return dist0 + float(cum[-1])

    while queue:
        lane_id, entry_idx, dist0, hops, branch_range = queue.popleft()
        lane = lanes[lane_id]
        if params.allow_neighbor_transitions and hops == 0:
            for neighbor_id in (lane.left_neighbor, lane.right_neighbor):
                if neighbor_id is None or neighbor_id in visited:
                    continue
                neighbor = lanes[neighbor_id]
                entry_xy = lane.xy[entry_idx]
                nb_idx = int(np.argmin(np.linalg.norm(neighbor.xy - entry_xy, axis=1)))
                hop_cost = float(np.linalg.norm(neighbor.xy[nb_idx] - entry_xy))
                if dist0 + hop_cost < branch_range:
                    visited.add(neighbor_id)
                    queue.append((neighbor_id, nb_idx, dist0 + hop_cost, 1, branch_range))
        end_dist = _walk(lane, entry_idx, dist0, branch_range)
        if end_dist < branch_range:
            for successor_id in sorted(lane.successors):
                if successor_id not in visited:
                    visited.add(successor_id)
                    queue.append((successor_id, 0, end_dist, hops, branch_range))

    samples.sort(key=lambda c: (c.lane_id, c.arc_dist))
    return samples


def classify_candidate(candidate: Candidate, rules: LabelRules) -> DirectionLabel:
    """Map one destination sample to a coarse direction with the shared rules.

    Candidates never classify Stationary (that feasibility comes from the
    speed rule alone) nor as a veer; a turn becomes a U-turn when the sample
    lies more than ``d_u`` on the side opposite the turn, and the collapse
    maps the result onto a coarse label.
    """
    th = rules.direction
    dtheta = candidate.rel_heading
    if abs(dtheta) <= math.radians(th.theta_s):
        fine = FineDirection.STRAIGHT
    elif dtheta > 0:
        fine = FineDirection.LEFT_U_TURN if candidate.lat < -th.d_u else FineDirection.LEFT_TURN
    else:
        fine = FineDirection.RIGHT_U_TURN if candidate.lat > th.d_u else FineDirection.RIGHT_TURN
    return rules.collapse[fine]


def feasibility_set(
    scenario: Scenario,
    params: FeasibilityParams = FeasibilityParams(),
    rules: LabelRules = LabelRules(),
) -> FeasibilityReport:
    """Full GT / Feasible / Infeasible partition for the focal vehicle.

    The GT direction comes from the ground-truth future track and is always
    treated as feasible (reported separately, never in either set). Stationary
    joins the feasible candidates iff the current speed is strictly below
    ``stationary_speed_cap_kmh``.
    """
    track = scenario.focal_track
    if track.agent_kind != "vehicle":
        raise SchemaError(f"focal agent {track.agent_id!r} must be a vehicle for direction feasibility")
    _, _, speed = _focal_pose(scenario)

    candidates = enumerate_candidates(scenario, params)
    labels = {classify_candidate(c, rules) for c in candidates}
    if speed * MPS_TO_KMH < params.stationary_speed_cap_kmh:
        labels.add(DirectionLabel.STATIONARY)

    gt = rules.collapse[classify_direction_fine(track, scenario.horizon.future_window, rules.direction)]
    feasible = frozenset(labels - {gt})
    return FeasibilityReport(
        gt_direction=gt,
        feasible=feasible,
        infeasible=frozenset(ALL_DIRECTIONS - feasible - {gt}),
        candidates_examined=len(candidates),
    )


def tag_instruction(report: FeasibilityReport, instructed: DirectionLabel) -> FeasTag:
    if instructed == report.gt_direction:
        return FeasTag.GT
    if instructed in report.feasible:
        return FeasTag.F
    return FeasTag.IF
