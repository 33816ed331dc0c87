"""Lane association, reachable range, candidate enumeration, feasibility sets."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionkit.attributes import DirectionLabel, LabelRules
from motionkit.core import HorizonConfig, Lane, Scenario
from motionkit.feasibility import (
    ALL_DIRECTIONS,
    Candidate,
    FeasTag,
    FeasibilityParams,
    FeasibilityReport,
    associate_lanes,
    classify_candidate,
    enumerate_candidates,
    feasibility_set,
    reachable_range,
    tag_instruction,
)
from motionkit.geometry import polyline_arclength, rotate_into_frame, wrap_angle
from motionkit.synth import SynthSpec, TOPOLOGIES, build_corpus, gen_lane_graph, gen_scenario
from tracks import make_track

H = HorizonConfig()
KMH = 3.6


def scenario_on(topology: str, speed_mps: float = 10.0, scenario_id: str = "s"):
    scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=speed_mps), scenario_id, H, topology=topology)
    return scenario


class TestAssociation:
    def test_on_centerline_aligned(self):
        s = scenario_on("single")
        assoc = associate_lanes(s)
        assert [lane_id for lane_id, _ in assoc] == ["lane_a"]

    def test_far_from_all_lanes_is_empty(self):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s", H, topology=None)
        single = gen_lane_graph("single").lanes
        # shift the map 10 m sideways
        from motionkit.core import Lane, Scenario

        moved = tuple(
            Lane(lane_id=l.lane_id, xy=l.xy + (0.0, 10.0), headings=l.headings, successors=l.successors)
            for l in single
        )
        s = Scenario(
            scenario_id="s",
            focal_agent_id=scenario.focal_agent_id,
            agents=scenario.agents,
            lanes=moved,
            horizon=H,
        )
        assert associate_lanes(s) == []

    def test_between_parallel_pair_returns_both(self):
        s = scenario_on("parallel_pair")
        assert [lane_id for lane_id, _ in associate_lanes(s)] == ["lane_p1", "lane_p2"]

    def test_heading_tolerance(self):
        s = scenario_on("single")
        tight = FeasibilityParams(lane_assoc_heading_tol_deg=60.0)
        assert associate_lanes(s, tight)
        # a lane running the other way is rejected
        from motionkit.core import Lane, Scenario

        reversed_lane = Lane(lane_id="lane_r", xy=[(50.0, 0.0), (25.0, 0.0), (0.0, 0.0)], headings=[math.pi] * 3)
        s2 = Scenario(
            scenario_id="s2",
            focal_agent_id=s.focal_agent_id,
            agents=s.agents,
            lanes=(reversed_lane,),
            horizon=H,
        )
        assert associate_lanes(s2, tight) == []


class TestReachableRange:
    def test_standstill_no_limit(self):
        # 15 km/h = 4.1667 m/s; trapezoidal ramp over 8 s covers 16.67 m
        assert reachable_range(0.0, None) == pytest.approx(16.6667, abs=0.01)

    def test_limit_clamps_then_cap_binds(self):
        assert reachable_range(10.0, 36.0) == pytest.approx(60.0)

    def test_zero_limit_means_no_motion(self):
        assert reachable_range(0.0, 0.0) == 0.0

    def test_monotone_in_speed_and_capped(self):
        prev = -1.0
        for v in [0.0, 1.0, 2.5, 5.0, 7.0, 10.0, 20.0, 40.0]:
            r = reachable_range(v, None)
            assert r >= prev
            assert r <= 60.0
            prev = r

    def test_limit_below_current_speed_still_clamps(self):
        # already above the limit: top speed is the limit itself
        r = reachable_range(20.0, 36.0)  # limit = 10 m/s
        assert r == pytest.approx(min(60.0, 8.0 * (20.0 + 10.0) / 2.0))


class TestCandidates:
    def test_single_lane_sample_grid(self):
        s = scenario_on("single")
        params = FeasibilityParams(max_range_m=20.0, sample_spacing_m=2.0)
        cands = enumerate_candidates(s, params)
        assert len(cands) == 10
        assert [c.arc_dist for c in cands] == pytest.approx([2.0 * k for k in range(1, 11)])
        for c in cands:
            assert abs(c.lat) < 0.2
            assert abs(c.rel_heading) < 1e-6

    def test_t_junction_has_left_branch_headings(self):
        s = scenario_on("t_junction")
        cands = enumerate_candidates(s)
        left = [c for c in cands if c.lane_id == "lane_left"]
        assert left
        assert max(math.degrees(c.rel_heading) for c in left) > 80.0

    def test_empty_without_association(self):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s", H, topology=None)
        assert enumerate_candidates(scenario) == []

    def test_order_is_deterministic(self):
        s = scenario_on("t_junction")
        a = enumerate_candidates(s)
        b = enumerate_candidates(s)
        assert a == b
        assert a == sorted(a, key=lambda c: (c.lane_id, c.arc_dist))

    def test_neighbor_transition_toggle(self):
        s = scenario_on("parallel_pair")
        with_hops = enumerate_candidates(s, FeasibilityParams(allow_neighbor_transitions=True))
        without = enumerate_candidates(s, FeasibilityParams(allow_neighbor_transitions=False))
        assert {c.lane_id for c in without} == {"lane_p1", "lane_p2"}
        assert len(with_hops) >= len(without) - 1


# -- test oracle: the per-sample scalar walk the array grid replaced -------------


def _scalar_point_along_polyline(xy, cum, s):
    s = min(max(s, 0.0), float(cum[-1]))
    i = int(np.searchsorted(cum, s, side="right")) - 1
    i = min(max(i, 0), len(cum) - 2)
    seg_len = cum[i + 1] - cum[i]
    t = 0.0 if seg_len <= 0 else (s - cum[i]) / seg_len
    p0, p1 = xy[i], xy[i + 1]
    x = p0[0] + t * (p1[0] - p0[0])
    y = p0[1] + t * (p1[1] - p0[1])
    return float(x), float(y), math.atan2(p1[1] - p0[1], p1[0] - p0[0])


def scalar_enumerate_candidates(scenario, params=FeasibilityParams()):
    """Test oracle: ``enumerate_candidates`` as a scalar walk, one interpolation and one rotation per sample."""
    assoc = associate_lanes(scenario, params)
    if not assoc:
        return []
    i = scenario.horizon.current_index
    track = scenario.focal_track
    pose_xy, pose_heading, pose_speed = track.xy[i], float(track.headings[i]), float(track.speeds[i])
    lanes = {lane.lane_id: lane for lane in scenario.lanes}
    spacing = params.sample_spacing_m
    samples = []
    visited = {lane_id for lane_id, _ in assoc}
    queue = deque()
    for lane_id, idx in assoc:
        branch_range = reachable_range(pose_speed, lanes[lane_id].speed_limit_kmh, params)
        if branch_range > 0:
            queue.append((lane_id, idx, 0.0, 0, branch_range))

    def walk(lane, entry_idx, dist0, limit):
        cum = polyline_arclength(lane.xy[entry_idx:])
        reach = min(limit - dist0, float(cum[-1]))
        k = math.floor(dist0 / spacing) + 1
        while k * spacing <= dist0 + reach:
            x, y, heading = _scalar_point_along_polyline(lane.xy[entry_idx:], cum, k * spacing - dist0)
            lon, lat = rotate_into_frame(np.array([[x, y]]), pose_xy, pose_heading)[0]
            rel_heading = wrap_angle(heading - pose_heading)
            samples.append(Candidate(lane.lane_id, k * spacing, float(lon), float(lat), rel_heading))
            k += 1
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
        end_dist = walk(lane, entry_idx, dist0, branch_range)
        if end_dist < branch_range:
            for successor_id in sorted(lane.successors):
                if successor_id not in visited:
                    visited.add(successor_id)
                    queue.append((successor_id, 0, end_dist, hops, branch_range))
    samples.sort(key=lambda c: (c.lane_id, c.arc_dist))
    return samples


ORACLE_PARAMS = (
    FeasibilityParams(),
    FeasibilityParams(sample_spacing_m=0.7, max_range_m=80.0),
    FeasibilityParams(sample_spacing_m=3.3, allow_neighbor_transitions=False),
)


def _polyline(start, steps):
    """Vertices from ``start`` by (length, turn) steps; every step is at least 0.5 m long."""
    x, y, heading = start
    out = [(x, y)]
    for length, turn in steps:
        heading += turn
        x, y = x + length * math.cos(heading), y + length * math.sin(heading)
        out.append((x, y))
    return out


def _lane(lane_id, xy, **wiring):
    seg = np.diff(np.asarray(xy), axis=0)
    headings = np.arctan2(seg[:, 1], seg[:, 0])
    return Lane(lane_id=lane_id, xy=xy, headings=np.append(headings, headings[-1]), **wiring)


_steps = st.lists(st.tuples(st.floats(0.5, 15.0), st.floats(-1.0, 1.0)), min_size=1, max_size=7)


@st.composite
def lane_maps(draw):
    """A lane with a successor and a left neighbour, and a focal pose on or near one of its
    vertices; the pose may sit on the lane's last vertex, and the neighbour may end beside it."""
    main = _polyline((0.0, 0.0, draw(st.floats(-math.pi, math.pi))), draw(_steps))
    successor = _polyline((*main[-1], draw(st.floats(-math.pi, math.pi))), draw(_steps))
    cut = draw(st.integers(2, len(main)))
    dx, dy = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    neighbor = [(x + dx, y + dy) for x, y in main[:cut]]
    entry = draw(st.integers(0, len(main) - 1))
    lanes = (
        _lane("a", main, successors=("b",), left_neighbor="n", speed_limit_kmh=draw(st.none() | st.floats(5.0, 120.0))),
        _lane("b", successor),
        _lane("n", neighbor),
    )
    heading = float(lanes[0].headings[entry]) + draw(st.floats(-0.5, 0.5))
    pose = (main[entry][0] + draw(st.floats(-1.0, 1.0)), main[entry][1] + draw(st.floats(-1.0, 1.0)))
    n = H.n_steps
    track = make_track([pose] * n, speeds=[draw(st.floats(0.0, 30.0))] * n, headings=[wrap_angle(heading)] * n)
    return Scenario(scenario_id="s", focal_agent_id="ego", agents=(track,), lanes=lanes, horizon=H)


class TestCandidateGridOracle:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_synth_topologies_match_the_scalar_walk(self, topology):
        for scenario, _ in build_corpus(40, seed=11, topology=topology):
            for params in ORACLE_PARAMS:
                assert enumerate_candidates(scenario, params) == scalar_enumerate_candidates(scenario, params)

    @settings(max_examples=150, deadline=None)
    @given(
        lane_maps(),
        st.floats(0.3, 5.0),
        st.floats(5.0, 80.0),
        st.booleans(),
    )
    def test_drawn_maps_match_the_scalar_walk(self, scenario, spacing, max_range, hops):
        params = FeasibilityParams(
            sample_spacing_m=spacing, max_range_m=max_range, allow_neighbor_transitions=hops
        )
        assert enumerate_candidates(scenario, params) == scalar_enumerate_candidates(scenario, params)

    def test_grid_point_at_a_neighbors_last_vertex(self):
        # 3 * 0.7 rounds below the product it stands for, so floor(dist0 / 0.7) + 1 == 3 and the
        # hop onto lane n's last vertex (2.0999999999999996 m away) emits a sample at local
        # distance 0 on a one-vertex tail: it keeps the vertex and a 0 heading.
        hop = 3 * 0.7
        lanes = (
            _lane("a", [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], left_neighbor="n"),
            _lane("n", [(-10.0, hop), (0.0, hop)]),
        )
        n = H.n_steps
        track = make_track([(0.0, 0.0)] * n, speeds=[10.0] * n)
        scenario = Scenario(scenario_id="s", focal_agent_id="ego", agents=(track,), lanes=lanes, horizon=H)
        params = FeasibilityParams(sample_spacing_m=0.7, lane_assoc_radius_m=2.0)
        cands = enumerate_candidates(scenario, params)
        assert [c for c in cands if c.lane_id == "n"] == [Candidate("n", hop, 0.0, hop, 0.0)]
        assert cands == scalar_enumerate_candidates(scenario, params)


class TestClassifyCandidate:
    RULES = LabelRules()

    def test_straight_band(self):
        c = Candidate("l", 10.0, 10.0, 0.5, math.radians(10.0))
        assert classify_candidate(c, self.RULES) is DirectionLabel.STRAIGHT

    def test_left_vs_left_u_turn(self):
        left = Candidate("l", 10.0, 5.0, 4.0, math.radians(80.0))
        uturn = Candidate("l", 10.0, 5.0, -6.0, math.radians(80.0))
        assert classify_candidate(left, self.RULES) is DirectionLabel.LEFT
        assert classify_candidate(uturn, self.RULES) is DirectionLabel.LEFT_U_TURN

    def test_right_side_always_right(self):
        for lat in (-6.0, 0.0, 6.0):
            c = Candidate("l", 10.0, 5.0, lat, math.radians(-80.0))
            assert classify_candidate(c, self.RULES) is DirectionLabel.RIGHT


class TestFeasibilitySet:
    def test_single_lane_at_50_kmh(self):
        s = scenario_on("single", speed_mps=50.0 / KMH)
        report = feasibility_set(s)
        assert report.gt_direction is DirectionLabel.STRAIGHT
        assert report.feasible == {DirectionLabel.STATIONARY}
        assert report.infeasible == {DirectionLabel.LEFT, DirectionLabel.RIGHT, DirectionLabel.LEFT_U_TURN}

    def test_stationary_flips_at_65_kmh(self):
        below = feasibility_set(scenario_on("single", speed_mps=64.9 / KMH))
        at_cap = feasibility_set(scenario_on("single", speed_mps=65.0 / KMH))
        above = feasibility_set(scenario_on("single", speed_mps=70.0 / KMH))
        assert DirectionLabel.STATIONARY in below.feasible
        assert DirectionLabel.STATIONARY in at_cap.infeasible  # strict <
        assert DirectionLabel.STATIONARY in above.infeasible

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_gt_never_infeasible_and_partition_holds(self, topology):
        report = feasibility_set(scenario_on(topology))
        assert report.gt_direction not in report.infeasible
        assert report.gt_direction not in report.feasible
        assert report.feasible & report.infeasible == frozenset()
        assert {report.gt_direction} | report.feasible | report.infeasible == ALL_DIRECTIONS

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_expected_candidate_labels(self, topology):
        fixture = gen_lane_graph(topology)
        s = scenario_on(topology)
        report = feasibility_set(s)
        labels = set(report.feasible) | {report.gt_direction}
        assert fixture.expected_feasible <= labels

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_monotone_in_max_range(self, topology):
        s = scenario_on(topology)
        prev: frozenset = frozenset()
        for r in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            report = feasibility_set(s, FeasibilityParams(max_range_m=r))
            current = frozenset(report.feasible) | {report.gt_direction}
            assert prev <= current
            prev = current

    def test_focal_must_be_vehicle(self):
        from motionkit import errors
        from motionkit.core import Scenario

        s = scenario_on("single")
        ped = s.agents[0]
        from dataclasses import replace

        s2 = Scenario(
            scenario_id="s",
            focal_agent_id="ego",
            agents=(replace(ped, agent_kind="pedestrian"),),
            lanes=s.lanes,
            horizon=H,
        )
        with pytest.raises(errors.SchemaError):
            feasibility_set(s2)


class TestTagInstruction:
    def test_tags(self):
        report = FeasibilityReport(
            gt_direction=DirectionLabel.STRAIGHT,
            feasible=frozenset({DirectionLabel.STATIONARY}),
            infeasible=frozenset({DirectionLabel.LEFT, DirectionLabel.RIGHT, DirectionLabel.LEFT_U_TURN}),
            candidates_examined=10,
        )
        assert tag_instruction(report, DirectionLabel.STRAIGHT) is FeasTag.GT
        assert tag_instruction(report, DirectionLabel.STATIONARY) is FeasTag.F
        assert tag_instruction(report, DirectionLabel.LEFT) is FeasTag.IF

    def test_partition_invariant_enforced(self):
        with pytest.raises(ValueError):
            FeasibilityReport(
                gt_direction=DirectionLabel.STRAIGHT,
                feasible=frozenset({DirectionLabel.STRAIGHT}),
                infeasible=frozenset(),
                candidates_examined=0,
            )
