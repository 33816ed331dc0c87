"""Deterministic synthetic scenarios with analytically known labels.

Trajectories are built from piecewise phases (constant-curvature arcs or
straights with linearly ramping speed), so every sampled point, the endpoint
pose, and the speed profile have closed forms. Each plan is sampled once at the
horizon's future steps; expected labels are computed by applying the threshold
rules to those closed-form quantities, never by running the classifiers under
test; the test suites assert classifier/oracle agreement. A run's configuration
reaches the generator only through its horizon: expected labels always follow
the default rules, whatever thresholds, collapse or bands a run is given.

All tracks start at the origin heading +x; rigid-motion invariance of the
classifiers makes that anchoring lossless.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attributes import (
    ACCEL_THRESHOLDS_KMH,
    DEFAULT_COLLAPSE,
    SPEED_THRESHOLDS_KMH,
    AccelCategory,
    DirectionLabel,
    DirectionThresholds,
    FineDirection,
    SpeedCategory,
    classify_acceleration,
    classify_speed,
)
from .behavior import BehaviorLabel, BehaviorParams
from .core import MPS_TO_KMH, AgentTrack, HorizonConfig, Lane, Scenario, _normalize_headings
from .errors import InvalidSpec
from .geometry import wrap_angle

KINDS = frozenset({"straight", "arc", "stop", "dwell_then_go", "piecewise", "u_turn"})

TOPOLOGIES = ("single", "t_junction", "parallel_pair", "u_loop")

# S-curve half-angle used for veer lateral shifts; stays well below the 30 deg
# straight threshold so shift phases never read as turns.
_S_CURVE_DEG = 22.0

# Steeper S-curve for the pre-U-turn shift (only the endpoint heading matters
# to the classifier, so this may approach the straight threshold).
_U_SHIFT_DEG = 28.0

# The oracle applies the default rules: expectation sidecars are always labelled
# on them, whatever thresholds a run is configured with.
_TH = DirectionThresholds()
_BP = BehaviorParams()


@dataclass(frozen=True)
class Phase:
    """One motion phase: ``angle_deg`` is the total heading sweep (0 = straight),
    speed ramps linearly from v0 to v1 over ``duration_s``."""

    duration_s: float
    v0: float
    v1: float
    angle_deg: float = 0.0


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    speed: float = 8.0
    speed_end: Optional[float] = None
    radius: float = 20.0
    angle_deg: float = 90.0
    dwell_s: float = 2.0
    rest_s: float = 1.5
    phases: tuple[Phase, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if self.radius <= 0:
            raise InvalidSpec("radius must be positive")
        if self.kind in ("arc", "u_turn") and not 0.0 < abs(self.angle_deg) <= 200.0:
            raise InvalidSpec("arc angle magnitude must lie in (0, 200] degrees")
        if self.speed < 0 or (self.speed_end is not None and self.speed_end < 0):
            raise InvalidSpec("speeds must be nonnegative")


# -- closed-form pose/profile evaluation -------------------------------------


def _advance(pose: tuple[float, float, float], length: float, angle_rad: float) -> tuple[float, float, float]:
    """Endpoint after traveling ``length`` along an arc sweeping ``angle_rad``."""
    x, y, h = pose
    if abs(angle_rad) < 1e-12:
        return x + length * math.cos(h), y + length * math.sin(h), h
    r = length / angle_rad
    return (
        x + r * (math.sin(h + angle_rad) - math.sin(h)),
        y + r * (math.cos(h) - math.cos(h + angle_rad)),
        h + angle_rad,
    )


class _PhasePlan:
    """Pre-composed phase table supporting exact pose/speed queries by time."""

    def __init__(self, phases: tuple[Phase, ...]):
        self.rows = []  # (start pose, curvature, start distance, sin and cos of the start heading)
        ramps = []  # (start time, duration, start speed, acceleration)
        pose = (0.0, 0.0, 0.0)
        t0 = 0.0
        s0 = 0.0
        for ph in phases:
            length = ph.duration_s * (ph.v0 + ph.v1) / 2.0
            if length <= 0 and ph.angle_deg != 0.0:
                raise InvalidSpec("an arc phase must cover a positive distance")
            kappa = math.radians(ph.angle_deg) / length if length > 0 else 0.0
            if not math.isfinite(kappa):
                raise InvalidSpec("an arc phase's curvature must be finite")
            self.rows.append((pose, kappa, s0, math.sin(pose[2]), math.cos(pose[2])))
            ramps.append((t0, ph.duration_s, ph.v0, (ph.v1 - ph.v0) / ph.duration_s if ph.duration_s > 0 else 0.0))
            pose = _advance(pose, length, math.radians(ph.angle_deg))
            t0 += ph.duration_s
            s0 += length
        self.starts, self.durations, self.v0, self.accel = np.array(ramps).T
        self.t_end = t0
        self.end_pose = pose

    def kinematics(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row index, distance into the row's phase, speed) at each time, clamped to [0, t_end]."""
        t = np.minimum(np.maximum(times, 0.0), self.t_end)
        row = np.searchsorted(self.starts, t + 1e-12, side="right") - 1
        u = np.minimum(np.maximum(t - self.starts[row], 0.0), self.durations[row])
        v0, accel = self.v0[row], self.accel[row]
        return row, v0 * u + 0.5 * accel * u * u, v0 + accel * u

    def sample(self, times) -> list[tuple[float, float, float, float, float]]:
        """(x, y, tangent heading, speed, cumulative distance) at each time."""
        out = []
        for r, s, v in zip(*(a.tolist() for a in self.kinematics(np.asarray(times, dtype=float)))):
            (x, y, h), kappa, s0, sin_h, cos_h = self.rows[r]
            angle = kappa * s  # _advance(pose, s, angle) with the row's sin and cos reused
            if abs(angle) < 1e-12:
                x, y = x + s * cos_h, y + s * sin_h
            else:
                radius = s / angle
                x, y = x + radius * (math.sin(h + angle) - sin_h), y + radius * (cos_h - math.cos(h + angle))
                h += angle
            out.append((x, y, h, v, s0 + s))
        return out


def build_phases(spec: SynthSpec, horizon: HorizonConfig) -> tuple[Phase, ...]:
    """Expand a spec into phases covering the sampled future span exactly."""
    span = (horizon.t_pred - 1) * horizon.dt  # time of the last future sample
    v = spec.speed
    if spec.kind == "straight":
        v1 = spec.speed_end if spec.speed_end is not None else v
        return (Phase(span, v, v1),)
    if spec.kind == "arc":
        if v <= 0:
            raise InvalidSpec("arc requires positive speed")
        t_arc = spec.radius * math.radians(abs(spec.angle_deg)) / v
        if t_arc > span:
            raise InvalidSpec("arc does not fit in the future window; raise speed or shrink the angle")
        phases = [Phase(t_arc, v, v, spec.angle_deg)]
        if span - t_arc > 0:
            phases.append(Phase(span - t_arc, v, v))
        return tuple(phases)
    if spec.kind == "stop":
        rest = min(spec.rest_s, span)
        return (Phase(span - rest, v, 0.0), Phase(rest, 0.0, 0.0)) if span > rest else (Phase(span, 0.0, 0.0),)
    if spec.kind == "dwell_then_go":
        dwell = min(spec.dwell_s, span)
        target = spec.speed_end if spec.speed_end is not None else v
        return (Phase(dwell, 0.0, 0.0), Phase(span - dwell, 0.0, target))
    if spec.kind == "u_turn":
        return _u_turn_phases(spec, span)
    # piecewise: explicit phases, padded to the sampled span when short
    if not spec.phases:
        raise InvalidSpec("piecewise spec needs explicit phases")
    total = sum(p.duration_s for p in spec.phases)
    if total > span + 1e-9:
        raise InvalidSpec(f"phases span {total:.2f}s but the future window samples {span:.2f}s")
    phases = list(spec.phases)
    if total < span - 1e-9:
        tail_v = phases[-1].v1
        phases.append(Phase(span - total, tail_v, tail_v))
    return tuple(phases)


def _u_turn_phases(spec: SynthSpec, span: float) -> tuple[Phase, ...]:
    """Lateral shift away from the turn, then a tight loop back.

    The shift is sized so the endpoint lands more than d_u on the side opposite
    the turn even after the straight tail drifts it back.
    """
    v = spec.speed
    if v <= 0:
        raise InvalidSpec("u_turn requires positive speed")
    theta = math.radians(abs(spec.angle_deg))
    if math.degrees(theta) < 60.0:
        raise InvalidSpec("u_turn angle below 60 degrees cannot separate from a plain turn")
    left = spec.angle_deg > 0
    phi = math.radians(_U_SHIFT_DEG)
    c_s = 2.0 * phi / (2.0 * (1.0 - math.cos(phi)))  # shift-to-arclength factor of the S-curve
    loop_len = spec.radius * theta
    budget = v * span
    # endpoint lateral: -shift + r*(1 - cos theta) + tail*sin(theta); require <= -(d_u + 3).
    need = 5.0 + 3.0 + spec.radius * (1.0 - math.cos(theta)) + max(0.0, (budget - loop_len)) * max(0.0, math.sin(theta))
    shift = need / (1.0 + c_s * max(0.0, math.sin(theta)))
    s_len = c_s * shift
    if s_len + loop_len > budget + 1e-9:
        raise InvalidSpec("u_turn geometry does not fit the window; raise speed or shrink the radius")
    tail = budget - s_len - loop_len
    sign = 1.0 if left else -1.0
    half = s_len / 2.0 / v
    phases = [
        Phase(half, v, v, -sign * _U_SHIFT_DEG),
        Phase(half, v, v, sign * _U_SHIFT_DEG),
        Phase(loop_len / v, v, v, sign * math.degrees(theta)),
    ]
    if tail > 1e-9:
        phases.append(Phase(tail / v, v, v))
    return tuple(phases)


# -- trajectory generation ----------------------------------------------------


@dataclass(frozen=True)
class SynthExpectation:
    fine: FineDirection
    direction: DirectionLabel
    speed: SpeedCategory
    acceleration: AccelCategory
    behavior: BehaviorLabel


# Generated coordinates are rounded to 0.1 um: far below every rule margin,
# and it keeps serialized corpora compact (short float reprs).
_ROUND = 7


class _Profile:
    """A plan's speeds at the horizon's future steps, its poses at the window's
    ends, and the closed-form quantities the direction, speed, acceleration and
    behavior rules read."""

    def __init__(self, plan: _PhasePlan, horizon: HorizonConfig):
        dt, n = horizon.dt, horizon.t_pred
        self.dt = dt
        self.speeds = plan.kinematics(np.arange(n) * dt)[2].tolist()
        # The first two and last two future poses: the ends and the chords the classifier reads.
        self.ends = plan.sample([k * dt for k in (0, min(1, n - 1), max(n - 2, 0), n - 1)])
        (x0, y0, h0, _, s0), _, _, (x1, y1, h1, _, s1) = self.ends
        self.path = s1 - s0
        self.dtheta = wrap_angle(h1 - h0)
        self.lat = -math.sin(h0) * (x1 - x0) + math.cos(h0) * (y1 - y0)
        self.mean_kmh = (sum(self.speeds) / n) * MPS_TO_KMH
        mid = n // 2
        # 8 s-normalized speed change over the whole window, its first half and its second half.
        self.dv = tuple(
            (sub[-1] - sub[0]) * MPS_TO_KMH * (8.0 / (len(sub) * dt)) if len(sub) >= 2 else 0.0
            for sub in (self.speeds, self.speeds[:mid], self.speeds[mid:])
        )


def gen_trajectory(spec: SynthSpec, horizon: HorizonConfig = HorizonConfig()) -> tuple[AgentTrack, SynthExpectation]:
    """Closed-form sampled track plus its analytically expected labels."""
    plan = _PhasePlan(build_phases(spec, horizon))
    profile = _Profile(plan, horizon)
    dt = horizon.dt
    future = plan.sample(np.arange(horizon.t_pred) * dt)
    x0, y0, h0, v0, _ = future[0]
    # The observed prefix runs straight back from the first future pose at v0.
    backs = [(horizon.t_obs - i) * dt for i in range(horizon.t_obs)]
    poses = [(x0 - b * v0 * math.cos(h0), y0 - b * v0 * math.sin(h0), h0, v0) for b in backs]
    poses += [sample[:4] for sample in future]
    track = AgentTrack(
        agent_id="ego",
        agent_kind="vehicle",
        t0=0,
        xy=[(round(x, _ROUND), round(y, _ROUND)) for x, y, _, _ in poses],
        headings=_normalize_headings(np.array([round(wrap_angle(h), _ROUND) for _, _, h, _ in poses])),
        speeds=[round(v, _ROUND) for _, _, _, v in poses],
        valid_mask=[True] * len(poses),
    )
    return track, expected_labels(profile)


def _fine_direction(profile: _Profile, dtheta: float, lat: float) -> FineDirection:
    """The direction rules on the profile's speeds and path and the given heading change and lateral offset."""
    if max(profile.speeds) < _TH.v_stationary and profile.path < _TH.d_stationary:
        return FineDirection.STATIONARY
    if abs(dtheta) <= math.radians(_TH.theta_s):
        if abs(lat) > _TH.d_v:
            return FineDirection.STRAIGHT_VEER_LEFT if lat > 0 else FineDirection.STRAIGHT_VEER_RIGHT
        return FineDirection.STRAIGHT
    if dtheta > 0:
        return FineDirection.LEFT_U_TURN if lat < -_TH.d_u else FineDirection.LEFT_TURN
    return FineDirection.RIGHT_U_TURN if lat > _TH.d_u else FineDirection.RIGHT_TURN


def expected_labels(profile: _Profile) -> SynthExpectation:
    """Threshold rules applied to the closed-form geometry and speed profile."""
    fine = _fine_direction(profile, profile.dtheta, profile.lat)
    return SynthExpectation(
        fine=fine,
        direction=DEFAULT_COLLAPSE[fine],
        speed=classify_speed(profile.mean_kmh),
        acceleration=classify_acceleration(profile.dv[0]),
        behavior=_expected_behavior(profile),
    )


def _expected_behavior(profile: _Profile) -> BehaviorLabel:
    """Behavior rules on the closed-form speed grid (decision order as documented)."""
    speeds = profile.speeds
    dwell = max(1, round(_BP.dwell_s / profile.dt))
    if all(v < _BP.v_stop for v in speeds):
        return BehaviorLabel.NOT_MOVING
    if all(v < _BP.v_stop for v in speeds[:dwell]) and any(v >= _BP.v_stop for v in speeds):
        return BehaviorLabel.WAITING_THEN_MOVING
    if speeds[0] >= _BP.v_stop and all(v < _BP.v_stop for v in speeds[len(speeds) - dwell:]):
        return BehaviorLabel.STOPPING
    band = _BP.delta_v_const_kmh
    total, dv1, dv2 = profile.dv
    if dv1 < -band and dv2 > band:
        return BehaviorLabel.SLOWING_THEN_SPEEDING
    if dv1 > band and dv2 < -band:
        return BehaviorLabel.SPEEDING_THEN_SLOWING
    if total <= -band:
        return BehaviorLabel.SLOWING_DOWN
    if total >= band:
        return BehaviorLabel.SPEEDING_UP
    return BehaviorLabel.MAINTAINING_SPEED


# -- convenience spec constructors ---------------------------------------------


def veer_spec(shift: float, speed: float = 8.0, left: bool = True) -> SynthSpec:
    """Piecewise S-curve shifting laterally by ``shift`` meters (a veer case)."""
    phi = math.radians(_S_CURVE_DEG)
    s_len = 2.0 * phi * shift / (2.0 * (1.0 - math.cos(phi)))
    sign = 1.0 if left else -1.0
    half = s_len / 2.0 / speed
    return SynthSpec(
        kind="piecewise",
        speed=speed,
        phases=(
            Phase(half, speed, speed, sign * _S_CURVE_DEG),
            Phase(half, speed, speed, -sign * _S_CURVE_DEG),
        ),
    )


# -- lane-graph fixtures --------------------------------------------------------


@dataclass(frozen=True)
class LaneGraphFixture:
    """Closed-form topology with its documented expected feasible labels.

    ``expected_feasible`` lists the labels produced by candidate samples alone;
    Stationary additionally joins whenever the ego speed is below the cap.
    """

    lanes: tuple[Lane, ...]
    expected_feasible: frozenset[DirectionLabel]


def _lane_from_phases(
    lane_id: str,
    phases: tuple[Phase, ...],
    start: tuple[float, float, float] = (0.0, 0.0, 0.0),
    step_m: float = 2.0,
    successors: tuple[str, ...] = (),
    left_neighbor: Optional[str] = None,
    right_neighbor: Optional[str] = None,
) -> Lane:
    plan = _PhasePlan(phases)
    # Phases here are parameterized at 1 m/s so time equals arc length.
    total = plan.t_end
    n = max(2, int(math.floor(total / step_m)) + 1)
    arcs = [min(i * step_m, total) for i in range(n)]
    if total - (n - 1) * step_m > 1e-6:
        arcs.append(total)
    pts = [sample[:3] for sample in plan.sample(arcs)]
    c, s_ = math.cos(start[2]), math.sin(start[2])
    return Lane(
        lane_id=lane_id,
        xy=[(round(start[0] + c * x - s_ * y, _ROUND), round(start[1] + s_ * x + c * y, _ROUND)) for x, y, _ in pts],
        headings=_normalize_headings(np.array([round(wrap_angle(h + start[2]), _ROUND) for _, _, h in pts])),
        successors=successors,
        left_neighbor=left_neighbor,
        right_neighbor=right_neighbor,
    )


def _unit(length: float, angle_deg: float = 0.0) -> Phase:
    """A 1 m/s phase whose duration equals its length (lane construction helper)."""
    return Phase(length, 1.0, 1.0, angle_deg)


def gen_lane_graph(topology: str) -> LaneGraphFixture:
    """Fixed topologies for feasibility tests; ego pose is the origin heading +x."""
    if topology == "single":
        lanes = (_lane_from_phases("lane_a", (_unit(100.0),), step_m=10.0),)
        expected = {DirectionLabel.STRAIGHT}
    elif topology == "t_junction":
        lanes = (
            _lane_from_phases(
                "lane_a", (_unit(30.0),), start=(-10.0, 0.0, 0.0), successors=("lane_left", "lane_right")
            ),
            _lane_from_phases("lane_left", (_unit(10.0 * math.pi / 2.0, 90.0),), start=(20.0, 0.0, 0.0)),
            _lane_from_phases("lane_right", (_unit(10.0 * math.pi / 2.0, -90.0),), start=(20.0, 0.0, 0.0)),
        )
        expected = {DirectionLabel.STRAIGHT, DirectionLabel.LEFT, DirectionLabel.RIGHT}
    elif topology == "parallel_pair":
        lanes = (
            _lane_from_phases("lane_p1", (_unit(100.0),), start=(0.0, 1.5, 0.0), right_neighbor="lane_p2"),
            _lane_from_phases("lane_p2", (_unit(100.0),), start=(0.0, -1.5, 0.0), left_neighbor="lane_p1"),
        )
        expected = {DirectionLabel.STRAIGHT}
    elif topology == "u_loop":
        s_phases = veer_spec(10.0, speed=1.0, left=False).phases
        loop_radius, loop_deg = 1.5, 178.0
        # lane_loop starts where lane_a ends (shifted 10 m right, heading +x).
        lanes = (
            _lane_from_phases("lane_a", s_phases, successors=("lane_loop",), step_m=1.0),
            _lane_from_phases(
                "lane_loop",
                (_unit(loop_radius * math.radians(loop_deg), loop_deg),),
                start=_PhasePlan(s_phases).end_pose,
                step_m=0.5,
            ),
        )
        expected = {DirectionLabel.STRAIGHT, DirectionLabel.LEFT_U_TURN}
    else:
        raise InvalidSpec(f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")
    return LaneGraphFixture(lanes=lanes, expected_feasible=frozenset(expected))


def gen_scenario(
    spec: SynthSpec,
    scenario_id: str,
    horizon: HorizonConfig = HorizonConfig(),
    topology: Optional[str] = "single",
    scenario_type: Optional[str] = None,
) -> tuple[Scenario, SynthExpectation]:
    """One-agent scenario around a synthetic track, with an optional lane map."""
    track, expected = gen_trajectory(spec, horizon)
    lanes: tuple[Lane, ...] = ()
    if topology is not None:
        lanes = gen_lane_graph(topology).lanes
    scenario = Scenario.from_tracks(scenario_id, track.agent_id, (track,), lanes, horizon, scenario_type)
    return scenario, expected


# -- prediction sets with controlled match counts -------------------------------

_REDIRECT_ARC = 90.0


def _redirect_spec(gt_label: DirectionLabel) -> SynthSpec:
    """A spec whose direction label provably differs from ``gt_label``."""
    if gt_label in (DirectionLabel.STRAIGHT, DirectionLabel.RIGHT):
        return SynthSpec(kind="arc", radius=15.0, angle_deg=+_REDIRECT_ARC, speed=8.0)  # Left
    if gt_label is DirectionLabel.LEFT:
        return SynthSpec(kind="arc", radius=15.0, angle_deg=-_REDIRECT_ARC, speed=8.0)  # Right
    return SynthSpec(kind="straight", speed=8.0)  # Straight for Stationary / LeftUTurn


@functools.cache
def _redirect(spec: SynthSpec, horizon: HorizonConfig) -> tuple[AgentTrack, SynthExpectation]:
    """The redirect track of ``spec`` on ``horizon``, built once: its arrays are read-only."""
    return gen_trajectory(spec, horizon)


def gen_prediction_set(
    gt_track: AgentTrack,
    gt_label: DirectionLabel,
    match_count: int,
    n_modes: int = 6,
    horizon: HorizonConfig = HorizonConfig(),
    perturbation: str = "none",
    seed: int = 0,
):
    """Prediction trajectories with exactly ``match_count`` matching directions.

    Matching modes replay the ground-truth future (optionally with seeded
    sub-centimeter jitter); the rest are redirected through a label-changing
    transform anchored at the same start pose. Returns a
    :class:`~motionkit.metrics.PredictionSet`.
    """
    # Imported here so that building a corpus, as benchmark set-up does, need not import the evaluation modules.
    from .metrics import PredictionSet

    if not 0 <= match_count <= n_modes:
        raise InvalidSpec("match_count must lie in [0, n_modes]")
    if perturbation not in ("none", "jitter"):
        raise InvalidSpec(f"unknown perturbation {perturbation!r}")
    start, stop = horizon.future_window
    gt_xy = gt_track.xy[start:stop]
    redirect_track, redirect_expected = _redirect(_redirect_spec(gt_label), horizon)
    if redirect_expected.direction == gt_label:
        raise InvalidSpec("redirect transform failed to change the label")
    base = redirect_track.xy[start:stop]
    # Anchor the redirected path at the GT start pose (labels are rigid-motion invariant).
    c, s = math.cos(gt_track.headings[start]), math.sin(gt_track.headings[start])
    rot = np.array([[c, -s], [s, c]])
    redirect_xy = (base - base[0]) @ rot.T + gt_track.xy[start]

    modes = [gt_xy if j < match_count else redirect_xy for j in range(n_modes)]
    if perturbation == "jitter":
        rng = np.random.default_rng(seed)
        modes = [xy + rng.normal(scale=0.02, size=xy.shape) for xy in modes]
    return PredictionSet(
        scenario_id="synthetic",
        trajectories=np.stack(modes),
        scores=np.full(n_modes, 1.0 / n_modes),
    )


# -- suites ----------------------------------------------------------------------


def _comfortably_off_thresholds(profile: _Profile) -> bool:
    """True when every rule quantity sits clearly away from its boundary.

    Used by the default suite's rejection sampling so sampled-point
    discretization (sub-degree heading shifts, chord-vs-arc path length) can
    never flip a label relative to the closed-form oracle. The classifier takes
    its endpoint headings from the first and last sampled chords, which lag the
    tangents by half a step's turn; at dt > 0.1 that alone can flip a label, so
    the label must also come out the same from those chords.
    """
    if abs(max(profile.speeds) - _TH.v_stationary) < 0.3 or abs(profile.path - _TH.d_stationary) < 0.75:
        return False
    dtheta_deg = abs(math.degrees(profile.dtheta))
    if abs(dtheta_deg - _TH.theta_s) < 3.0 or dtheta_deg > 177.0:
        return False
    if abs(abs(profile.lat) - _TH.d_v) < 1.0 or abs(abs(profile.lat) - _TH.d_u) < 1.0:
        return False
    if any(abs(profile.mean_kmh - t) < 0.75 for t in SPEED_THRESHOLDS_KMH):
        return False
    bands = (*ACCEL_THRESHOLDS_KMH, _BP.delta_v_const_kmh)
    if any(abs(abs(dv) - t) < 0.75 for dv in profile.dv for t in bands):
        return False
    first, second, before_last, last = profile.ends
    h_start, h_end = _chord_heading(first, second, first[2]), _chord_heading(before_last, last, last[2])
    lat = -math.sin(h_start) * (last[0] - first[0]) + math.cos(h_start) * (last[1] - first[1])
    chord_fine = _fine_direction(profile, wrap_angle(h_end - h_start), lat)
    return chord_fine is _fine_direction(profile, profile.dtheta, profile.lat)


def _chord_heading(a: tuple, b: tuple, tangent: float) -> float:
    """Heading of the chord from pose ``a`` to pose ``b``, or ``tangent`` when
    the chord is no longer than ``epsilon_disp``."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    return math.atan2(dy, dx) if math.hypot(dx, dy) > _TH.epsilon_disp else tangent


def default_suite(n: int = 500, seed: int = 7, horizon: HorizonConfig = HorizonConfig()) -> list[SynthSpec]:
    """Parameter sweep over all families, rejection-sampled away from thresholds.

    Families cycle: straights (constant and ramping), veers, left/right turns,
    left/right U-turns, stationary, stops, dwell-then-go. Deterministic for a
    given seed.
    """
    rng = random.Random(seed)
    u = rng.uniform
    span = (horizon.t_pred - 1) * horizon.dt

    def arc(sign: float) -> SynthSpec:
        speed = u(6.0, 14.0)
        radius = u(8.0, 25.0)
        max_deg = min(150.0, math.degrees(0.92 * speed * span / radius))
        return SynthSpec(kind="arc", radius=radius, angle_deg=sign * u(40.0, max_deg), speed=speed)

    makers = [
        lambda: SynthSpec(kind="straight", speed=u(1.0, 36.0)),
        lambda: SynthSpec(kind="straight", speed=u(4.0, 12.0), speed_end=u(13.0, 30.0)),
        lambda: veer_spec(shift=u(6.8, 9.5), speed=u(7.0, 10.0), left=bool(rng.getrandbits(1))),
        lambda: arc(+1.0),
        lambda: arc(-1.0),
        lambda: SynthSpec(kind="u_turn", radius=u(0.8, 1.3), angle_deg=u(163.0, 175.0), speed=u(8.0, 9.5)),
        lambda: SynthSpec(kind="u_turn", radius=u(0.8, 1.3), angle_deg=-u(163.0, 175.0), speed=u(8.0, 9.5)),
        lambda: SynthSpec(kind="straight", speed=u(0.0, 0.35)),  # stationary
        lambda: SynthSpec(kind="stop", speed=u(8.0, 14.0), rest_s=u(1.2, 2.0)),
        lambda: SynthSpec(kind="dwell_then_go", dwell_s=u(1.5, 2.5), speed_end=u(8.0, 14.0), speed=0.0),
    ]
    specs: list[SynthSpec] = []
    for i in range(n):
        maker = makers[i % len(makers)]
        for _ in range(200):
            spec = maker()
            try:
                profile = _Profile(_PhasePlan(build_phases(spec, horizon)), horizon)
            except InvalidSpec:
                continue
            if _comfortably_off_thresholds(profile):
                specs.append(spec)
                break
        else:  # pragma: no cover - parameter ranges are chosen to converge fast
            raise InvalidSpec(f"could not draw a margin-safe spec for family {i % len(makers)}")
    return specs


def build_corpus(
    n: int,
    seed: int = 7,
    horizon: HorizonConfig = HorizonConfig(),
    topology: Optional[str] = "single",
) -> list[tuple[Scenario, SynthExpectation]]:
    """Materialize ``n`` suite scenarios with sidecar expectations; they share one lane map."""
    lanes = gen_lane_graph(topology).lanes if topology is not None else ()
    out = []
    for i, spec in enumerate(default_suite(n, seed, horizon)):
        track, expected = gen_trajectory(spec, horizon)
        scenario = Scenario.from_tracks(f"synth-{i:06d}", track.agent_id, (track,), lanes, horizon)
        out.append((scenario, expected))
    return out


def expectation_to_obj(scenario_id: str, expected: SynthExpectation) -> dict:
    return {
        "scenario_id": scenario_id,
        "fine_direction": expected.fine.value,
        "direction": expected.direction.value,
        "speed": expected.speed.value,
        "acceleration": expected.acceleration.value,
        "behavior": expected.behavior.value,
    }
