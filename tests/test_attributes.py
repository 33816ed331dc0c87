"""Direction, speed, and acceleration category rules."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionkit import attributes, errors
from motionkit.attributes import (
    DEFAULT_COLLAPSE,
    AccelCategory,
    DirectionLabel,
    DirectionThresholds,
    FineDirection,
    LabelRules,
    SpeedCategory,
    classify_acceleration,
    classify_direction_fine,
    classify_speed,
    classify_two_step,
    extract_motion_attributes,
)
from motionkit.core import HorizonConfig
from motionkit.synth import Phase, SynthSpec, default_suite, gen_trajectory

from direction_oracle import direction_rules_1d
from tracks import circle_track, make_track, mirror_track, rigid_transform

TH = DirectionThresholds()


def classify_full(track, th=TH):
    return classify_direction_fine(track, (0, len(track.xy)), th)


class TestDirectionRules:
    def test_zero_motion_is_stationary(self):
        track = make_track([(0.0, 0.0)] * 20)
        assert classify_full(track) is FineDirection.STATIONARY

    def test_quarter_circle_left_turn(self):
        # dtheta = 90 > 30 and the endpoint sits 20 m on the turn side
        track = circle_track(radius=20.0, angle_deg=90.0, n=40)
        assert classify_full(track) is FineDirection.LEFT_TURN

    def test_long_straight(self):
        track = make_track([(i * 2.0, 0.0) for i in range(21)], speeds=[8.0] * 21)
        assert classify_full(track) is FineDirection.STRAIGHT

    def test_170_degree_arc_stays_a_left_turn(self):
        # Analytic endpoint: lat = 8 * (1 - cos 170) = +15.88, the same side as
        # the turn, so the opposite-side U-turn test cannot fire.
        track = circle_track(radius=8.0, angle_deg=170.0, n=60)
        lat = 8.0 * (1.0 - math.cos(math.radians(170.0)))
        assert lat > 0
        assert classify_full(track) is FineDirection.LEFT_TURN

    def test_right_turn_sign(self):
        track = circle_track(radius=20.0, angle_deg=-90.0, n=40)
        assert classify_full(track) is FineDirection.RIGHT_TURN

    def test_veer_left(self):
        track, _ = gen_trajectory(
            SynthSpec(
                kind="piecewise",
                phases=(Phase(2.0, 8.0, 8.0, 22.0), Phase(2.0, 8.0, 8.0, -22.0)),
            )
        )
        assert classify_full(track) is FineDirection.STRAIGHT_VEER_LEFT

    def test_left_u_turn_needs_opposite_lateral(self):
        track, expected = gen_trajectory(SynthSpec(kind="u_turn", radius=1.0, angle_deg=170.0, speed=8.0))
        assert expected.fine is FineDirection.LEFT_U_TURN
        assert classify_full(track) is FineDirection.LEFT_U_TURN

    def test_insufficient_points(self):
        track = make_track([(0.0, 0.0)] * 10, valid=[True] + [False] * 9)
        with pytest.raises(errors.InsufficientPoints):
            classify_full(track)

    def test_invalid_points_ignored(self):
        # the one wild invalid point must not affect the result
        xy = [(i * 2.0, 0.0) for i in range(20)]
        xy[10] = (1e6, 1e6)
        valid = [True] * 20
        valid[10] = False
        track = make_track(xy, speeds=[8.0] * 20, valid=valid)
        assert classify_full(track) is FineDirection.STRAIGHT

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=2, max_size=30),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.004, 0.05, 0.15, 2.0]),
    )
    def test_track_window_equals_the_per_row_oracle(self, valid, seed, step):
        """classify_direction_fine (the N=1 caller of the batched rules) against the
        per-row rules on the window's packed valid samples."""
        rng = np.random.default_rng(seed)
        n = len(valid)
        heading = np.cumsum(rng.normal(scale=0.4, size=n))
        xy = np.cumsum(step * rng.random(n)[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1), axis=0)
        track = make_track(xy, speeds=rng.random(n) * 3.0, headings=rng.uniform(-3.0, 3.0, n), valid=valid)
        steps = np.flatnonzero(valid)
        if steps.size < 2:
            with pytest.raises(errors.InsufficientPoints):
                classify_full(track)
            return
        expected = direction_rules_1d(xy[steps], track.speeds[steps], TH, float(track.headings[steps[0]]))
        assert classify_full(track) is expected

    def test_short_first_chord_falls_back_to_recorded_heading(self):
        # The first chord (1 cm) is below epsilon_disp, so the start heading is
        # the recorded one (90 deg) and the drive along +x reads as a right
        # turn; a 10 cm first chord is used as the start heading instead.
        for first, expected in ((0.01, FineDirection.RIGHT_TURN), (0.1, FineDirection.STRAIGHT)):
            xy = [(0.0, 0.0)] + [(first + 2.0 * i, 0.0) for i in range(21)]
            track = make_track(xy, speeds=[8.0] * 22, headings=[math.pi / 2] * 22)
            assert classify_full(track) is expected

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        base_tracks = [
            circle_track(20.0, 90.0, 40),
            circle_track(15.0, -70.0, 40),
            make_track([(i * 1.5, 0.0) for i in range(40)], speeds=[8.0] * 40),
            gen_trajectory(SynthSpec(kind="u_turn", radius=1.0, angle_deg=168.0, speed=8.5))[0],
        ]
        for base in base_tracks:
            label = classify_full(base)
            for _ in range(20):
                moved = rigid_transform(
                    base,
                    float(rng.uniform(-math.pi, math.pi)),
                    float(rng.uniform(-100, 100)),
                    float(rng.uniform(-100, 100)),
                )
                assert classify_full(moved) is label

    def test_mirror_symmetry(self):
        swap = {
            FineDirection.LEFT_TURN: FineDirection.RIGHT_TURN,
            FineDirection.RIGHT_TURN: FineDirection.LEFT_TURN,
            FineDirection.LEFT_U_TURN: FineDirection.RIGHT_U_TURN,
            FineDirection.RIGHT_U_TURN: FineDirection.LEFT_U_TURN,
            FineDirection.STRAIGHT_VEER_LEFT: FineDirection.STRAIGHT_VEER_RIGHT,
            FineDirection.STRAIGHT_VEER_RIGHT: FineDirection.STRAIGHT_VEER_LEFT,
            FineDirection.STRAIGHT: FineDirection.STRAIGHT,
            FineDirection.STATIONARY: FineDirection.STATIONARY,
        }
        for spec in default_suite(40, seed=9):
            track, _ = gen_trajectory(spec)
            label = classify_full(track)
            assert classify_full(mirror_track(track)) is swap[label]


class TestCollapse:
    @pytest.mark.parametrize(
        "fine,coarse",
        [
            (FineDirection.STATIONARY, DirectionLabel.STATIONARY),
            (FineDirection.STRAIGHT, DirectionLabel.STRAIGHT),
            (FineDirection.STRAIGHT_VEER_LEFT, DirectionLabel.STRAIGHT),
            (FineDirection.STRAIGHT_VEER_RIGHT, DirectionLabel.STRAIGHT),
            (FineDirection.LEFT_TURN, DirectionLabel.LEFT),
            (FineDirection.RIGHT_TURN, DirectionLabel.RIGHT),
            (FineDirection.LEFT_U_TURN, DirectionLabel.LEFT_U_TURN),
            (FineDirection.RIGHT_U_TURN, DirectionLabel.RIGHT),
        ],
    )
    def test_mapping(self, fine, coarse):
        assert LabelRules().collapse[fine] is coarse

    def test_custom_mapping(self, horizon):
        track, expected = gen_trajectory(SynthSpec(kind="u_turn", radius=1.0, angle_deg=170.0, speed=8.0), horizon)
        assert expected.direction is DirectionLabel.LEFT_U_TURN
        rules = LabelRules(collapse={f: DirectionLabel.STRAIGHT for f in FineDirection})
        attrs = extract_motion_attributes(track, horizon, rules)
        assert attrs.fine_direction is FineDirection.LEFT_U_TURN
        assert attrs.direction is DirectionLabel.STRAIGHT
        assert {step[0] for step in attrs.two_step} == {DirectionLabel.STRAIGHT}


class TestSpeedCategories:
    @pytest.mark.parametrize(
        "kmh,expected",
        [
            (0.0, SpeedCategory.VERY_SLOW),
            (19.0, SpeedCategory.VERY_SLOW),
            (20.0, SpeedCategory.SLOW),
            (39.9, SpeedCategory.SLOW),
            (40.0, SpeedCategory.MODERATE),
            (89.9, SpeedCategory.MODERATE),
            (90.0, SpeedCategory.FAST),
            (100.0, SpeedCategory.FAST),
            (119.9, SpeedCategory.FAST),
            (120.0, SpeedCategory.VERY_FAST),
            (500.0, SpeedCategory.VERY_FAST),
        ],
    )
    def test_bands(self, kmh, expected):
        assert classify_speed(kmh) is expected

    def test_negative_speed(self):
        with pytest.raises(errors.NegativeSpeed):
            classify_speed(-0.1)

    def test_dense_grid_matches_independent_oracle(self):
        def oracle(v: float) -> SpeedCategory:
            if v < 20.0:
                return SpeedCategory.VERY_SLOW
            if v < 40.0:
                return SpeedCategory.SLOW
            if v < 90.0:
                return SpeedCategory.MODERATE
            if v < 120.0:
                return SpeedCategory.FAST
            return SpeedCategory.VERY_FAST

        for k in range(0, 2001):
            v = k / 10.0
            assert classify_speed(v) is oracle(v), v


class TestAccelCategories:
    @pytest.mark.parametrize(
        "dv,expected",
        [
            (5.0, AccelCategory.CONSTANT),
            (-5.9, AccelCategory.CONSTANT),
            (6.0, AccelCategory.MILD_ACCEL),
            (24.9, AccelCategory.MILD_ACCEL),
            (25.0, AccelCategory.MODERATE_ACCEL),
            (30.0, AccelCategory.MODERATE_ACCEL),
            (46.0, AccelCategory.AGGRESSIVE_ACCEL),
            (64.9, AccelCategory.AGGRESSIVE_ACCEL),
            (65.0, AccelCategory.EXTREME_ACCEL),
            (-6.0, AccelCategory.MILD_DECEL),
            (-46.0, AccelCategory.AGGRESSIVE_DECEL),
            (-70.0, AccelCategory.EXTREME_DECEL),
        ],
    )
    def test_bands(self, dv, expected):
        assert classify_acceleration(dv) is expected

    def test_dense_grid_matches_independent_oracle(self):
        def oracle(dv: float) -> AccelCategory:
            mag = abs(dv)
            if mag < 6.0:
                return AccelCategory.CONSTANT
            if dv > 0:
                levels = (
                    AccelCategory.MILD_ACCEL,
                    AccelCategory.MODERATE_ACCEL,
                    AccelCategory.AGGRESSIVE_ACCEL,
                    AccelCategory.EXTREME_ACCEL,
                )
            else:
                levels = (
                    AccelCategory.MILD_DECEL,
                    AccelCategory.MODERATE_DECEL,
                    AccelCategory.AGGRESSIVE_DECEL,
                    AccelCategory.EXTREME_DECEL,
                )
            if mag < 25.0:
                return levels[0]
            if mag < 46.0:
                return levels[1]
            if mag < 65.0:
                return levels[2]
            return levels[3]

        for k in range(-1000, 1001):
            dv = k / 10.0
            assert classify_acceleration(dv) is oracle(dv), dv

    @given(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False))
    @settings(max_examples=300)
    def test_total_and_deterministic(self, dv):
        assert classify_acceleration(dv) is classify_acceleration(dv)


class TestTwoStep:
    def test_constant_slow_straight(self, horizon):
        # 36 km/h = 10 m/s; both halves straight, slow, constant velocity
        track, _ = gen_trajectory(SynthSpec(kind="straight", speed=10.0), horizon)
        step1, step2 = classify_two_step(track, horizon)
        assert step1 == (DirectionLabel.STRAIGHT, SpeedCategory.SLOW, AccelCategory.CONSTANT)
        assert step2 == step1

    def test_straight_then_left(self, horizon):
        spec = SynthSpec(
            kind="piecewise",
            phases=(Phase(4.0, 8.0, 8.0, 0.0), Phase(3.9, 8.0, 8.0, 90.0)),
        )
        track, _ = gen_trajectory(spec, horizon)
        step1, step2 = classify_two_step(track, horizon)
        assert step1[0] is DirectionLabel.STRAIGHT
        assert step2[0] is DirectionLabel.LEFT

    def test_all_stationary(self, horizon):
        track, _ = gen_trajectory(SynthSpec(kind="straight", speed=0.0), horizon)
        step1, step2 = classify_two_step(track, horizon)
        assert step1[0] is DirectionLabel.STATIONARY
        assert step2[0] is DirectionLabel.STATIONARY

    def test_delta_v_normalized_to_8s(self, horizon):
        # +4 m/s over the 4 s half doubles to +28.8 km/h per 8 s: ModerateAccel
        track, _ = gen_trajectory(
            SynthSpec(
                kind="piecewise",
                phases=(Phase(3.9, 8.0, 12.0, 0.0), Phase(4.0, 12.0, 12.0, 0.0)),
            ),
            horizon,
        )
        step1, step2 = classify_two_step(track, horizon)
        assert step1[2] is AccelCategory.MODERATE_ACCEL
        assert step2[2] is AccelCategory.CONSTANT

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 41),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.2, 0.5, 0.9]),
        st.sampled_from([0.004, 0.05, 0.6, 2.0]),
    )
    def test_one_kernel_call_equals_a_call_per_half(self, t_pred, seed, holes, step):
        """Both halves in one padded N = 2 kernel call give the labels, or the
        first failing half's error, of one classify_direction_fine call per half."""
        rng = np.random.default_rng(seed)
        horizon = HorizonConfig(t_obs=2, t_pred=t_pred, t_select=())
        n = horizon.n_steps
        heading = np.cumsum(rng.normal(scale=0.4, size=n))
        xy = np.cumsum(step * rng.random(n)[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1), axis=0)
        valid = rng.random(n) >= holes
        track = make_track(xy, speeds=rng.random(n) * 3.0, headings=rng.uniform(-3.0, 3.0, n), valid=valid)
        start, stop = horizon.future_window
        mid = start + (stop - start) // 2
        halves = ((start, mid), (mid, stop))
        try:
            expected = [classify_direction_fine(track, half) for half in halves]
        except errors.InsufficientPoints as exc:
            for call in (lambda: attributes._classify_windows(track, halves, TH), lambda: classify_two_step(track, horizon)):
                with pytest.raises(errors.InsufficientPoints, match=re.escape(str(exc))):
                    call()
            return
        assert attributes._classify_windows(track, halves, TH) == expected
        step1, step2 = classify_two_step(track, horizon)
        assert [step1[0], step2[0]] == [DEFAULT_COLLAPSE[fine] for fine in expected]
