"""The synthetic generator: oracle equivalence, determinism, fixtures."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionkit import errors, synth
from motionkit.attributes import DirectionLabel, extract_motion_attributes
from motionkit.behavior import classify_behavior
from motionkit.core import HorizonConfig, serialize_scenario
from motionkit.feasibility import feasibility_set
from motionkit.metrics import ifr_scenario
from motionkit.synth import (
    Phase,
    SynthSpec,
    TOPOLOGIES,
    build_corpus,
    default_suite,
    expectation_to_obj,
    gen_lane_graph,
    gen_prediction_set,
    gen_scenario,
    gen_trajectory,
)

from phase_oracle import phase_at

H = HorizonConfig()


class TestOracleEquivalence:
    def test_classifiers_match_analytic_labels_on_full_suite(self):
        mismatches = []
        for i, spec in enumerate(default_suite(500)):
            track, expected = gen_trajectory(spec, H)
            attrs = extract_motion_attributes(track, H)
            behavior = classify_behavior(track, H)
            if attrs.fine_direction is not expected.fine:
                mismatches.append((i, spec.kind, "fine", attrs.fine_direction, expected.fine))
            if attrs.direction is not expected.direction:
                mismatches.append((i, spec.kind, "direction", attrs.direction, expected.direction))
            if attrs.speed is not expected.speed:
                mismatches.append((i, spec.kind, "speed", attrs.speed, expected.speed))
            if attrs.acceleration is not expected.acceleration:
                mismatches.append((i, spec.kind, "accel", attrs.acceleration, expected.acceleration))
            if behavior is not expected.behavior:
                mismatches.append((i, spec.kind, "behavior", behavior, expected.behavior))
        assert mismatches == []

    def test_suite_spans_all_families(self):
        fines = {gen_trajectory(s, H)[1].fine.value for s in default_suite(100)}
        assert {"Straight", "Stationary", "LeftTurn", "RightTurn", "LeftUTurn", "RightUTurn"} <= fines
        assert fines & {"StraightVeerLeft", "StraightVeerRight"}


class TestNonDefaultStep:
    @pytest.mark.parametrize("dt", [0.2, 0.3])
    def test_sidecar_equals_extract(self, dt):
        """Every sidecar field equals what extract and the behavior rules give
        the same track on the same horizon, also when dt is not 0.1."""
        horizon = HorizonConfig(dt=dt)
        mismatches = []
        for scenario, expected in build_corpus(300, seed=7, horizon=horizon, topology=None):
            track = scenario.focal_track
            attrs = extract_motion_attributes(track, horizon)
            labelled = {
                "scenario_id": scenario.scenario_id,
                "fine_direction": attrs.fine_direction.value,
                "direction": attrs.direction.value,
                "speed": attrs.speed.value,
                "acceleration": attrs.acceleration.value,
                "behavior": classify_behavior(track, horizon).value,
            }
            sidecar = expectation_to_obj(scenario.scenario_id, expected)
            if labelled != sidecar:
                mismatches.append((sidecar, labelled))
        assert mismatches == []


class TestDeterminism:
    def test_suite_is_seed_deterministic(self):
        assert default_suite(60, seed=21) == default_suite(60, seed=21)
        assert default_suite(60, seed=21) != default_suite(60, seed=22)

    def test_trajectory_is_reproducible(self):
        spec = SynthSpec(kind="u_turn", radius=1.1, angle_deg=168.0, speed=8.4)
        a, _ = gen_trajectory(spec, H)
        b, _ = gen_trajectory(spec, H)
        assert a == b


def _pinned_parts(case: str):
    """The byte chunks whose sha256 ``TestPinnedBytes`` pins for ``case``."""
    kind, _, arg = case.partition(":")
    if kind in ("corpus", "horizon"):
        n, topology, horizon = (12, arg, H) if kind == "corpus" else (30, "single", _PINNED_HORIZONS[arg])
        for scenario, expected in build_corpus(n, seed=3, horizon=horizon, topology=topology):
            yield serialize_scenario(scenario).encode()
            yield json.dumps(expectation_to_obj(scenario.scenario_id, expected), sort_keys=True).encode()
    elif kind == "suite":
        yield repr(default_suite(30, seed=int(arg))).encode()
    elif kind == "predictions":
        for spec in (
            SynthSpec(kind="straight", speed=10.0),
            SynthSpec(kind="arc", radius=15.0, angle_deg=90.0, speed=8.0),
            SynthSpec(kind="straight", speed=0.0),
        ):
            track, exp = gen_trajectory(spec, H)
            preds = gen_prediction_set(track, exp.direction, 2, n_modes=4, horizon=H, perturbation=arg, seed=5)
            yield preds.trajectories.tobytes()
            yield preds.scores.tobytes()
    else:  # a long future window behind a short observed one
        horizon = HorizonConfig(t_obs=5, t_pred=120, t_select=(119,))
        for spec in default_suite(10, seed=4, horizon=horizon):
            track, exp = gen_trajectory(spec, horizon)
            yield track.xy.tobytes() + track.headings.tobytes() + track.speeds.tobytes()
            yield repr(exp).encode()


# Corpora on other horizons: a long future window, and 0.2 s steps, where the
# suite's chord check rejects draws that the 0.1 s margins alone would accept.
_PINNED_HORIZONS = {"t_pred_120": HorizonConfig(t_pred=120, t_select=(119,)), "dt_0.2": HorizonConfig(dt=0.2)}

# sha256 of the generator's output. Corpora, sidecars and prediction sets feed
# every benchmark input and fixture, so a refactor must leave these unchanged.
PINNED_SHA256 = {
    "corpus:single": "95b1bd867a6261a99792d594c039760e49a8fbf5b9406323dcec521e32f66d2b",
    "corpus:t_junction": "472f275954073d540f29b8b72d0a6eff16f20ba115b9cffcb739ee5c21540ea4",
    "corpus:parallel_pair": "83c93d85125daab38133bb4a3cb5977793f51be0033c41ab7f252036d7d462c2",
    "corpus:u_loop": "cbb1987ac791e517f377d15d155d3251e49d58626a69a08dd833097d3ab95e45",
    "suite:1": "404ccfdb1c38a4f95d7d06da16e212692decc0283660d61f80f34395ad45d49c",
    "suite:2": "d4f65f74439ab0bf28944ca8d38cad857c553fa14eb787b82df9d82b64b6fbde",
    "predictions:none": "b722c2fd2b554962af6ccc8b9a84bcc38a6c3866321cecbb99428d9f76c14733",
    "predictions:jitter": "97da9e1576e1cb1b38a9569a58fc4f566e257bcbd613a960a9a50b7115a44754",
    "trajectory:t_pred_120": "659b1147c9f6fce25c92aa396085b515c3045f7822cd3854b01918a48423a370",
    "horizon:t_pred_120": "149f04f7ca9ca8406b81c8df9a93607cdb42d3656e5f37fea04a8eb1d85c23b3",
    "horizon:dt_0.2": "da4ad2ddbe7ffbd431a02942ce00d788c75893c22f12409b666e19ebf3f906e7",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("case", sorted(PINNED_SHA256))
    def test_output_bytes_are_pinned(self, case):
        digest = hashlib.sha256()
        for part in _pinned_parts(case):
            digest.update(part)
        assert digest.hexdigest() == PINNED_SHA256[case]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(kind="teleport")

    def test_arc_angle_range(self):
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(kind="arc", angle_deg=250.0)
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(kind="arc", angle_deg=0.0)

    def test_arc_must_fit_window(self):
        with pytest.raises(errors.InvalidSpec):
            gen_trajectory(SynthSpec(kind="arc", radius=100.0, angle_deg=150.0, speed=5.0), H)

    def test_piecewise_needs_phases(self):
        with pytest.raises(errors.InvalidSpec):
            gen_trajectory(SynthSpec(kind="piecewise"), H)

    def test_piecewise_too_long(self):
        with pytest.raises(errors.InvalidSpec):
            gen_trajectory(SynthSpec(kind="piecewise", phases=(Phase(9.0, 5.0, 5.0),)), H)


class TestLaneFixtures:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_fixture_labels_realized(self, topology):
        fixture = gen_lane_graph(topology)
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s", H, topology=topology)
        report = feasibility_set(scenario)
        realized = set(report.feasible) | {report.gt_direction}
        assert fixture.expected_feasible <= realized

    def test_unknown_topology(self):
        with pytest.raises(errors.InvalidSpec):
            gen_lane_graph("roundabout")

    def test_lane_graphs_are_valid_model_objects(self):
        for topology in TOPOLOGIES:
            for lane in gen_lane_graph(topology).lanes:
                assert len(lane.xy) >= 2


class TestPredictionSets:
    @pytest.mark.parametrize("matches,expected", [(6, 1.0), (2, 2.0 / 6.0), (0, 0.0)])
    def test_controlled_match_counts(self, matches, expected):
        track, exp = gen_trajectory(SynthSpec(kind="straight", speed=10.0), H)
        preds = gen_prediction_set(track, exp.direction, match_count=matches, n_modes=6, horizon=H)
        assert ifr_scenario(exp.direction, preds, H.dt)[0] == pytest.approx(expected, abs=1e-12)

    def test_redirects_verified_for_every_label(self):
        specs = {
            "Straight": SynthSpec(kind="straight", speed=10.0),
            "Left": SynthSpec(kind="arc", radius=15.0, angle_deg=90.0, speed=8.0),
            "Right": SynthSpec(kind="arc", radius=15.0, angle_deg=-90.0, speed=8.0),
            "LeftUTurn": SynthSpec(kind="u_turn", radius=1.0, angle_deg=170.0, speed=8.5),
            "Stationary": SynthSpec(kind="straight", speed=0.0),
        }
        for name, spec in specs.items():
            track, exp = gen_trajectory(spec, H)
            assert exp.direction.value == name
            preds = gen_prediction_set(track, exp.direction, match_count=0, n_modes=3, horizon=H)
            assert ifr_scenario(exp.direction, preds, H.dt)[0] == 0.0

    def test_jitter_preserves_labels(self):
        track, exp = gen_trajectory(SynthSpec(kind="arc", radius=15.0, angle_deg=90.0, speed=8.0), H)
        preds = gen_prediction_set(
            track, exp.direction, match_count=4, n_modes=6, horizon=H, perturbation="jitter", seed=3
        )
        assert ifr_scenario(exp.direction, preds, H.dt)[0] == pytest.approx(4.0 / 6.0)

    def test_redirect_cache_repeats_a_fresh_build(self):
        track, _ = gen_trajectory(SynthSpec(kind="straight", speed=10.0), H)
        for label in DirectionLabel:
            synth._redirect.cache_clear()
            fresh = gen_prediction_set(track, label, 1, n_modes=3, horizon=H)
            for _ in range(2):
                again = gen_prediction_set(track, label, 1, n_modes=3, horizon=H)
                assert np.array_equal(again.trajectories, fresh.trajectories)
            assert synth._redirect.cache_info().hits == 2

    def test_cached_redirect_track_is_read_only(self):
        track, _ = synth._redirect(synth._redirect_spec(DirectionLabel.STRAIGHT), H)
        assert track == gen_trajectory(synth._redirect_spec(DirectionLabel.STRAIGHT), H)[0]
        for array in (track.xy, track.headings, track.speeds, track.valid_mask):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            track.xy[0, 0] = 1.0

    def test_redirects_are_cached_per_horizon(self):
        short = HorizonConfig(t_pred=50, t_select=(49,))
        spec = synth._redirect_spec(DirectionLabel.STRAIGHT)
        a, b = synth._redirect(spec, short)[0], synth._redirect(spec, H)[0]
        assert (len(a.xy), len(b.xy)) == (short.n_steps, H.n_steps)
        for horizon in (short, H):
            track, exp = gen_trajectory(SynthSpec(kind="straight", speed=10.0), horizon)
            preds = gen_prediction_set(track, exp.direction, 0, n_modes=2, horizon=horizon)
            assert preds.trajectories.shape == (2, horizon.t_pred, 2)
            assert ifr_scenario(exp.direction, preds, horizon.dt)[0] == 0.0

    def test_match_count_bounds(self):
        track, exp = gen_trajectory(SynthSpec(kind="straight", speed=10.0), H)
        with pytest.raises(errors.InvalidSpec):
            gen_prediction_set(track, exp.direction, match_count=7, n_modes=6, horizon=H)


# A phase: zero-duration phases allowed; an arc only when it covers a positive distance.
_phases = st.builds(
    lambda duration, v0, v1, angle: Phase(duration, v0, v1, angle if duration * (v0 + v1) / 2.0 > 0 else 0.0),
    st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
    st.floats(0.0, 30.0),
    st.floats(0.0, 30.0),
    st.one_of(st.just(0.0), st.floats(-150.0, 150.0)),
)


class TestPhasePlan:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_phases, min_size=1, max_size=5),
        st.lists(st.floats(-0.5, 1.5), max_size=12),
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12]))),
    )
    def test_sample_and_kinematics_equal_the_row_scan(self, phases, fractions, near_starts):
        """Times inside and outside [0, t_end] and within 1e-12 of a row start,
        nondecreasing as in every caller."""
        phases = tuple(phases)
        plan = synth._PhasePlan(phases)
        starts = list(itertools.accumulate((ph.duration_s for ph in phases[:-1]), initial=0.0))
        times = sorted(
            [f * plan.t_end for f in fractions]
            + [starts[i % len(starts)] + d for i, d in near_starts]
            + [-1.0, plan.t_end, plan.t_end + 1.0]
        )
        expected = [phase_at(phases, t) for t in times]
        assert plan.sample(times) == expected
        assert plan.kinematics(np.array(times))[2].tolist() == [v for _, _, _, v, _ in expected]
