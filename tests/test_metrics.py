"""IFR, displacement errors, detection accuracies, and GMM loss arithmetic."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionkit import errors
from motionkit.attributes import DirectionLabel, DirectionThresholds, LabelRules
from motionkit.behavior import Safety
from motionkit.core import HorizonConfig
from motionkit.feasibility import FeasTag
from motionkit.instructions import Decision
from motionkit.metrics import (
    PredictionSet,
    best_mode,
    classify_prediction,
    detection_accuracy,
    gmm_nll,
    ifr_macro,
    ifr_micro,
    ifr_scenario,
    min_ade,
    min_fde,
    safety_accuracy,
    score_loss,
)
from motionkit.synth import SynthSpec, gen_prediction_set, gen_trajectory

from direction_oracle import classify_prediction_per_mode, packed_path_length

H = HorizonConfig()
DT = H.dt


def straight_gt():
    track, expected = gen_trajectory(SynthSpec(kind="straight", speed=10.0), H)
    return track, expected.direction


def preds_from(arrays, scores=None) -> PredictionSet:
    traj = np.stack(arrays)
    if scores is None:
        scores = np.full(traj.shape[0], 1.0 / traj.shape[0])
    return PredictionSet(scenario_id="s", trajectories=traj, scores=np.asarray(scores))


class TestIfrScenario:
    @pytest.mark.parametrize("matches,expected", [(6, 1.0), (2, 2.0 / 6.0), (1, 1.0 / 6.0), (0, 0.0)])
    def test_match_counts(self, matches, expected):
        track, label = straight_gt()
        preds = gen_prediction_set(track, label, match_count=matches, n_modes=6, horizon=H)
        value, unclassifiable = ifr_scenario(label, preds, DT)
        assert value == pytest.approx(expected, abs=1e-12)
        assert unclassifiable == 0

    def test_unclassifiable_counts_as_miss(self):
        track, label = straight_gt()
        preds = gen_prediction_set(track, label, match_count=6, n_modes=6, horizon=H)
        valid = preds.valid.copy()
        valid[0, :] = False
        broken = PredictionSet(
            scenario_id="s", trajectories=preds.trajectories, scores=preds.scores, valid=valid
        )
        value, unclassifiable = ifr_scenario(label, broken, DT)
        assert value == pytest.approx(5.0 / 6.0)
        assert unclassifiable == 1

    def test_rigid_motion_invariance(self):
        track, label = straight_gt()
        preds = gen_prediction_set(track, label, match_count=3, n_modes=6, horizon=H)
        phi = 1.1
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        moved = PredictionSet(
            scenario_id="s",
            trajectories=preds.trajectories @ rot.T + np.array([13.0, -4.0]),
            scores=preds.scores,
        )
        assert ifr_scenario(label, moved, DT)[0] == ifr_scenario(label, preds, DT)[0]


@st.composite
def holed_modes(draw):
    """(M, T, 2) random walks and an (M, T) mask whose rows have leading, inner and
    trailing holes, including rows with 0 or 1 valid samples. The walk's step (m per
    0.1 s) is below the default v_stationary * dt for every scale but the last."""
    m, t = draw(st.integers(1, 4)), draw(st.integers(0, 24))
    rows = []
    for _ in range(m):
        lead = draw(st.integers(0, t))
        tail = draw(st.integers(0, t - lead))
        inner = draw(st.lists(st.booleans(), min_size=t - lead - tail, max_size=t - lead - tail))
        rows.append([False] * lead + inner + [False] * tail)
    mask = np.array(rows, dtype=bool).reshape(m, t)
    step = draw(st.sampled_from([0.002, 0.03, 0.12, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heading = np.cumsum(rng.normal(scale=0.4, size=(m, t)), axis=1)
    moves = (step * rng.random((m, t)))[:, :, None] * np.stack([np.cos(heading), np.sin(heading)], axis=2)
    xy = np.cumsum(moves, axis=1) + rng.normal(scale=10.0, size=(m, 1, 2))
    gt = xy[0] + rng.normal(scale=step, size=(t, 2))
    gt_valid = np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)), dtype=bool)
    return xy, mask, gt, gt_valid


_FIXED_WALK = np.cumsum(np.full((4, 12, 2), [0.011, 0.007]), axis=1)
_FIXED_MASK = np.array(
    [[False] * 12, [False] * 5 + [True] + [False] * 6, [False, False] + [True, False] * 4 + [False, False], [True] * 12]
)


class TestBatchedAgainstPerModeOracle:
    """The batched kernels against the per-mode path they replaced (``direction_oracle``)."""

    @settings(max_examples=300, deadline=None)
    @given(holed_modes(), st.sampled_from(["default", "exact", "above"]))
    @example((_FIXED_WALK, _FIXED_MASK, _FIXED_WALK[3], np.ones(12, dtype=bool)), "exact")
    def test_labels_and_displacements_equal_the_oracle(self, draw, boundary):
        xy, mask, gt, gt_valid = draw
        rules = LabelRules()
        if boundary != "default":
            # Put d_stationary on a slow row's exact packed path length (or one ulp above it),
            # so only that exact sum decides Stationary.
            paths = [packed_path_length(x, v) for x, v in zip(xy, mask) if v.sum() >= 2]
            if paths and max(paths) > 0:
                d = max(paths) if boundary == "exact" else math.nextafter(max(paths), math.inf)
                rules = LabelRules(DirectionThresholds(d_stationary=d))
        expected = [classify_prediction_per_mode(x, v, DT, rules) for x, v in zip(xy, mask)]
        assert classify_prediction(xy, mask, DT, rules) == expected
        assert classify_prediction(xy, None, DT, rules) == [classify_prediction_per_mode(x, None, DT, rules) for x in xy]

        preds = PredictionSet(scenario_id="s", trajectories=xy, valid=mask)
        joint = mask & gt_valid
        if not joint.any():
            with pytest.raises(errors.NoValidOverlap):
                min_ade(gt, gt_valid, preds)
            return
        # per-mode oracle: the expressions min_ade and min_fde looped over modes with
        offsets = xy - gt
        dist = np.linalg.norm(offsets, axis=2)
        ade = min(float(np.mean(d[j])) for d, j in zip(dist, joint) if j.any())
        fde = min(float(np.linalg.norm(o[np.flatnonzero(j)[-1]])) for o, j in zip(offsets, joint) if j.any())
        assert min_ade(gt, gt_valid, preds) == ade
        assert min_fde(gt, gt_valid, preds) == fde


class TestPredictionSet:
    def test_value_semantics_and_read_only_arrays(self):
        track, label = straight_gt()
        a = gen_prediction_set(track, label, match_count=2, n_modes=3, horizon=H)
        b = PredictionSet(scenario_id=a.scenario_id, trajectories=a.trajectories.tolist(), scores=None)
        assert a == b and not a != b
        assert a != PredictionSet(scenario_id=a.scenario_id, trajectories=a.trajectories + 1.0)
        for array in (b.trajectories, b.scores, b.valid):
            assert not array.flags.writeable
        assert b.scores.tolist() == [1.0 / 3] * 3

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"trajectories": np.zeros((0, 5, 2))}, "with M >= 1"),
            ({"scores": np.ones(2)}, "one entry per mode"),
            ({"scores": np.array([1.0, np.nan, 1.0])}, "scores must hold finite numbers"),
            ({"valid": np.ones((3, 5), dtype=int)}, "valid mask must hold booleans"),
            ({"valid": np.ones((3, 4), dtype=bool)}, "valid mask must be (M, T)"),
        ],
    )
    def test_rejects_bad_arrays(self, change, message):
        fields = dict(scenario_id="s", trajectories=np.zeros((3, 5, 2)), scores=np.ones(3)) | change
        with pytest.raises(errors.SchemaError, match=re.escape(message)):
            PredictionSet(**fields)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.integers(1, 4).flatmap(
                lambda t: st.lists(
                    st.lists(
                        st.lists(
                            st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False)),
                            min_size=2,
                            max_size=2,
                        ),
                        min_size=t,
                        max_size=t,
                    ),
                    min_size=m,
                    max_size=m,
                )
            )
        )
    )
    def test_from_obj_builds_the_arrays_np_array_builds(self, trajectories):
        """The flat decode of a JSON line gives the nested conversion's arrays bit for bit."""
        scores = [leaf for point in trajectories[0] for leaf in point][: len(trajectories)]
        scores += [1] * (len(trajectories) - len(scores))
        preds = PredictionSet.from_obj({"scenario_id": "s", "trajectories": trajectories, "scores": scores})
        assert preds.trajectories.tobytes() == np.array(trajectories, dtype=float).tobytes()
        assert preds.scores.tobytes() == np.array(scores, dtype=float).tobytes()


class TestIfrAggregation:
    def test_micro_is_scenario_mean(self):
        assert ifr_micro([1.0, 0.5, 0.0]) == pytest.approx(0.5)

    def test_single_class_macro_equals_micro(self):
        rows = [(DirectionLabel.STRAIGHT, v) for v in (1.0, 0.5, 0.75)]
        macro, per_class = ifr_macro(rows)
        assert macro == pytest.approx(ifr_micro([v for _, v in rows]))
        assert set(per_class) == {DirectionLabel.STRAIGHT}

    def test_nine_vs_one_macro_half_micro_ninety(self):
        rows = [(DirectionLabel.STRAIGHT, 1.0)] * 9 + [(DirectionLabel.LEFT, 0.0)]
        macro, per_class = ifr_macro(rows)
        micro = ifr_micro([v for _, v in rows])
        assert macro == 0.5
        assert micro == 0.9
        assert per_class[DirectionLabel.STRAIGHT] == 1.0
        assert per_class[DirectionLabel.LEFT] == 0.0

    def test_all_match_is_one(self):
        rows = [(d, 1.0) for d in DirectionLabel]
        macro, _ = ifr_macro(rows)
        assert macro == 1.0


class TestDisplacement:
    def test_identical_prediction_zero(self):
        gt = np.cumsum(np.ones((20, 2)), axis=0)
        preds = preds_from([gt])
        valid = np.ones(20, dtype=bool)
        assert min_ade(gt, valid, preds) == 0.0
        assert min_fde(gt, valid, preds) == 0.0

    def test_constant_offset(self):
        gt = np.zeros((10, 2))
        preds = preds_from([gt + np.array([1.0, 0.0])])
        valid = np.ones(10, dtype=bool)
        assert min_ade(gt, valid, preds) == pytest.approx(1.0)
        assert min_fde(gt, valid, preds) == pytest.approx(1.0)

    def test_min_over_modes(self):
        gt = np.zeros((10, 2))
        preds = preds_from([gt + np.array([2.0, 0.0]), gt + np.array([0.5, 0.0])])
        valid = np.ones(10, dtype=bool)
        assert min_ade(gt, valid, preds) == pytest.approx(0.5)
        assert min_fde(gt, valid, preds) == pytest.approx(0.5)

    def test_no_valid_overlap(self):
        gt = np.zeros((10, 2))
        preds = PredictionSet(
            scenario_id="s",
            trajectories=np.zeros((1, 10, 2)),
            scores=np.ones(1),
            valid=np.zeros((1, 10), dtype=bool),
        )
        with pytest.raises(errors.NoValidOverlap):
            min_ade(gt, np.ones(10, dtype=bool), preds)

    def test_brute_force_oracle_100_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            t, m = int(rng.integers(3, 30)), int(rng.integers(1, 7))
            gt = rng.normal(size=(t, 2)) * 10
            traj = rng.normal(size=(m, t, 2)) * 10
            gt_valid = rng.random(t) > 0.2
            mode_valid = rng.random((m, t)) > 0.2
            # guarantee one jointly valid step for every mode
            gt_valid[0] = True
            mode_valid[:, 0] = True
            preds = PredictionSet(scenario_id="s", trajectories=traj, scores=np.ones(m), valid=mode_valid)

            # independent plain-python recomputation
            best_ade = None
            best_fde = None
            for j in range(m):
                dists = []
                last = None
                for k in range(t):
                    if gt_valid[k] and mode_valid[j, k]:
                        d = math.hypot(traj[j, k, 0] - gt[k, 0], traj[j, k, 1] - gt[k, 1])
                        dists.append(d)
                        last = d
                if dists:
                    ade = sum(dists) / len(dists)
                    best_ade = ade if best_ade is None else min(best_ade, ade)
                    best_fde = last if best_fde is None else min(best_fde, last)
            assert abs(min_ade(gt, gt_valid, preds) - best_ade) < 1e-9
            assert abs(min_fde(gt, gt_valid, preds) - best_fde) < 1e-9

            # old path: the per-mode numpy expressions used before the modes shared one
            # offset array; the values must stay bit-identical to them
            old_ade, old_fde = [], []
            for j in range(m):
                mask = gt_valid & mode_valid[j]
                last = np.flatnonzero(mask)[-1]
                old_ade.append(float(np.mean(np.linalg.norm(traj[j][mask] - gt[mask], axis=1))))
                old_fde.append(float(np.linalg.norm(traj[j][last] - gt[last])))
            assert min_ade(gt, gt_valid, preds) == min(old_ade)
            assert min_fde(gt, gt_valid, preds) == min(old_fde)

    def test_adding_a_mode_never_increases(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(15, 2))
        valid = np.ones(15, dtype=bool)
        base = [rng.normal(size=(15, 2)) for _ in range(3)]
        for extra in range(3):
            bigger = base + [rng.normal(size=(15, 2)) for _ in range(extra + 1)]
            assert min_ade(gt, valid, preds_from(bigger)) <= min_ade(gt, valid, preds_from(base)) + 1e-12


class TestDetectionAccuracy:
    def test_all_accept_on_gt(self):
        acc = detection_accuracy([(Decision.ACCEPT, FeasTag.GT)] * 5)
        assert acc[FeasTag.GT] == 1.0

    def test_all_accept_on_if_is_zero(self):
        acc = detection_accuracy([(Decision.ACCEPT, FeasTag.IF)] * 4)
        assert acc[FeasTag.IF] == 0.0

    def test_three_of_four(self):
        pairs = [
            (Decision.ACCEPT, FeasTag.F),
            (Decision.ACCEPT, FeasTag.F),
            (Decision.ACCEPT, FeasTag.F),
            (Decision.REJECT, FeasTag.F),
        ]
        assert detection_accuracy(pairs)[FeasTag.F] == 0.75

    def test_safety_four_way_split(self):
        triples = [
            (Decision.ACCEPT, Safety.SAFE, False),
            (Decision.REJECT, Safety.SAFE, False),
            (Decision.REJECT, Safety.UNSAFE, True),
            (Decision.REJECT, Safety.UNSAFE, True),
            (Decision.ACCEPT, Safety.UNSAFE, False),
        ]
        table = safety_accuracy(triples)
        assert table[(Safety.SAFE, False)] == 0.5
        assert table[(Safety.UNSAFE, True)] == 1.0
        assert table[(Safety.UNSAFE, False)] == 0.0


class TestGmmLoss:
    def test_zero_residual_unit_sigma(self):
        t = 30
        gt = np.arange(t * 2, dtype=float).reshape(t, 2)
        mu = gt[None, :, :].copy()
        sigma = np.ones((1, t, 2))
        nll = gmm_nll(mu, sigma, gt, np.ones(t, dtype=bool), 0, [5, 10, 20])
        assert nll == pytest.approx(0.0, abs=1e-12)

    def test_unit_residual_half_per_step(self):
        t = 10
        gt = np.zeros((t, 2))
        mu = np.zeros((1, t, 2))
        mu[0, :, 0] = -1.0  # dx = 1
        sigma = np.ones((1, t, 2))
        nll = gmm_nll(mu, sigma, gt, np.ones(t, dtype=bool), 0, [0, 1, 2])
        assert nll == pytest.approx(1.5, abs=1e-12)  # 0.5 per selected step

    def test_log_sigma_term(self):
        t = 5
        gt = np.zeros((t, 2))
        mu = np.zeros((1, t, 2))
        sigma = np.ones((1, t, 2))
        sigma[0, :, 0] = math.e
        nll = gmm_nll(mu, sigma, gt, np.ones(t, dtype=bool), 0, [2])
        assert nll == pytest.approx(1.0, abs=1e-12)

    def test_non_positive_sigma(self):
        t = 5
        with pytest.raises(errors.NonPositiveSigma):
            gmm_nll(np.zeros((1, t, 2)), np.zeros((1, t, 2)), np.zeros((t, 2)), np.ones(t, dtype=bool), 0, [0])

    def test_minimized_at_gt_mean(self):
        t = 8
        rng = np.random.default_rng(0)
        gt = rng.normal(size=(t, 2))
        sigma = np.full((1, t, 2), 0.7)
        steps = [1, 4, 7]
        base_mu = gt[None, :, :].copy()
        nll0 = gmm_nll(base_mu, sigma, gt, np.ones(t, dtype=bool), 0, steps)
        for dx in (-0.2, -0.05, 0.05, 0.2):
            for axis in (0, 1):
                mu = base_mu.copy()
                mu[0, :, axis] += dx
                assert gmm_nll(mu, sigma, gt, np.ones(t, dtype=bool), 0, steps) > nll0


class TestBestModeAndScore:
    def test_tie_breaks_to_lowest_index(self):
        t = 10
        mu = np.zeros((3, t, 2))
        gt = np.zeros((t, 2))
        assert best_mode(mu, gt, [2, 5]) == 0

    def test_exact_match_selected(self):
        t = 10
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(t, 2))
        mu = np.stack([gt + 3.0, gt.copy(), gt + 1.0])
        assert best_mode(mu, gt, [0, 5, 9]) == 1

    def test_closer_mode_wins(self):
        t = 10
        gt = np.zeros((t, 2))
        mu = np.stack([gt + np.array([3.0, 0.0]), gt + np.array([1.0, 0.0])])
        assert best_mode(mu, gt, [9]) == 1

    def test_invariant_under_positive_affine_distance_rescale(self):
        t = 10
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(t, 2))
        mu = rng.normal(size=(4, t, 2))
        idx = best_mode(mu, gt, [0, 3, 9])
        scaled = gt + 2.5 * (mu - gt)  # scales every mode distance by 2.5
        assert best_mode(scaled, gt, [0, 3, 9]) == idx

    def test_uniform_scores_cross_entropy(self):
        assert score_loss(np.ones(6), 0) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_one_hot_scores_zero(self):
        assert score_loss(np.array([1.0, 0, 0, 0, 0, 0]), 0) == 0.0

    def test_negative_scores_rejected(self):
        with pytest.raises(errors.SchemaError):
            score_loss(np.array([0.5, -0.1]), 0)
