"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines with timings.
"""

import json
import math
import time

import numpy as np
import pytest

from motionkit.attributes import (
    AccelCategory,
    DirectionLabel,
    SpeedCategory,
    classify_acceleration,
    classify_speed,
    extract_motion_attributes,
)
from motionkit.behavior import (
    BehaviorLabel,
    Safety,
    classify_behavior,
    label_safety,
    load_default_guidelines,
)
from motionkit.cli import main as cli_main
from motionkit.core import HorizonConfig, serialize_scenario
from motionkit.feasibility import FeasibilityParams, feasibility_set, reachable_range
from motionkit.instructions import (
    Decision,
    InstructionRecord,
    SamplerConfig,
    render_caption,
    render_instruction,
    sample_training_mix,
)
from motionkit.feasibility import FeasTag
from motionkit.metrics import (
    PredictionSet,
    gmm_nll,
    ifr_macro,
    ifr_micro,
    ifr_scenario,
    min_ade,
    min_fde,
    score_loss,
)
from motionkit.synth import (
    SynthSpec,
    TOPOLOGIES,
    build_corpus,
    default_suite,
    gen_prediction_set,
    gen_scenario,
    gen_trajectory,
)

from test_behavior import PEDESTRIAN_TEMPLATE, canonical_profiles
from tracks import future_speed_track

H = HorizonConfig()


def test_criterion_1_fig_worked_ifr_examples():
    t0 = time.perf_counter()
    track, expected = gen_trajectory(SynthSpec(kind="straight", speed=10.0), H)
    for matches, pct in ((6, 100.0), (2, 33.33), (1, 16.67)):
        preds = gen_prediction_set(track, expected.direction, match_count=matches, n_modes=6, horizon=H)
        value, _ = ifr_scenario(expected.direction, preds, H.dt)
        assert abs(100.0 * value - pct) <= 0.01, (matches, value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: worked IFR examples 100/33.33/16.67 within 0.01pp ({elapsed:.2f} s)")


def test_criterion_2_direction_oracle_equivalence():
    t0 = time.perf_counter()
    suite = default_suite(500)
    assert len(suite) >= 500
    disagreements = 0
    families = set()
    for spec in suite:
        track, expected = gen_trajectory(spec, H)
        attrs = extract_motion_attributes(track, H)
        families.add(expected.fine.value)
        if attrs.fine_direction is not expected.fine:
            disagreements += 1
    assert families >= {
        "Straight",
        "StraightVeerLeft",
        "StraightVeerRight",
        "LeftTurn",
        "RightTurn",
        "LeftUTurn",
        "RightUTurn",
        "Stationary",
    }
    assert disagreements == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[PASS] criterion 2: 500/500 oracle agreement across all families ({elapsed:.2f} s)")


def test_criterion_3_threshold_exactness():
    def speed_oracle(v: float) -> SpeedCategory:
        if v < 20.0:
            return SpeedCategory.VERY_SLOW
        if v < 40.0:
            return SpeedCategory.SLOW
        if v < 90.0:
            return SpeedCategory.MODERATE
        if v < 120.0:
            return SpeedCategory.FAST
        return SpeedCategory.VERY_FAST

    order = list(SpeedCategory)
    previous = 0
    for k in range(0, 2001):
        v = k / 10.0
        got = classify_speed(v)
        assert got is speed_oracle(v), v
        index = order.index(got)
        assert index >= previous  # no gaps/overlaps: bands ascend monotonically
        previous = index
    for boundary, below, above in (
        (20.0, SpeedCategory.VERY_SLOW, SpeedCategory.SLOW),
        (40.0, SpeedCategory.SLOW, SpeedCategory.MODERATE),
        (90.0, SpeedCategory.MODERATE, SpeedCategory.FAST),
        (120.0, SpeedCategory.FAST, SpeedCategory.VERY_FAST),
    ):
        assert classify_speed(boundary - 0.1) is below
        assert classify_speed(boundary) is above  # half-open [lower, upper)

    def accel_oracle(dv: float) -> AccelCategory:
        mag = abs(dv)
        if mag < 6.0:
            return AccelCategory.CONSTANT
        accel = dv > 0
        if mag < 25.0:
            return AccelCategory.MILD_ACCEL if accel else AccelCategory.MILD_DECEL
        if mag < 46.0:
            return AccelCategory.MODERATE_ACCEL if accel else AccelCategory.MODERATE_DECEL
        if mag < 65.0:
            return AccelCategory.AGGRESSIVE_ACCEL if accel else AccelCategory.AGGRESSIVE_DECEL
        return AccelCategory.EXTREME_ACCEL if accel else AccelCategory.EXTREME_DECEL

    for k in range(-1000, 1001):
        dv = k / 10.0
        assert classify_acceleration(dv) is accel_oracle(dv), dv
    for boundary in (6.0, 25.0, 46.0, 65.0):
        assert classify_acceleration(boundary) is not classify_acceleration(boundary - 0.1)
        assert classify_acceleration(-boundary) is not classify_acceleration(-(boundary - 0.1))
    print("[PASS] criterion 3: speed/accel tables exact on dense grids, half-open, no gaps")


def test_criterion_4_feasibility_invariants():
    kmh = 3.6
    for topology in TOPOLOGIES:
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "a", H, topology=topology)
        report = feasibility_set(scenario)
        assert report.gt_direction not in report.infeasible

        prev = frozenset()
        for max_range in (10.0, 25.0, 40.0, 60.0):
            rep = feasibility_set(scenario, FeasibilityParams(max_range_m=max_range))
            current = frozenset(rep.feasible) | {rep.gt_direction}
            assert prev <= current, (topology, max_range)
            prev = current

    for speed_kmh, expect_feasible in ((64.9, True), (65.0, False), (65.1, False)):
        scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=speed_kmh / kmh), "b", H, topology="single")
        rep = feasibility_set(scenario)
        assert (DirectionLabel.STATIONARY in rep.feasible) is expect_feasible, speed_kmh

    scenario, _ = gen_scenario(SynthSpec(kind="straight", speed=50.0 / kmh), "c", H, topology="single")
    rep = feasibility_set(scenario)
    assert rep.infeasible == {DirectionLabel.LEFT, DirectionLabel.RIGHT, DirectionLabel.LEFT_U_TURN}
    print("[PASS] criterion 4: GT never infeasible, 65 km/h stationary flip, range monotone, single-lane set")


def test_criterion_5_reachable_range_spot_values():
    def hand_integrated(v0: float, limit_kmh, horizon_s=8.0, cap=60.0) -> float:
        v_top = v0 + 15.0 / 3.6
        if limit_kmh is not None:
            v_top = min(v_top, limit_kmh / 3.6)
        ts = np.linspace(0.0, horizon_s, 100001)
        vs = v0 + (v_top - v0) * ts / horizon_s
        return min(cap, float(np.trapezoid(vs, ts)))

    got = reachable_range(0.0, None)
    assert abs(got - 16.67) <= 0.01
    assert abs(got - hand_integrated(0.0, None)) <= 0.01

    got = reachable_range(10.0, 36.0)  # limit clamps top speed to the current 10 m/s
    assert got == pytest.approx(60.0)
    assert hand_integrated(10.0, 36.0) == pytest.approx(60.0)
    print("[PASS] criterion 5: reachable range 16.67 m at standstill, 60 m cap binding, matches quadrature")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        t, m = int(rng.integers(4, 40)), int(rng.integers(1, 8))
        gt = rng.normal(size=(t, 2)) * 20
        traj = rng.normal(size=(m, t, 2)) * 20
        gt_valid = rng.random(t) > 0.15
        mode_valid = rng.random((m, t)) > 0.15
        gt_valid[-1] = True
        mode_valid[:, -1] = True
        preds = PredictionSet(scenario_id="s", trajectories=traj, scores=np.ones(m), valid=mode_valid)
        ades, fdes = [], []
        for j in range(m):
            ds = [
                math.hypot(traj[j, k, 0] - gt[k, 0], traj[j, k, 1] - gt[k, 1])
                for k in range(t)
                if gt_valid[k] and mode_valid[j, k]
            ]
            if ds:
                ades.append(sum(ds) / len(ds))
                fdes.append(ds[-1])
        assert abs(min_ade(gt, gt_valid, preds) - min(ades)) < 1e-9
        assert abs(min_fde(gt, gt_valid, preds) - min(fdes)) < 1e-9

    t = 12
    gt = np.linspace(0, 10, t * 2).reshape(t, 2)
    ones = np.ones(t, dtype=bool)
    mu, sigma = gt[None].copy(), np.ones((1, t, 2))
    assert gmm_nll(mu, sigma, gt, ones, 0, [3]) == pytest.approx(0.0, abs=1e-12)
    mu_off = mu.copy()
    mu_off[0, :, 0] += 1.0
    assert gmm_nll(mu_off, sigma, gt, ones, 0, [3]) == pytest.approx(0.5, abs=1e-12)
    sigma_e = sigma.copy()
    sigma_e[0, :, 0] = math.e
    assert gmm_nll(mu, sigma_e, gt, ones, 0, [3]) == pytest.approx(1.0, abs=1e-12)
    assert score_loss(np.ones(6), 2) == pytest.approx(math.log(6.0), abs=1e-12)
    print("[PASS] criterion 6: minADE/minFDE vs brute force 1e-9, GMM NLL closed forms 1e-12, CE=ln 6")


def test_criterion_7_macro_vs_micro():
    rows = [(DirectionLabel.STRAIGHT, 1.0)] * 9 + [(DirectionLabel.LEFT, 0.0)]
    macro, _ = ifr_macro(rows)
    micro = ifr_micro([v for _, v in rows])
    assert macro == 0.5
    assert micro == 0.9
    print("[PASS] criterion 7: 9-vs-1 corpus gives macro 0.5000 / micro 0.9000 exactly")


def test_criterion_8_behavior_and_guideline():
    for label, speeds in canonical_profiles().items():
        track = future_speed_track(speeds, H)
        assert classify_behavior(track, H) is label, label
    book = load_default_guidelines()
    safety, template = label_safety("waiting_for_pedestrian_to_cross", BehaviorLabel.NOT_MOVING, book)
    assert safety is Safety.SAFE
    assert template == PEDESTRIAN_TEMPLATE
    print("[PASS] criterion 8: 8 canonical behavior profiles + pedestrian-crossing guideline template")


def test_criterion_9_sampler_statistics():
    rows = []
    per_class = {d: 50 for d in DirectionLabel}
    for d, count in per_class.items():
        for i in range(count):
            rows.append(
                InstructionRecord(
                    scenario_id=f"{d.value}-{i}",
                    focal_agent_id="ego",
                    instruction_text=render_instruction(d),
                    caption_text=render_caption(d),
                    decision=Decision.ACCEPT,
                    feas_tag=FeasTag.GT,
                    direction=d,
                )
            )
    for i in range(100):
        rows.append(
            InstructionRecord(
                scenario_id=f"if-{i}",
                focal_agent_id="ego",
                instruction_text=render_instruction(DirectionLabel.LEFT),
                caption_text="[Reject] The instruction left is infeasible.",
                decision=Decision.REJECT,
                feas_tag=FeasTag.IF,
                direction=DirectionLabel.LEFT,
            )
        )
    cfg = SamplerConfig(gt_fraction=0.7, if_fraction=0.3, class_balanced=True, seed=2024)
    draws = list(sample_training_mix(rows, cfg, n_draws=100_000))
    gt_fraction = sum(1 for r in draws if r.feas_tag is FeasTag.GT) / len(draws)
    assert abs(gt_fraction - 0.7) <= 0.01  # +-1 pp

    gt_draws = [r for r in draws if r.feas_tag is FeasTag.GT]
    for d in DirectionLabel:
        share = sum(1 for r in gt_draws if r.direction is d) / len(gt_draws)
        assert abs(share - 0.2) <= 0.02, d  # +-2 pp across the five classes

    stream_a = "\n".join(json.dumps(r.to_obj(), sort_keys=True) for r in sample_training_mix(rows, cfg, 5000))
    stream_b = "\n".join(json.dumps(r.to_obj(), sort_keys=True) for r in sample_training_mix(rows, cfg, 5000))
    assert stream_a.encode() == stream_b.encode()
    print(f"[PASS] criterion 9: 100k draws at {gt_fraction:.4f} GT, balanced classes, byte-identical reruns")


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus10k")
    pairs = build_corpus(10_000, seed=11, horizon=H)
    corpus = root / "corpus.jsonl"
    rows = root / "rows.jsonl"
    preds = root / "preds.jsonl"
    start, stop = H.future_window
    expected_micro = []
    with corpus.open("w") as fc, rows.open("w") as fr, preds.open("w") as fp:
        for i, (scenario, expected) in enumerate(pairs):
            fc.write(serialize_scenario(scenario) + "\n")
            track = scenario.focal_track
            row = InstructionRecord(
                scenario_id=scenario.scenario_id,
                focal_agent_id=scenario.focal_agent_id,
                instruction_text=render_instruction(expected.direction),
                caption_text=render_caption(expected.direction),
                decision=Decision.ACCEPT,
                feas_tag=FeasTag.GT,
                direction=expected.direction,
                has_gt_trajectory=True,
                gt_future_xy=tuple(map(tuple, track.xy[start:stop].tolist())),
                gt_future_valid=tuple(track.valid_mask[start:stop].tolist()),
            )
            fr.write(json.dumps(row.to_obj(), sort_keys=True, separators=(",", ":")) + "\n")
            matches = i % 7
            expected_micro.append(matches / 6.0)
            pset = gen_prediction_set(track, expected.direction, match_count=matches, n_modes=6, horizon=H)
            traj = np.round(pset.trajectories, 3)
            fp.write(
                json.dumps(
                    {
                        "scenario_id": scenario.scenario_id,
                        "direction": expected.direction.value,
                        "trajectories": traj.tolist(),
                        "scores": pset.scores.tolist(),
                        "decision": "Accept",
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
    return root, corpus, rows, preds, float(np.mean(expected_micro))


def test_criterion_10_determinism_and_throughput(big_corpus):
    root, corpus, rows, preds, expected_micro = big_corpus
    timings = {}
    outputs = {}
    for jobs in (1, 8):
        attrs = root / f"attrs-j{jobs}.jsonl"
        report = root / f"report-j{jobs}.json"
        t0 = time.perf_counter()
        assert cli_main(["extract", str(corpus), "--out", str(attrs), "--jobs", str(jobs)]) == 0
        t1 = time.perf_counter()
        assert (
            cli_main(
                [
                    "evaluate",
                    "--dataset",
                    str(rows),
                    "--predictions",
                    str(preds),
                    "--report",
                    str(report),
                    "--jobs",
                    str(jobs),
                ]
            )
            == 0
        )
        t2 = time.perf_counter()
        timings[jobs] = (t1 - t0, t2 - t1)
        outputs[jobs] = (attrs.read_bytes(), report.read_bytes())
        assert t2 - t0 < 60.0, f"jobs={jobs} took {t2 - t0:.1f}s"

    assert outputs[1][0] == outputs[8][0], "extract outputs differ across parallelism"
    assert outputs[1][1] == outputs[8][1], "evaluate reports differ across parallelism"

    metrics = json.loads(outputs[1][1])["metrics"]
    assert metrics["n_rows"] == 10_000
    assert metrics["ifr_micro"] == pytest.approx(expected_micro, abs=1e-9)
    ex1, ev1 = timings[1]
    ex8, ev8 = timings[8]
    print(
        f"[PASS] criterion 10: 10k scenarios byte-identical at jobs 1/8 "
        f"(extract {ex1:.1f}s/{ex8:.1f}s, evaluate {ev1:.1f}s/{ev8:.1f}s)"
    )
