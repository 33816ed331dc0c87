"""evaluate's block pass: equal to the per-row oracle, the same report bytes, the same errors."""

import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionkit.attributes import DirectionLabel, LabelRules
from motionkit.behavior import Safety
from motionkit.cli import main
from motionkit.core import HorizonConfig
from motionkit.feasibility import FeasTag
from motionkit.instructions import Decision, InstructionRecord, render_caption, render_instruction
from motionkit.metrics import BLOCK_ROWS, PredictionSet, aggregate, score_blocks, score_row
from motionkit.synth import build_corpus, gen_prediction_set

import eval_oracle

H = HorizonConfig()
RULES = LabelRules()


@functools.cache
def eval_lines(seed: int, n: int, holes: float = 0.0) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A GT row per scenario of ``build_corpus(n, seed)`` and a 6-mode prediction matching
    ``i % 7`` of its modes; with ``holes``, that share of GT and prediction steps is invalid."""
    rng = np.random.default_rng(seed)
    start, stop = H.future_window
    rows, preds = [], []
    for i, (scenario, expected) in enumerate(build_corpus(n, seed=seed)):
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
            gt_future_xy=track.xy[start:stop],
            gt_future_valid=track.valid_mask[start:stop] & (rng.random(stop - start) >= holes),
        ).to_obj()
        pset = gen_prediction_set(track, expected.direction, match_count=i % 7, n_modes=6, horizon=H)
        pred = {
            "scenario_id": scenario.scenario_id,
            "direction": expected.direction.value,
            "trajectories": np.round(pset.trajectories, 3).tolist(),
            "scores": pset.scores.tolist(),
            "decision": "Accept",
        }
        if holes:
            pred["valid"] = (rng.random(pset.valid.shape) >= holes).tolist()
        rows.append(json.dumps(row, sort_keys=True))
        preds.append(json.dumps(pred, separators=(",", ":")))
    return tuple(rows), tuple(preds)


def write_lines(path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines))


def evaluate(tmp_path, monkeypatch, rows, preds) -> tuple[int, bytes]:
    """Exit code and report bytes of evaluate run in ``tmp_path`` on relative paths, so the
    report's input paths do not depend on where the test runs."""
    monkeypatch.chdir(tmp_path)
    write_lines(tmp_path / "rows.jsonl", rows)
    write_lines(tmp_path / "preds.jsonl", preds)
    code = main(["evaluate", "--dataset", "rows.jsonl", "--predictions", "preds.jsonl", "--report", "report.json"])
    report = tmp_path / "report.json"
    return code, report.read_bytes() if report.exists() else b""


# The sha256 of each report as the per-row scoring wrote it, before the block pass.
PINNED = {
    (1, 0.0): "8c80a30b1cb0b1f0f1163e4bbb8ffd64f62165a436efc389b038b243f624113b",
    (2, 0.0): "c194f0f9321f279a794dd2912c117af799b483c3986f29f934c5dd76107b50c9",
    (3, 0.0): "74239d0678927f5d88ad7d9ddc1cf0783d675af3658e520b34c2836b9b5ab602",
    (1, 0.2): "da8cee1593aa919d4373e41111fd0f96564aa65abb7bbaa16eb96d5564c70522",
    (2, 0.2): "8953f6a95bc16a912db45edcc3e4f7c1f75c3494678aaee5843b4e20f2825960",
    (3, 0.2): "d895e77dd2f75834e05701a9dadcc3b21844e9d8794935e76ff5fb13d6b23619",
}


@pytest.mark.parametrize("seed,holes", sorted(PINNED))
def test_report_bytes_are_pinned(tmp_path, monkeypatch, seed, holes):
    rows, preds = eval_lines(seed, 80, holes)
    code, report = evaluate(tmp_path, monkeypatch, rows, preds)
    assert code == 0
    assert hashlib.sha256(report).hexdigest() == PINNED[seed, holes]


def truncated(line: str) -> str:
    """The dataset row with its GT future one step shorter than its prediction."""
    obj = json.loads(line)
    obj["gt_future_xy"], obj["gt_future_valid"] = obj["gt_future_xy"][:-1], obj["gt_future_valid"][:-1]
    return json.dumps(obj)


@pytest.mark.parametrize(
    "mismatch,broken",
    [
        (2, 3),
        (3, 2),
        (BLOCK_ROWS + 3, BLOCK_ROWS + 5),
        (BLOCK_ROWS + 5, BLOCK_ROWS + 3),
        (BLOCK_ROWS - 1, BLOCK_ROWS + 2),
        (BLOCK_ROWS + 2, 4),
    ],
)
def test_the_lowest_bad_line_is_reported(tmp_path, monkeypatch, capsys, mismatch, broken):
    """A scoring error (a t_pred mismatch) and a decode error: the lower line wins, within a
    block or across blocks."""
    rows, preds = map(list, eval_lines(1, 80))
    rows[mismatch - 1] = truncated(rows[mismatch - 1])
    rows[broken - 1] = "{broken"
    assert evaluate(tmp_path, monkeypatch, rows, preds)[0] == 1
    err = capsys.readouterr().err
    if mismatch < broken:
        message = "ground truth gt_future_xy and prediction trajectories must share t_pred"
        assert err == f"error: dataset line {mismatch}: {message}\n"
    else:
        assert err.startswith(f"error: dataset line {broken}: Expecting property name enclosed in double quotes")


@st.composite
def datasets(draw):
    """Rows with and without a prediction, a direction or a GT trajectory, over predictions of
    mixed (M, T), with holed masks, one-step modes and rows whose modes miss every GT step.
    Most rows share one shape, so that shape's rows run past a block's end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 20))
    shapes = [(3, 12)] * 8 + [(2, 5), (1, 1), (4, 2), (2, 12)]
    rows, preds = [], []
    for k in range(n_rows):
        m, t = shapes[rng.integers(len(shapes))]
        step = rng.choice([0.002, 0.03, 0.12, 1.5])
        heading = np.cumsum(rng.normal(scale=0.4, size=(m + 1, t)), axis=1)
        moves = step * rng.random((m + 1, t, 1)) * np.stack([np.cos(heading), np.sin(heading)], axis=2)
        walk = np.cumsum(moves, axis=1)
        valid = None if rng.random() < 0.4 else rng.random((m, t)) < rng.uniform(0.2, 1.0)
        pred = PredictionSet(
            scenario_id=f"s{k}",
            trajectories=walk[:m],
            valid=valid,
            decision=rng.choice([None, Decision.ACCEPT, Decision.REJECT]),
            with_context=rng.choice([None, True, False]),
        )
        has_gt = bool(rng.random() < 0.7)
        gt_xy = gt_valid = None
        if has_gt or rng.random() < 0.5:
            gt_t = t if has_gt else int(rng.choice([t, t + 3]))
            gt_xy = np.resize(walk[m] + rng.normal(scale=step, size=(t, 2)), (gt_t, 2))
            # a share below 0 leaves no valid GT step, so no mode overlaps the GT
            gt_valid = None if rng.random() < 0.4 else rng.random(gt_t) < rng.uniform(-0.3, 1.0)
        tag = rng.choice(list(FeasTag) + [None])
        safety = None if tag is not None else rng.choice(list(Safety))
        accept = tag in (FeasTag.GT, FeasTag.F) if tag is not None else safety is Safety.SAFE
        rows.append(
            InstructionRecord(
                scenario_id=f"s{k}",
                focal_agent_id="ego",
                instruction_text="",
                caption_text="",
                decision=Decision.ACCEPT if accept else Decision.REJECT,
                feas_tag=tag,
                safety_tag=safety,
                direction=None if rng.random() < 0.3 else rng.choice(list(DirectionLabel)),
                has_gt_trajectory=has_gt,
                gt_future_xy=gt_xy,
                gt_future_valid=gt_valid,
                with_context=rng.choice([None, True, False]),
            )
        )
        preds.append(None if rng.random() < 0.15 else pred)
    return rows, preds


@settings(max_examples=40, deadline=None)
@given(datasets())
def test_block_pass_equals_the_per_row_oracle(dataset):
    rows, preds = dataset
    scores = score_blocks(rows, preds, H.dt, RULES)
    block = [score_row(row, p, s) for row, p, s in zip(rows, preds, scores)]
    oracle = [eval_oracle.score_row(row, p, H.dt, RULES) for row, p in zip(rows, preds)]
    assert block == oracle
    assert aggregate(block).to_obj() == aggregate(oracle).to_obj()
