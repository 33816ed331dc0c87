"""Evaluation metrics: instruction-following recall, displacement errors,
detection accuracies, and the Gaussian-mixture loss arithmetic.

Instruction-following recall (IFR) of one scenario is the fraction of its M
generated trajectories whose extracted direction matches the instructed one;
the micro corpus value averages per-scenario fractions, the macro variant
averages per-direction means first. Directions are extracted from predictions
with the same classifier used for ground truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .attributes import DirectionLabel, LabelRules, chords, classify_direction_arrays
from .behavior import Safety
from .core import _check_fields, _equal_by_value, _json_array, _json_mask, _record_from_obj
from .errors import NoValidOverlap, NonPositiveSigma, SchemaError
from .feasibility import FeasTag
from .instructions import Decision, InstructionRecord, decision_for


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """M candidate future trajectories for one scenario plus mode scores. The arrays are
    read-only copies; trajectories and scores hold finite numbers at most ``core.MAX_ABS`` in
    magnitude, the mask booleans."""

    scenario_id: str
    trajectories: np.ndarray  # (M, T, 2)
    scores: Optional[np.ndarray] = None  # (M,); default uniform
    valid: Optional[np.ndarray] = None  # (M, T) bool; default all valid
    direction: Optional[DirectionLabel] = None  # disambiguates multi-row scenarios
    decision: Optional[Decision] = None
    with_context: Optional[bool] = None

    __eq__ = _equal_by_value

    def __post_init__(self) -> None:
        _check_fields(self)
        traj = _json_array(self.trajectories, "trajectories")
        if traj.ndim != 3 or traj.shape[0] < 1 or traj.shape[2] != 2:
            raise SchemaError(f"trajectories must be (M, T, 2) with M >= 1, got {traj.shape}")
        m = traj.shape[0]
        scores = _json_array(np.full(m, 1.0 / m) if self.scores is None else self.scores, "scores")
        if scores.shape != (m,):
            raise SchemaError("scores must have one entry per mode")
        valid = _json_mask(np.ones(traj.shape[:2], dtype=bool) if self.valid is None else self.valid, "valid mask")
        if valid.shape != traj.shape[:2]:
            raise SchemaError("valid mask must be (M, T)")
        for name, value in (("trajectories", traj), ("scores", scores), ("valid", valid)):
            object.__setattr__(self, name, value)

    @property
    def n_modes(self) -> int:
        return int(self.trajectories.shape[0])

    from_obj = classmethod(_record_from_obj)  # one decoded prediction line


def classify_prediction(
    xy: np.ndarray, valid: Optional[np.ndarray], dt: float, rules: LabelRules = LabelRules()
) -> list[Optional[DirectionLabel]]:
    """Direction buckets of M generated trajectories, (M, T, 2) positions with an
    (M, T) validity mask (None: all valid); one label per mode, None when the mode
    has fewer than two valid samples.

    Predictions are bare positions: per-sample speed is derived from the
    displacement to the next valid sample over the elapsed time (the last
    sample repeats the previous speed), matching the ground-truth extractor's
    view of the motion. The rules read only a mode's max speed, which is its
    fastest chord between consecutive valid samples.
    """
    xy = np.asarray(xy, dtype=float)
    m, t = xy.shape[:2]
    valid = np.ones((m, t), dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    seg, ok, start = chords(xy, valid)
    pair = np.hypot(seg[..., 0], seg[..., 1])
    if ok is None:
        pair /= dt
    else:
        pair = np.where(ok, pair / (dt * (np.arange(1, t) - start)), -np.inf)
    # -inf is the max of a mode with no chord, which the rules label None.
    fine = classify_direction_arrays(xy, pair.max(axis=1, initial=-np.inf), valid, [0.0] * m, rules.direction)
    return [None if f is None else rules.collapse[f] for f in fine]


def _ifr(instructed: DirectionLabel, labels: list[Optional[DirectionLabel]]) -> tuple[float, int]:
    """The share of ``labels`` equal to ``instructed``, and the count of None labels."""
    return labels.count(instructed) / len(labels), labels.count(None)


def ifr_scenario(
    instructed: DirectionLabel,
    preds: PredictionSet,
    dt: float,
    rules: LabelRules = LabelRules(),
) -> tuple[float, int]:
    """Per-scenario IFR plus the count of unclassifiable trajectories.

    Unclassifiable trajectories (fewer than two valid steps) count as
    non-matches in the denominator and are reported separately.
    """
    return _ifr(instructed, classify_prediction(preds.trajectories, preds.valid, dt, rules))


def _grouped(pairs: Iterable[tuple]) -> dict[object, list]:
    """The values of ``(key, value)`` pairs listed by key, keys and values in the order they come."""
    groups: dict[object, list] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def _mean(values: Sequence[float]) -> float:
    """The mean of ``values`` (0.0 for none) by numpy's pairwise sum, as every corpus mean is taken."""
    return float(np.sum(np.asarray(values, dtype=float)) / len(values)) if values else 0.0


def ifr_micro(per_scenario: Sequence[float]) -> float:
    """Corpus IFR: plain mean of per-scenario fractions."""
    return _mean(per_scenario)


def ifr_macro(
    rows: Sequence[tuple[DirectionLabel, float]]
) -> tuple[float, dict[DirectionLabel, float]]:
    """Macro IFR: average per-direction means over the directions present."""
    per_class = {label: ifr_micro(values) for label, values in _grouped(rows).items()}
    return ifr_micro(list(per_class.values())), per_class


class ModeStack(NamedTuple):
    """The modes of R prediction sets that share (M, T), stacked row by row: what
    :func:`min_ade` and :func:`min_fde` read of R rows at once."""

    trajectories: np.ndarray  # (R, M, T, 2)
    valid: np.ndarray  # (R, M, T) bool


def _require_t_pred(gt_xy: np.ndarray, gt_valid: Optional[np.ndarray], preds: PredictionSet | ModeStack) -> None:
    """Raise :class:`SchemaError` unless the ground truth has the prediction's T steps: points
    (T, 2) and a mask (T,) or None for one row, (R, T, 2) and (R, T) for a stack of R rows."""
    rows = preds.valid.shape[:-2]  # () for one row, (R,) for a stack
    if gt_xy.shape != (*rows, *preds.trajectories.shape[-2:]) or (
        gt_valid is not None and gt_valid.shape != gt_xy.shape[:-1]
    ):
        raise SchemaError("ground truth gt_future_xy and prediction trajectories must share t_pred")


def _joint_mask(
    gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet | ModeStack
) -> tuple[np.ndarray, np.ndarray]:
    """The GT points as floats and the (..., M, T) steps valid in both a mode and its GT; one
    row without any such step raises :class:`NoValidOverlap`."""
    gt_xy = np.asarray(gt_xy, dtype=float)
    gt_valid = np.asarray(gt_valid, dtype=bool)
    _require_t_pred(gt_xy, gt_valid, preds)
    mask = preds.valid & gt_valid[..., None, :]
    if mask.ndim == 2 and not mask.any():
        raise NoValidOverlap("no mode shares a valid step with the ground truth")
    return gt_xy, mask


def min_ade(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet | ModeStack) -> float | np.ndarray:
    """Minimum over modes of the mean displacement over jointly valid steps.

    One row (``gt_xy`` (T, 2), ``gt_valid`` (T,), a :class:`PredictionSet`) gives a float;
    R stacked rows (``gt_xy`` (R, T, 2), ``gt_valid`` (R, T), a :class:`ModeStack`) give an
    (R,) array, inf for a row with no jointly valid step. A fully valid mode takes the axis
    mean; a mode with holes takes the mean of its packed distances, which an axis mean over
    masked zeros would not match in the last bit. Each row's value is the same bits either way.
    """
    gt_xy, mask = _joint_mask(gt_xy, gt_valid, preds)
    if not mask.any():
        return np.full(mask.shape[:-2], np.inf)
    # np.linalg.norm(axis=-1) sums the squares with a reduce over the 2-wide axis, which is
    # slow; adding the two columns gives the same bits.
    sq = np.square(preds.trajectories - gt_xy[..., None, :, :])
    dist = np.sqrt(sq[..., 0] + sq[..., 1])
    ade = dist.mean(axis=-1)
    holed = ~mask.all(axis=-1)
    if holed.any():
        # Each holed mode's packed distances are one contiguous slice of ``packed``, summed
        # and divided by their count as np.mean does it.
        counts = mask[holed].sum(axis=-1).tolist()
        packed = dist[holed][mask[holed]]
        ends = np.cumsum(counts).tolist()
        ade[holed] = [packed[e - c : e].sum() / c if c else np.inf for c, e in zip(counts, ends)]
    return _per_row(ade.min(axis=-1))


def min_fde(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet | ModeStack) -> float | np.ndarray:
    """Minimum over modes of the displacement at the last jointly valid step; one row or R
    stacked rows, as :func:`min_ade` takes them.

    The step's norm is a dot product per mode, which matches a 1-D
    ``np.linalg.norm`` bit for bit; an axis norm (min_ade's sum of squares),
    ``hypot`` and ``x*x + y*y`` can each differ from it in the last bit.
    """
    gt_xy, mask = _joint_mask(gt_xy, gt_valid, preds)
    if not mask.any():
        return np.full(mask.shape[:-2], np.inf)
    last = mask.shape[-1] - 1 - mask[..., ::-1].argmax(axis=-1)  # (..., M)
    end = np.take_along_axis(preds.trajectories, last[..., None, None], axis=-2)[..., 0, :]
    o = end - np.take_along_axis(gt_xy, last[..., None], axis=-2)
    fde = np.where(mask.any(axis=-1), np.sqrt(np.vecdot(o, o)), np.inf)
    return _per_row(fde.min(axis=-1))


def _per_row(best: np.ndarray):
    """A float for one row, the (R,) array for R stacked rows."""
    return float(best) if best.ndim == 0 else best


def detection_accuracy(decisions: Sequence[tuple[Decision, FeasTag]]) -> dict[FeasTag, float]:
    """Per-tag accuracy: a decision is correct when it is :func:`decision_for` its tag."""
    hits = _grouped((tag, decision == decision_for(tag)) for decision, tag in decisions)
    return {tag: _mean(h) for tag, h in hits.items()}


def safety_accuracy(
    decisions: Sequence[tuple[Decision, Safety, bool]]
) -> dict[tuple[Safety, bool], float]:
    """Accuracy split four ways by (safety tag, with/without context)."""
    hits = _grouped(((safety, bool(ctx)), decision == decision_for(safety)) for decision, safety, ctx in decisions)
    return {key: _mean(h) for key, h in hits.items()}


def best_mode(mode_xy: np.ndarray, gt_xy: np.ndarray, t_select: Sequence[int]) -> int:
    """Mode index minimizing the mean displacement at the selected steps; ties
    resolve to the lowest index."""
    mode_xy = np.asarray(mode_xy, dtype=float)
    gt_xy = np.asarray(gt_xy, dtype=float)
    steps = list(t_select)
    d = np.linalg.norm(mode_xy[:, steps, :] - gt_xy[None, steps, :], axis=2)
    return int(np.argmin(d.mean(axis=1)))


def gmm_nll(
    mu: np.ndarray,
    sigma: np.ndarray,
    gt_xy: np.ndarray,
    gt_valid: np.ndarray,
    best: int,
    t_select: Sequence[int],
) -> float:
    """Diagonal-Gaussian NLL of the best mode summed over the selected steps.

    Per step: log(sx) + log(sy) + ((dx/sx)^2 + (dy/sy)^2) / 2, additive
    constants omitted (they cancel in comparisons).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    gt_xy = np.asarray(gt_xy, dtype=float)
    gt_valid = np.asarray(gt_valid, dtype=bool)
    steps = list(t_select)
    if np.any(sigma[best, steps, :] <= 0):
        raise NonPositiveSigma("sigma values must be strictly positive")
    if not np.all(gt_valid[steps]):
        raise NoValidOverlap("a selected step is invalid in the ground truth")
    delta = gt_xy[steps] - mu[best, steps, :]
    s = sigma[best, steps, :]
    per_step = np.log(s[:, 0]) + np.log(s[:, 1]) + 0.5 * ((delta[:, 0] / s[:, 0]) ** 2 + (delta[:, 1] / s[:, 1]) ** 2)
    return float(np.sum(per_step))


def score_loss(scores: np.ndarray, best: int) -> float:
    """Cross-entropy of sum-normalized mode scores against the best-mode one-hot.

    Scores are treated as nonnegative unnormalized probabilities; apply a
    softmax upstream when working with logits.
    """
    scores = np.asarray(scores, dtype=float)
    if np.any(scores < 0):
        raise SchemaError("scores must be nonnegative probabilities (softmax logits upstream)")
    total = float(scores.sum())
    if total <= 0:
        raise SchemaError("scores must not all be zero")
    p = scores[best] / total
    if p <= 0:
        return float("inf")
    return float(-np.log(p))


@dataclass
class EvalReport:
    """Corpus-level evaluation summary; rates are in [0, 1]."""

    ifr_micro: Optional[float] = None
    ifr_macro: Optional[float] = None
    per_class_ifr: dict[str, float] = field(default_factory=dict)
    ifr_by_tag: dict[str, float] = field(default_factory=dict)
    classes_absent: list[str] = field(default_factory=list)
    min_ade: Optional[float] = None
    min_fde: Optional[float] = None
    feas_accuracy: dict[str, float] = field(default_factory=dict)
    safety_accuracy: dict[str, float] = field(default_factory=dict)
    n_rows: int = 0
    n_scored: int = 0
    n_missing_predictions: int = 0
    n_unclassifiable: int = 0

    def to_obj(self) -> dict:
        return asdict(self)


#: Dataset rows scored together. A block stacks its rows' predictions into one (R, M, T, 2)
#: array, so this bounds the block pass's temporaries: 64 rows of 6 modes and 80 steps are
#: 0.5 MB each.
BLOCK_ROWS = 64


class RowScores(NamedTuple):
    """What the block pass computed for one row with a prediction."""

    labels: list[Optional[DirectionLabel]]  # one per mode
    gt_label: Optional[DirectionLabel]  # the GT future's label, for a row without a direction
    ade: Optional[float]  # None without a GT trajectory or a jointly valid step
    fde: Optional[float]


def _blocks(keys: Sequence) -> Iterator[list[int]]:
    """The indices of ``keys`` grouped by equal key (None keys left out), at most BLOCK_ROWS a block."""
    for members in _grouped((key, i) for i, key in enumerate(keys) if key is not None).values():
        for start in range(0, len(members), BLOCK_ROWS):
            yield members[start : start + BLOCK_ROWS]


def _gt_valid(row: InstructionRecord) -> np.ndarray:
    """A row's GT validity mask; all valid when the row gives none."""
    return np.ones(len(row.gt_future_xy), dtype=bool) if row.gt_future_valid is None else row.gt_future_valid


def check_t_pred(row: InstructionRecord, preds: PredictionSet) -> bool:
    """Whether minADE/minFDE score ``row`` against its prediction: whether the row carries a GT
    trajectory, which must then share t_pred with ``preds`` (:class:`SchemaError` otherwise)."""
    if row.has_gt_trajectory:
        _require_t_pred(row.gt_future_xy, row.gt_future_valid, preds)
    return row.has_gt_trajectory


def score_blocks(
    rows: Sequence[InstructionRecord], preds: Sequence[Optional[PredictionSet]], dt: float, rules: LabelRules
) -> list[Optional[RowScores]]:
    """The :class:`RowScores` of each row with a prediction, ``preds[k]`` being row ``k``'s
    (None for a row without one, which gets None).

    Rows are taken in blocks of at most BLOCK_ROWS that share their prediction's (M, T).
    One :func:`classify_prediction` call labels a block's R·M modes, and one :func:`min_ade`
    and one :func:`min_fde` call over (R, M, T) give the minADE and minFDE of its rows that
    carry a GT trajectory, which :func:`check_t_pred` checks. The GT futures of rows without a
    direction are labelled in blocks of equal length the same way. Every value has the bits
    the row would get alone.
    """
    out: list[Optional[RowScores]] = [None] * len(rows)
    gt_labels: dict[int, Optional[DirectionLabel]] = {}
    unlabelled = [
        len(row.gt_future_xy) if p is not None and row.direction is None and row.gt_future_xy is not None else None
        for row, p in zip(rows, preds)
    ]
    for block in _blocks(unlabelled):
        xy = np.stack([rows[k].gt_future_xy for k in block])
        valid = np.stack([_gt_valid(rows[k]) for k in block])
        gt_labels.update(zip(block, classify_prediction(xy, valid, dt, rules)))

    for block in _blocks([None if p is None else p.trajectories.shape[:2] for p in preds]):
        traj = np.stack([preds[k].trajectories for k in block])
        valid = np.stack([preds[k].valid for k in block])
        r, m, t = valid.shape
        labels = classify_prediction(traj.reshape(r * m, t, 2), valid.reshape(r * m, t), dt, rules)
        errors: list[tuple[Optional[float], Optional[float]]] = [(None, None)] * r
        scored = [i for i, k in enumerate(block) if check_t_pred(rows[k], preds[k])]
        if scored:
            gt_xy = np.stack([rows[block[i]].gt_future_xy for i in scored])
            gt_valid = np.stack([_gt_valid(rows[block[i]]) for i in scored])
            modes = ModeStack(traj[scored], valid[scored])
            pairs = zip(min_ade(gt_xy, gt_valid, modes).tolist(), min_fde(gt_xy, gt_valid, modes).tolist())
            for i, (ade, fde) in zip(scored, pairs):
                if ade != np.inf:  # inf: no jointly valid step, for minFDE as well
                    errors[i] = (ade, fde)
        for i, k in enumerate(block):
            out[k] = RowScores(labels[i * m : (i + 1) * m], gt_labels.get(k), *errors[i])
    return out


def score_row(row: InstructionRecord, preds: Optional[PredictionSet], scores: Optional[RowScores]) -> dict:
    """One dataset row's part of the report, from its :func:`score_blocks` entry: its
    instructed direction and tags, IFR and unclassifiable-mode count, minADE/minFDE, and the
    prediction's decision and context.

    A row without a direction is instructed with the direction of its GT future. A
    prediction's ``with_context`` overrides the row's.
    """
    result = {
        "direction": row.direction,
        "feas_tag": row.feas_tag,
        "safety_tag": row.safety_tag,
        "with_context": bool(row.with_context),
        "has_pred": preds is not None,
        "ifr": None,
        "unclassifiable": 0,
        "ade": None,
        "fde": None,
        "decision": None,
    }
    if preds is None:
        return result
    instructed = row.direction if row.direction is not None else scores.gt_label
    if instructed is not None:
        result["direction"] = instructed
        result["ifr"], result["unclassifiable"] = _ifr(instructed, scores.labels)
    result["ade"], result["fde"] = scores.ade, scores.fde
    result["decision"] = preds.decision
    if preds.with_context is not None:
        result["with_context"] = bool(preds.with_context)
    return result


def aggregate(results: Sequence[dict]) -> EvalReport:
    """The corpus report from the :func:`score_row` results, in dataset order."""
    report = EvalReport(n_rows=len(results))
    ifr_results = [r for r in results if r["ifr"] is not None]
    ifr_rows = [(r["direction"], r["ifr"]) for r in ifr_results]
    report.n_scored = len(ifr_rows)
    report.n_missing_predictions = sum(1 for r in results if not r["has_pred"])
    report.n_unclassifiable = sum(r["unclassifiable"] for r in results)
    if ifr_rows:
        report.ifr_micro = ifr_micro([v for _, v in ifr_rows])
        report.ifr_macro, per_class = ifr_macro(ifr_rows)
        report.per_class_ifr = {label.value: value for label, value in per_class.items()}
        report.classes_absent = sorted(d.value for d in DirectionLabel if d not in per_class)
    by_tag = _grouped((r["feas_tag"], r["ifr"]) for r in ifr_results if r["feas_tag"] is not None)
    report.ifr_by_tag = {tag.value: ifr_micro(values) for tag, values in by_tag.items()}

    ades = [r["ade"] for r in results if r["ade"] is not None]
    fdes = [r["fde"] for r in results if r["fde"] is not None]
    if ades:
        report.min_ade, report.min_fde = _mean(ades), _mean(fdes)

    decided = [r for r in results if r["decision"] is not None]
    feas_pairs = [(r["decision"], r["feas_tag"]) for r in decided if r["feas_tag"] is not None]
    report.feas_accuracy = {tag.value: acc for tag, acc in detection_accuracy(feas_pairs).items()}
    safety_triples = [
        (r["decision"], r["safety_tag"], r["with_context"]) for r in decided if r["safety_tag"] is not None
    ]
    report.safety_accuracy = {
        f"{safety.value.lower()}_{'with' if ctx else 'without'}_context": acc
        for (safety, ctx), acc in safety_accuracy(safety_triples).items()
    }
    return report
