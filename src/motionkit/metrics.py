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
from typing import Optional, Sequence

import numpy as np

from .attributes import DirectionLabel, LabelRules, chords, classify_direction_arrays
from .behavior import Safety
from .core import _equal_by_value, _freeze, _json_array
from .errors import NoValidOverlap, NonPositiveSigma, SchemaError
from .feasibility import FeasTag
from .instructions import Decision, InstructionRecord

_PREDICTION_FIELDS = frozenset(
    {"scenario_id", "trajectories", "scores", "valid", "direction", "decision", "with_context"}
)


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """M candidate future trajectories for one scenario plus mode scores. The arrays are
    read-only copies; trajectories and scores hold finite numbers, the mask booleans."""

    scenario_id: str
    trajectories: np.ndarray  # (M, T, 2)
    scores: Optional[np.ndarray] = None  # (M,); default uniform
    valid: Optional[np.ndarray] = None  # (M, T) bool; default all valid
    direction: Optional[DirectionLabel] = None  # disambiguates multi-row scenarios
    decision: Optional[Decision] = None
    with_context: Optional[bool] = None

    __eq__ = _equal_by_value

    def __post_init__(self) -> None:
        _freeze(self, trajectories=float)
        traj = self.trajectories
        if traj.ndim != 3 or traj.shape[0] < 1 or traj.shape[2] != 2:
            raise SchemaError(f"trajectories must be (M, T, 2) with M >= 1, got {traj.shape}")
        if self.scores is None:
            object.__setattr__(self, "scores", np.full(traj.shape[0], 1.0 / traj.shape[0]))
        _freeze(self, scores=float)
        if self.scores.shape != (traj.shape[0],):
            raise SchemaError("scores must have one entry per mode")
        for name in ("trajectories", "scores"):
            if not np.isfinite(getattr(self, name)).all():
                raise SchemaError(f"{name} must hold finite numbers")
        if self.valid is None:
            object.__setattr__(self, "valid", np.ones(traj.shape[:2], dtype=bool))
        _freeze(self, valid=None)  # no cast: "no" or 0 must not pass as a flag
        if self.valid.dtype != bool:
            raise SchemaError("valid mask must hold booleans")
        if self.valid.shape != traj.shape[:2]:
            raise SchemaError("valid mask must be (M, T)")
        if self.with_context is not None and not isinstance(self.with_context, bool):
            raise SchemaError("with_context must be true, false or null")

    @property
    def n_modes(self) -> int:
        return int(self.trajectories.shape[0])

    @classmethod
    def from_obj(cls, obj: dict) -> "PredictionSet":
        """One decoded prediction line; every number in it must be a JSON int or float."""
        if not isinstance(obj, dict):
            raise SchemaError("prediction line must be an object")
        unknown = obj.keys() - _PREDICTION_FIELDS
        if unknown:
            raise SchemaError(f"unexpected field(s) {sorted(unknown)}")
        try:
            if not isinstance(obj["scenario_id"], str):
                raise TypeError("scenario_id must be a string")
            return cls(
                scenario_id=obj["scenario_id"],
                trajectories=_json_array(obj["trajectories"], 3, "trajectories"),
                scores=_json_array(obj.get("scores"), 1, "scores"),
                valid=obj.get("valid"),
                direction=DirectionLabel(obj["direction"]) if "direction" in obj else None,
                decision=Decision(obj["decision"]) if "decision" in obj else None,
                with_context=obj.get("with_context"),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise SchemaError(str(exc)) from exc


def classify_prediction(
    xy: np.ndarray, valid: Optional[np.ndarray], dt: float, rules: LabelRules = LabelRules()
) -> list[Optional[DirectionLabel]]:
    """Direction buckets of M generated trajectories, (M, T, 2) positions with an
    (M, T) validity mask (None: all valid); one label per mode, None when the mode
    has fewer than two valid samples.

    Predictions are bare positions: per-sample speed is derived from the
    displacement to the next valid sample over the elapsed time (the last
    sample repeats the previous speed), matching the ground-truth extractor's
    view of the motion.
    """
    xy = np.asarray(xy, dtype=float)
    m, t = xy.shape[:2]
    valid = np.ones((m, t), dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    seg, ok, start = chords(xy, valid)
    pair = np.hypot(seg[..., 0], seg[..., 1])
    if ok is None:
        pair /= dt
        speeds = np.concatenate([pair, pair[:, -1:]], axis=1)
    else:
        pair /= dt * (np.arange(1, t) - start)
        # Each chord's speed belongs to its start sample; a mode's last valid
        # sample (the end of its last chord) repeats that chord's speed.
        speeds = np.zeros((m, t))
        r, j = np.nonzero(ok)
        speeds[r, start[r, j]] = pair[r, j]
        last = np.flatnonzero(np.diff(r, append=m))
        speeds[r[last], j[last] + 1] = pair[r[last], j[last]]
    fine = classify_direction_arrays(xy, speeds, valid, [0.0] * m, rules.direction)
    return [None if f is None else rules.collapse[f] for f in fine]


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
    labels = classify_prediction(preds.trajectories, preds.valid, dt, rules)
    return labels.count(instructed) / preds.n_modes, labels.count(None)


def ifr_micro(per_scenario: Sequence[float]) -> float:
    """Corpus IFR: plain mean of per-scenario fractions."""
    if not per_scenario:
        return 0.0
    return float(np.sum(np.asarray(per_scenario, dtype=float)) / len(per_scenario))


def ifr_macro(
    rows: Sequence[tuple[DirectionLabel, float]]
) -> tuple[float, dict[DirectionLabel, float]]:
    """Macro IFR: average per-direction means over the directions present."""
    buckets: dict[DirectionLabel, list[float]] = {}
    for label, value in rows:
        buckets.setdefault(label, []).append(value)
    per_class = {
        label: float(np.sum(np.asarray(vals)) / len(vals)) for label, vals in buckets.items()
    }
    if not per_class:
        return 0.0, {}
    macro = float(np.sum(np.asarray(list(per_class.values()))) / len(per_class))
    return macro, per_class


def _joint_offsets(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet) -> tuple[np.ndarray, np.ndarray]:
    """The (M, T) jointly valid steps and the (M, T, 2) prediction-minus-GT offsets."""
    gt_xy = np.asarray(gt_xy, dtype=float)
    gt_valid = np.asarray(gt_valid, dtype=bool)
    if gt_xy.shape != preds.trajectories.shape[1:] or gt_valid.shape != preds.valid.shape[1:]:
        raise SchemaError("ground truth and prediction must share t_pred")
    mask = preds.valid & gt_valid
    if not mask.any():
        raise NoValidOverlap("no mode shares a valid step with the ground truth")
    return mask, preds.trajectories - gt_xy


def min_ade(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet) -> float:
    """Minimum over modes of the mean displacement over jointly valid steps.

    A fully valid mode takes the axis mean; a mode with holes takes the mean of
    its packed distances, which an axis mean over masked zeros would not match
    in the last bit.
    """
    mask, offsets = _joint_offsets(gt_xy, gt_valid, preds)
    dist = np.linalg.norm(offsets, axis=2)
    ade = dist.mean(axis=1)
    for j in np.flatnonzero(~mask.all(axis=1)):
        ade[j] = np.mean(dist[j][mask[j]]) if mask[j].any() else np.inf
    return float(ade.min())


def min_fde(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet) -> float:
    """Minimum over modes of the displacement at the last jointly valid step.

    The step's norm is a dot product per mode, which matches a 1-D
    ``np.linalg.norm`` bit for bit; min_ade's (M, T) axis norm, ``hypot`` and
    ``x*x + y*y`` can each differ from it in the last bit.
    """
    mask, offsets = _joint_offsets(gt_xy, gt_valid, preds)
    has = mask.any(axis=1)
    last = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    o = offsets[np.arange(len(last)), last]
    return float(np.sqrt(np.vecdot(o, o))[has].min())


def detection_accuracy(decisions: Sequence[tuple[Decision, FeasTag]]) -> dict[FeasTag, float]:
    """Per-tag accuracy: GT/F rows are correct when accepted, IF when rejected."""
    totals: dict[FeasTag, int] = {}
    correct: dict[FeasTag, int] = {}
    for decision, tag in decisions:
        totals[tag] = totals.get(tag, 0) + 1
        expected = Decision.ACCEPT if tag in (FeasTag.GT, FeasTag.F) else Decision.REJECT
        if decision == expected:
            correct[tag] = correct.get(tag, 0) + 1
    return {tag: correct.get(tag, 0) / total for tag, total in totals.items()}


def safety_accuracy(
    decisions: Sequence[tuple[Decision, Safety, bool]]
) -> dict[tuple[Safety, bool], float]:
    """Accuracy split four ways by (safety tag, with/without context)."""
    totals: dict[tuple[Safety, bool], int] = {}
    correct: dict[tuple[Safety, bool], int] = {}
    for decision, safety, with_context in decisions:
        key = (safety, bool(with_context))
        totals[key] = totals.get(key, 0) + 1
        expected = Decision.ACCEPT if safety is Safety.SAFE else Decision.REJECT
        if decision == expected:
            correct[key] = correct.get(key, 0) + 1
    return {key: correct.get(key, 0) / total for key, total in totals.items()}


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


def score_row(row: InstructionRecord, preds: Optional[PredictionSet], dt: float, rules: LabelRules) -> dict:
    """One dataset row's part of the report: its instructed direction and tags, IFR and
    unclassifiable-mode count, minADE/minFDE, and the prediction's decision and context.

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
    gt_xy, gt_valid = row.gt_future_xy, row.gt_future_valid
    if gt_xy is not None and gt_valid is None:
        gt_valid = np.ones(len(gt_xy), dtype=bool)
    instructed = row.direction
    if instructed is None and gt_xy is not None:
        (instructed,) = classify_prediction(gt_xy[None], gt_valid[None], dt, rules)
    if instructed is not None:
        result["direction"] = instructed
        result["ifr"], result["unclassifiable"] = ifr_scenario(instructed, preds, dt, rules)
    if row.has_gt_trajectory:
        try:
            result["ade"] = min_ade(gt_xy, gt_valid, preds)
            result["fde"] = min_fde(gt_xy, gt_valid, preds)
        except NoValidOverlap:
            pass
    result["decision"] = preds.decision
    if preds.with_context is not None:
        result["with_context"] = bool(preds.with_context)
    return result


def aggregate(results: Sequence[dict]) -> EvalReport:
    """The corpus report from the :func:`score_row` results, in dataset order."""
    report = EvalReport(n_rows=len(results))
    ifr_rows = [(r["direction"], r["ifr"]) for r in results if r["ifr"] is not None]
    report.n_scored = len(ifr_rows)
    report.n_missing_predictions = sum(1 for r in results if not r["has_pred"])
    report.n_unclassifiable = sum(r["unclassifiable"] for r in results)
    if ifr_rows:
        report.ifr_micro = ifr_micro([v for _, v in ifr_rows])
        report.ifr_macro, per_class = ifr_macro(ifr_rows)
        report.per_class_ifr = {label.value: value for label, value in per_class.items()}
        report.classes_absent = sorted(d.value for d in DirectionLabel if d not in per_class)
    by_tag: dict[FeasTag, list[float]] = {}
    for r in results:
        if r["ifr"] is not None and r["feas_tag"] is not None:
            by_tag.setdefault(r["feas_tag"], []).append(r["ifr"])
    report.ifr_by_tag = {tag.value: ifr_micro(vals) for tag, vals in by_tag.items()}

    ades = [r["ade"] for r in results if r["ade"] is not None]
    fdes = [r["fde"] for r in results if r["fde"] is not None]
    if ades:
        report.min_ade = float(np.sum(np.asarray(ades)) / len(ades))
        report.min_fde = float(np.sum(np.asarray(fdes)) / len(fdes))

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
