"""Test oracle: evaluate's scoring walked one dataset row at a time.

This is the per-row path that ``metrics.score_blocks`` replaced: one
``classify_prediction`` call per row, and minADE and minFDE each built from
the row's own (M, T, 2) offsets. It is kept here only as the reference the
block pass is compared against; results must be ``==``, which holds only when
every float on the way is bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from motionkit.attributes import LabelRules
from motionkit.errors import NoValidOverlap, SchemaError
from motionkit.instructions import InstructionRecord
from motionkit.metrics import PredictionSet, classify_prediction


def _joint_offsets(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet) -> tuple[np.ndarray, np.ndarray]:
    gt_xy = np.asarray(gt_xy, dtype=float)
    gt_valid = np.asarray(gt_valid, dtype=bool)
    if gt_xy.shape != preds.trajectories.shape[1:] or gt_valid.shape != preds.valid.shape[1:]:
        raise SchemaError("ground truth gt_future_xy and prediction trajectories must share t_pred")
    mask = preds.valid & gt_valid
    if not mask.any():
        raise NoValidOverlap("no mode shares a valid step with the ground truth")
    return mask, preds.trajectories - gt_xy


def min_ade(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet) -> float:
    mask, offsets = _joint_offsets(gt_xy, gt_valid, preds)
    dist = np.linalg.norm(offsets, axis=2)
    ade = dist.mean(axis=1)
    for j in np.flatnonzero(~mask.all(axis=1)):
        ade[j] = np.mean(dist[j][mask[j]]) if mask[j].any() else np.inf
    return float(ade.min())


def min_fde(gt_xy: np.ndarray, gt_valid: np.ndarray, preds: PredictionSet) -> float:
    mask, offsets = _joint_offsets(gt_xy, gt_valid, preds)
    has = mask.any(axis=1)
    last = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    o = offsets[np.arange(len(last)), last]
    return float(np.sqrt(np.vecdot(o, o))[has].min())


def score_row(row: InstructionRecord, preds: Optional[PredictionSet], dt: float, rules: LabelRules) -> dict:
    """The row's part of the report, as ``metrics.score_row`` assembles it from the block pass."""
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
        labels = classify_prediction(preds.trajectories, preds.valid, dt, rules)
        result["direction"] = instructed
        result["ifr"], result["unclassifiable"] = labels.count(instructed) / preds.n_modes, labels.count(None)
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
