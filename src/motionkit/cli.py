"""Command-line entry point: extract | feasibility | gen-instructions | evaluate | synth | stats.

All commands read/write JSONL (or JSON reports) on paths or stdin/stdout
(``-``). Outputs are byte-identical across runs and across ``--jobs`` settings:
the scenario commands shard work per line and merge it in ascending scenario_id
order; evaluate, stats and synth run in one process.
Exit codes: 0 success, 1 input error, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .attributes import DirectionLabel, LabelRules, extract_motion_attributes
from .behavior import GuidelineBook, Safety, load_default_guidelines, load_guidelines
from .config import Config, load_config
from .core import Scenario, parse_scenario, serialize_scenario
from .errors import (
    ConfigError,
    InsufficientPoints,
    InvalidAnchor,
    MotionKitError,
    NoValidOverlap,
    SchemaError,
)
from .feasibility import FeasTag, feasibility_set
from .instructions import (
    Decision,
    InstructionRecord,
    SamplerConfig,
    build_behavior_row,
    build_direction_rows,
    sample_training_mix,
)
from .metrics import (
    EvalReport,
    PredictionSet,
    classify_prediction,
    ifr_macro,
    ifr_micro,
    ifr_scenario,
    min_ade,
    min_fde,
)
from .synth import build_corpus, expectation_to_obj

_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _sha256(path: str) -> str:
    if path == "-":
        return "stdin"
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _numbered_lines(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of ``path`` with their physical (1-based) line numbers."""
    return [(i, line) for i, line in enumerate(_read_lines(path), start=1) if line.strip()]


# -- the per-line map ------------------------------------------------------------


class _Skip(Exception):
    """A scenario with nothing to label; the message is the reason the skip summary prints."""


def _apply(worker, item: tuple[int, str]):
    """One line's outcome as a value: ``("ok", (key, payload))``, ``("skip", reason)`` or ``("error", exc)``."""
    try:
        return "ok", worker(item)
    except _Skip as exc:
        return "skip", str(exc)
    except InsufficientPoints:
        return "skip", "fewer than 2 valid future points"
    except InvalidAnchor:
        return "skip", "no valid current pose"
    except MotionKitError as exc:
        return "error", type(exc)(f"line {item[0]}: {exc}")


def _map_lines(worker, items: list[tuple[int, str]], jobs: int) -> list:
    """Run ``worker`` on every ``(line number, line)`` item and merge the outcomes.

    Runs in-process at one job and otherwise through ``Pool.map``, with no more
    workers than items; ``worker`` carries its settings (config, rules,
    guideline book) as a ``functools.partial``. Returns the kept payloads in
    key (``scenario_id``) order. The input error with the lowest line number is raised, whatever the
    job count; skips are summarised on stderr, one line per reason.
    """
    call = functools.partial(_apply, worker)
    jobs = min(jobs, len(items))
    if jobs <= 1:
        outcomes = [call(item) for item in items]
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            outcomes = pool.map(call, items, chunksize=max(1, len(items) // (jobs * 8)))
    kept = []
    skips: dict[str, tuple[int, int]] = {}
    for item, (status, value) in zip(items, outcomes):
        if status == "error":
            raise value
        if status == "skip":
            count, first = skips.get(value, (0, item[0]))
            skips[value] = (count + 1, first)
        else:
            kept.append(value)
    for reason, (count, first) in sorted(skips.items()):
        print(f"skipped {count} scenario(s): {reason} (first at line {first})", file=sys.stderr)
    kept.sort(key=lambda kv: kv[0])
    return [payload for _, payload in kept]


def _vehicle_scenario(line: str) -> Scenario:
    scenario = parse_scenario(line)
    if scenario.focal_track.agent_kind != "vehicle":
        raise _Skip("focal agent is not a vehicle")
    return scenario


# -- extract -------------------------------------------------------------------


def _extract_worker(rules: LabelRules, item: tuple[int, str]) -> tuple[str, str]:
    scenario = _vehicle_scenario(item[1])
    attrs = extract_motion_attributes(scenario.focal_track, scenario.horizon, rules)
    obj = {
        "scenario_id": scenario.scenario_id,
        "focal_agent_id": scenario.focal_agent_id,
        "fine_direction": attrs.fine_direction.value,
        "direction": attrs.direction.value,
        "speed": attrs.speed.value,
        "acceleration": attrs.acceleration.value,
        "two_step": [
            {"direction": d.value, "speed": s.value, "acceleration": a.value} for d, s, a in attrs.two_step
        ],
    }
    return scenario.scenario_id, json.dumps(obj, **_JSON_COMPACT)


def cmd_extract(args, cfg: Config) -> int:
    worker = functools.partial(_extract_worker, cfg.rules)
    rows = _map_lines(worker, _numbered_lines(args.input), args.jobs or cfg.jobs)
    _write_text(args.out, "".join(row + "\n" for row in rows))
    return 0


# -- feasibility ---------------------------------------------------------------


def _feasibility_worker(cfg: Config, rules: LabelRules, item: tuple[int, str]) -> tuple[str, str]:
    scenario = _vehicle_scenario(item[1])
    report = feasibility_set(scenario, cfg.feasibility, rules)
    obj = {
        "scenario_id": scenario.scenario_id,
        "focal_agent_id": scenario.focal_agent_id,
        "gt_direction": report.gt_direction.value,
        "feasible": sorted(d.value for d in report.feasible),
        "infeasible": sorted(d.value for d in report.infeasible),
        "candidates_examined": report.candidates_examined,
    }
    return scenario.scenario_id, json.dumps(obj, **_JSON_COMPACT)


def cmd_feasibility(args, cfg: Config) -> int:
    worker = functools.partial(_feasibility_worker, cfg, cfg.rules)
    rows = _map_lines(worker, _numbered_lines(args.input), args.jobs or cfg.jobs)
    _write_text(args.out, "".join(row + "\n" for row in rows))
    return 0


# -- gen-instructions ------------------------------------------------------------


def _gen_worker(
    cfg: Config, rules: LabelRules, book: Optional[GuidelineBook], item: tuple[int, str]
) -> tuple[str, list[InstructionRecord]]:
    """Direction-mode rows, or the behavior-mode row when a guideline book is given."""
    scenario = _vehicle_scenario(item[1])
    if book is None:
        return scenario.scenario_id, build_direction_rows(scenario, cfg.feasibility, rules)
    if scenario.scenario_type is None:
        raise _Skip("no scenario_type")
    return scenario.scenario_id, [build_behavior_row(scenario, book, cfg.behavior)]


def _load_book(cfg: Config, flag_path: Optional[str]) -> GuidelineBook:
    path = flag_path or cfg.guidelines
    if path is None:
        return load_default_guidelines()
    try:
        return load_guidelines(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"cannot read guidelines {path}: {exc}") from exc


def cmd_gen_instructions(args, cfg: Config) -> int:
    if args.mode == "behavior" and args.mix is not None:
        raise ConfigError("--mix applies to direction mode only")
    if args.draws is not None and args.draws < 0:
        raise ConfigError("--draws must be >= 0")
    sampler = None
    if args.mix is not None:
        gt_frac, if_frac = _parse_mix(args.mix)
        try:
            sampler = SamplerConfig(
                gt_fraction=gt_frac,
                if_fraction=if_frac,
                class_balanced=args.balanced if args.balanced is not None else cfg.sampler.class_balanced,
                seed=args.seed if args.seed is not None else cfg.sampler.seed,
            )
        except SchemaError as exc:
            raise ConfigError(f"--mix {args.mix}: {exc}") from exc
    book = _load_book(cfg, args.guidelines) if args.mode == "behavior" else None
    worker = functools.partial(_gen_worker, cfg, cfg.rules, book)
    per_scenario = _map_lines(worker, _numbered_lines(args.input), args.jobs or cfg.jobs)
    rows: list[InstructionRecord] = [row for rs in per_scenario for row in rs]

    if sampler is not None:
        n_draws = args.draws if args.draws is not None else len(per_scenario)
        rows = list(sample_training_mix(rows, sampler, n_draws))

    _write_text(args.out, "".join(json.dumps(r.to_obj(), **_JSON_COMPACT) + "\n" for r in rows))
    return 0


def _parse_mix(text: str) -> tuple[float, float]:
    try:
        gt_s, if_s = text.split(":")
        return float(gt_s), float(if_s)
    except ValueError as exc:
        raise ConfigError(f"--mix must look like 0.7:0.3, got {text!r}") from exc


# -- evaluate --------------------------------------------------------------------


def _parse_prediction(obj: dict, where: str) -> PredictionSet:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: prediction line must be an object")
    unknown = set(obj) - {"scenario_id", "trajectories", "scores", "valid", "direction", "decision", "with_context"}
    if unknown:
        raise SchemaError(f"{where}: unexpected field(s) {sorted(unknown)}")
    try:
        if not isinstance(obj["scenario_id"], str):
            raise TypeError("scenario_id must be a string")
        return PredictionSet(
            scenario_id=obj["scenario_id"],
            trajectories=obj["trajectories"],
            scores=obj.get("scores"),
            valid=obj.get("valid"),
            direction=DirectionLabel(obj["direction"]) if "direction" in obj else None,
            decision=Decision(obj["decision"]) if "decision" in obj else None,
            with_context=obj.get("with_context"),
        )
    except (KeyError, ValueError, TypeError, OverflowError, SchemaError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _evaluate_worker(cfg: Config, rules: LabelRules, row: InstructionRecord, preds: Optional[PredictionSet]) -> dict:
    result = {
        "scenario_id": row.scenario_id,
        "direction": row.direction.value if row.direction else None,
        "feas_tag": row.feas_tag.value if row.feas_tag else None,
        "safety_tag": row.safety_tag.value if row.safety_tag else None,
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
    dt = cfg.horizon.dt
    instructed = row.direction
    if instructed is None and row.gt_future_xy is not None:
        instructed = classify_prediction(row.gt_future_xy, row.gt_future_valid, dt, rules)
    if instructed is not None:
        result["direction"] = instructed.value
        result["ifr"], result["unclassifiable"] = ifr_scenario(instructed, preds, dt, rules)
    if row.has_gt_trajectory:
        gt_xy = row.gt_future_xy
        gt_valid = row.gt_future_valid if row.gt_future_valid is not None else np.ones(len(gt_xy), dtype=bool)
        try:
            result["ade"] = min_ade(gt_xy, gt_valid, preds)
            result["fde"] = min_fde(gt_xy, gt_valid, preds)
        except NoValidOverlap:
            pass
    if preds.decision is not None:
        result["decision"] = preds.decision.value
    if preds.with_context is not None:
        result["with_context"] = bool(preds.with_context)
    return result


def cmd_evaluate(args, cfg: Config) -> int:
    """Score every dataset row in one in-process pass; each line is decoded once."""
    predictions: dict[tuple[str, Optional[str]], PredictionSet] = {}
    for i, line in _numbered_lines(args.predictions):
        try:
            preds = _parse_prediction(json.loads(line), f"predictions line {i}")
        except json.JSONDecodeError as exc:
            raise SchemaError(f"predictions line {i}: {exc}") from exc
        key = (preds.scenario_id, preds.direction.value if preds.direction else None)
        if key in predictions:
            raise SchemaError(f"predictions line {i}: duplicate key {key}")
        predictions[key] = preds

    keyed = []
    for i, line in _numbered_lines(args.dataset):
        try:
            row = InstructionRecord.from_obj(json.loads(line))
            direction = row.direction.value if row.direction else None
            preds = predictions.get((row.scenario_id, direction)) or predictions.get((row.scenario_id, None))
            keyed.append(((row.scenario_id, direction or "", i), _evaluate_worker(cfg, cfg.rules, row, preds)))
        except (json.JSONDecodeError, MotionKitError) as exc:
            raise SchemaError(f"dataset line {i}: {exc}") from exc
    keyed.sort(key=lambda kv: kv[0])
    report = _aggregate([result for _, result in keyed])
    payload = {
        "config": cfg.to_obj(),
        "inputs": {
            "dataset": {"path": args.dataset, "sha256": _sha256(args.dataset)},
            "predictions": {"path": args.predictions, "sha256": _sha256(args.predictions)},
        },
        "metrics": report.to_obj(),
    }
    _write_text(args.report, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _aggregate(results: list[dict]) -> EvalReport:
    report = EvalReport(n_rows=len(results))
    ifr_rows = [(DirectionLabel(r["direction"]), r["ifr"]) for r in results if r["ifr"] is not None]
    report.n_scored = len(ifr_rows)
    report.n_missing_predictions = sum(1 for r in results if not r["has_pred"])
    report.n_unclassifiable = sum(r["unclassifiable"] for r in results)
    if ifr_rows:
        report.ifr_micro = ifr_micro([v for _, v in ifr_rows])
        macro, per_class = ifr_macro(ifr_rows)
        report.ifr_macro = macro
        report.per_class_ifr = {label.value: value for label, value in per_class.items()}
        report.classes_absent = sorted(d.value for d in DirectionLabel if d not in per_class)
    by_tag: dict[str, list[float]] = {}
    for r in results:
        if r["ifr"] is not None and r["feas_tag"]:
            by_tag.setdefault(r["feas_tag"], []).append(r["ifr"])
    report.ifr_by_tag = {tag: ifr_micro(vals) for tag, vals in by_tag.items()}

    ades = [r["ade"] for r in results if r["ade"] is not None]
    fdes = [r["fde"] for r in results if r["fde"] is not None]
    if ades:
        report.min_ade = float(np.sum(np.asarray(ades)) / len(ades))
        report.min_fde = float(np.sum(np.asarray(fdes)) / len(fdes))

    feas_pairs = [
        (Decision(r["decision"]), FeasTag(r["feas_tag"]))
        for r in results
        if r["decision"] and r["feas_tag"]
    ]
    if feas_pairs:
        from .metrics import detection_accuracy

        report.feas_accuracy = {t.value: a for t, a in detection_accuracy(feas_pairs).items()}
    safety_triples = [
        (Decision(r["decision"]), Safety(r["safety_tag"]), r["with_context"])
        for r in results
        if r["decision"] and r["safety_tag"]
    ]
    if safety_triples:
        from .metrics import safety_accuracy

        report.safety_accuracy = {
            f"{safety.value.lower()}_{'with' if ctx else 'without'}_context": acc
            for (safety, ctx), acc in safety_accuracy(safety_triples).items()
        }
    return report


# -- stats -----------------------------------------------------------------------


def cmd_stats(args, cfg: Config) -> int:
    lines = _numbered_lines(args.input)
    counts_direction: dict[str, int] = {}
    counts_tag: dict[str, int] = {}
    counts_behavior: dict[str, int] = {}
    counts_decision: dict[str, int] = {}
    for i, line in lines:
        try:
            row = InstructionRecord.from_obj(json.loads(line))
        except (json.JSONDecodeError, SchemaError) as exc:
            raise SchemaError(f"line {i}: {exc}") from exc
        if row.direction:
            counts_direction[row.direction.value] = counts_direction.get(row.direction.value, 0) + 1
        if row.feas_tag:
            counts_tag[row.feas_tag.value] = counts_tag.get(row.feas_tag.value, 0) + 1
        if row.behavior:
            counts_behavior[row.behavior.value] = counts_behavior.get(row.behavior.value, 0) + 1
        counts_decision[row.decision.value] = counts_decision.get(row.decision.value, 0) + 1
    payload = {
        "config": cfg.to_obj(),
        "inputs": {"dataset": {"path": args.input, "sha256": _sha256(args.input)}},
        "total_rows": len(lines),
        "direction_counts": dict(sorted(counts_direction.items())),
        "feas_tag_counts": dict(sorted(counts_tag.items())),
        "behavior_counts": dict(sorted(counts_behavior.items())),
        "decision_counts": dict(sorted(counts_decision.items())),
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# -- synth -----------------------------------------------------------------------


def cmd_synth(args, cfg: Config) -> int:
    if args.suite != "default":
        raise ConfigError(f"unknown suite {args.suite!r}")
    if args.n < 0:
        raise ConfigError("--n must be >= 0")
    pairs = build_corpus(args.n, seed=args.seed if args.seed is not None else 7, horizon=cfg.horizon)
    _write_text(args.out, "".join(serialize_scenario(s) + "\n" for s, _ in pairs))
    if args.expected:
        _write_text(
            args.expected,
            "".join(
                json.dumps(expectation_to_obj(s.scenario_id, e), **_JSON_COMPACT) + "\n" for s, e in pairs
            ),
        )
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="motionkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--jobs", type=int, default=None, help="parallel worker count")

    p = sub.add_parser("extract", help="motion attributes per focal agent")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("feasibility", help="GT/feasible/infeasible direction reports")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("gen-instructions", help="instruction/caption dataset rows")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--out", default=None)
    p.add_argument("--mode", choices=("direction", "behavior"), default="direction")
    p.add_argument("--mix", default=None, help="GT:IF mixture, e.g. 0.7:0.3 (enables sampling)")
    p.add_argument("--balanced", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--draws", type=int, default=None, help="rows to sample (default: one per scenario)")
    p.add_argument("--guidelines", default=None, help="guideline book JSON (behavior mode)")
    common(p)
    p.set_defaults(func=cmd_gen_instructions)

    p = sub.add_parser("evaluate", help="score predictions against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--report", required=True)
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="per-class dataset counts")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic corpus with expected labels")
    p.add_argument("--suite", default="default")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--expected", default=None)
    common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MotionKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
