"""Command-line entry point: extract | feasibility | gen-instructions | evaluate | synth | stats.

All commands read/write JSONL (or JSON reports) on paths or stdin/stdout
(``-``). Outputs are byte-identical across runs and across ``--jobs`` settings:
the scenario commands split their lines into contiguous blocks, one per job,
and merge the results in ascending scenario_id order; evaluate, stats and
synth run in one process.
Exit codes: 0 success, 1 input error, 2 config error.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import itertools
import json
import multiprocessing
import sys
from pathlib import Path
from typing import Iterator, Optional

from .attributes import extract_motion_attributes
from .behavior import GuidelineBook, load_default_guidelines, load_guidelines
from .config import Config, load_config
from .core import _JSON_COMPACT, Scenario, _record_obj, parse_scenario, serialize_scenario
from .errors import ConfigError, InsufficientPoints, InvalidAnchor, MotionKitError, SchemaError
from .feasibility import feasibility_set
from .instructions import (
    InstructionRecord,
    SamplerConfig,
    build_behavior_row,
    build_direction_rows,
    sample_training_mix,
)
from .metrics import BLOCK_ROWS, PredictionSet, aggregate, check_t_pred, score_blocks, score_row
from .synth import build_corpus, expectation_to_obj


def _read_text(path: str) -> tuple[str, Optional[bytes]]:
    """The text of ``path`` (``-``: stdin) and the bytes it was decoded from (None for stdin); a
    file that cannot be read or is not UTF-8 is an input error."""
    try:
        if path == "-":
            return sys.stdin.read(), None
        data = Path(path).read_bytes()
        return data.decode("utf-8"), data
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of ``text`` with their physical (1-based) line numbers. Lines break
    only at ``\n``: U+0085, U+2028 and U+2029 may stand raw inside a JSON string, and ``\r`` is
    JSON whitespace, so a CRLF ending or a lone ``\r`` between tokens stays part of its line. A
    blank line holds JSON whitespace alone; one holding other whitespace is read, and fails."""
    return [(i, line) for i, line in enumerate(text.split("\n"), start=1) if line.strip(" \t\r")]


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The numbered non-blank lines of ``path`` (``-``: stdin)."""
    return _numbered_lines(_read_text(path)[0])


def _read_input(path: str) -> tuple[list[tuple[int, str]], dict[str, str]]:
    """The numbered lines of a report's input and its entry in the report: the path and the
    sha256 of the bytes read ("stdin" for stdin)."""
    text, data = _read_text(path)
    digest = "stdin" if data is None else hashlib.sha256(data).hexdigest()
    return _numbered_lines(text), {"path": path, "sha256": digest}


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


def _send_block(call, block: list[tuple[int, str]], sender) -> None:
    """A child's whole block: the list of its outcomes, or the unexpected exception that stopped it."""
    try:
        outcomes = [call(item) for item in block]
    except Exception as exc:  # re-raised by the parent, as the in-process loop would raise it
        outcomes = exc
    sender.send(outcomes)


def _fork_join(call, items: list[tuple[int, str]], jobs: int) -> list:
    """``call`` over ``items`` split into ``jobs`` contiguous blocks: block 0 in this process, each
    other block in a forked child, which inherits its lines and sends back one list of outcomes.

    The outcomes come back in item order. A child's unexpected exception is raised here; a child
    that exits without sending raises RuntimeError. No child outlives the call.
    """
    bounds = [len(items) * k // jobs for k in range(jobs + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            fork = multiprocessing.get_context("fork")  # asked for only here: one job needs no fork
            receiver, sender = fork.Pipe(duplex=False)
            child = fork.Process(target=_send_block, args=(call, items[lo:hi], sender))
            child.start()
            children.append((child, receiver, lo, hi))
            sender.close()  # the child holds the only write end, so its exit ends the pipe
        outcomes = [call(item) for item in items[: bounds[1]]]
        for child, receiver, lo, hi in children:
            try:
                block = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"the process for lines {items[lo][0]}-{items[hi - 1][0]} exited with code "
                    f"{child.exitcode} before sending its outcomes"
                ) from None
            if isinstance(block, Exception):
                raise block
            outcomes += block
        return outcomes
    finally:
        for child, receiver, _, _ in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()


def _map_lines(worker, items: list[tuple[int, str]], jobs: int) -> list:
    """Run ``worker`` on every ``(line number, line)`` item and merge the outcomes.

    :func:`_fork_join` splits the items into ``jobs`` contiguous blocks, no more than there are
    items; this process runs the first and forked children the others, so one job starts no
    child. ``worker`` carries its settings (config, guideline book) as a
    ``functools.partial``. Returns the kept payloads in key (``scenario_id``) order. The input
    error with the lowest line number is raised, whatever the job count; skips are summarised
    on stderr, one line per reason.
    """
    call = functools.partial(_apply, worker)
    outcomes = _fork_join(call, items, max(1, min(jobs, len(items))))
    kept, skipped = [], {}  # skipped: the line numbers of each skip reason
    for item, (status, value) in zip(items, outcomes):
        if status == "error":
            raise value
        if status == "skip":
            skipped.setdefault(value, []).append(item[0])
        else:
            kept.append(value)
    for reason, numbers in sorted(skipped.items()):
        print(f"skipped {len(numbers)} scenario(s): {reason} (first at line {numbers[0]})", file=sys.stderr)
    kept.sort(key=lambda kv: kv[0])
    return [payload for _, payload in kept]


def _vehicle_scenario(line: str) -> Scenario:
    scenario = parse_scenario(line)
    if scenario.focal_track.agent_kind != "vehicle":
        raise _Skip("focal agent is not a vehicle")
    return scenario


def _map_scenarios(args, cfg: Config, *settings) -> list:
    """The command's worker with ``cfg`` and ``settings`` over every line of ``args.input``; the kept
    payloads in scenario order. The parser table names the worker (``args.worker``), and the name is
    looked up here, when the command runs, so that a wrapper bound to it (as perfbench/tracing.py
    binds one) is the one that runs."""
    worker = functools.partial(globals()[args.worker], cfg, *settings)
    return _map_lines(worker, _read_lines(args.input), args.jobs or cfg.jobs)


# -- extract and feasibility -------------------------------------------------------


def _extract_worker(cfg: Config, item: tuple[int, str]) -> tuple[str, str]:
    scenario = _vehicle_scenario(item[1])
    attrs = extract_motion_attributes(scenario.focal_track, scenario.horizon, cfg.rules)
    obj = _record_obj(attrs, scenario_id=scenario.scenario_id, focal_agent_id=scenario.focal_agent_id)
    return scenario.scenario_id, json.dumps(obj, **_JSON_COMPACT)


def _feasibility_worker(cfg: Config, item: tuple[int, str]) -> tuple[str, str]:
    scenario = _vehicle_scenario(item[1])
    report = feasibility_set(scenario, cfg.feasibility, cfg.rules)
    obj = _record_obj(report, scenario_id=scenario.scenario_id, focal_agent_id=scenario.focal_agent_id)
    return scenario.scenario_id, json.dumps(obj, **_JSON_COMPACT)


def cmd_per_scenario(args, cfg: Config) -> int:
    """extract and feasibility: the worker's JSON line for every kept scenario."""
    _write_text(args.out, "".join(row + "\n" for row in _map_scenarios(args, cfg)))
    return 0


# -- gen-instructions ------------------------------------------------------------


def _gen_worker(
    cfg: Config, book: Optional[GuidelineBook], item: tuple[int, str]
) -> tuple[str, list[InstructionRecord]]:
    """Direction-mode rows, or the behavior-mode row when a guideline book is given."""
    scenario = _vehicle_scenario(item[1])
    if book is None:
        return scenario.scenario_id, build_direction_rows(scenario, cfg.feasibility, cfg.rules)
    if scenario.scenario_type is None:
        raise _Skip("no scenario_type")
    return scenario.scenario_id, [build_behavior_row(scenario, book, cfg.behavior)]


def _load_book(cfg: Config, flag_path: Optional[str]) -> GuidelineBook:
    path = flag_path or cfg.guidelines
    if path is None:
        return load_default_guidelines()
    return load_guidelines(_read_text(path)[0])


def cmd_gen_instructions(args, cfg: Config) -> int:
    if args.mode == "behavior" and args.mix is not None:
        raise ConfigError("--mix applies to direction mode only")
    if args.draws is not None and args.draws < 0:
        raise ConfigError("--draws must be >= 0")
    sampler = None
    if args.mix is None:
        flags = {"--balanced/--no-balanced": args.balanced, "--seed": args.seed, "--draws": args.draws}
        for flag, value in flags.items():
            if value is not None:
                raise ConfigError(f"{flag} applies only with --mix")
    else:
        try:
            gt_s, if_s = args.mix.split(":")
            gt_frac, if_frac = float(gt_s), float(if_s)
        except ValueError as exc:
            raise ConfigError(f"--mix must look like 0.7:0.3, got {args.mix!r}") from exc
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
    per_scenario = _map_scenarios(args, cfg, book)
    rows: list[InstructionRecord] = [row for rs in per_scenario for row in rs]

    if sampler is not None:
        n_draws = args.draws if args.draws is not None else len(per_scenario)
        rows = list(sample_training_mix(rows, sampler, n_draws))

    _write_text(args.out, "".join(json.dumps(r.to_obj(), **_JSON_COMPACT) + "\n" for r in rows))
    return 0


# -- evaluate and stats ------------------------------------------------------------

# Module-level names for the prediction decode, the row assembly and the report build:
# perfbench/tracing.py wraps them by these names.
_parse_prediction = PredictionSet.from_obj
_evaluate_worker = score_row
_aggregate = aggregate


def _write_report(path: Optional[str], cfg: Config, inputs: dict[str, dict[str, str]], body: dict) -> None:
    """A JSON report: the resolved config, each input's :func:`_read_input` entry, and ``body``."""
    payload = {"config": cfg.to_obj(), "inputs": inputs, **body}
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _decoded(lines: list[tuple[int, str]], decode, what: str) -> Iterator[tuple[int, object]]:
    """``(line number, decode(json.loads(line)))`` of each numbered line, in order, each line
    decoded once. The first line that fails raises its error as ``{what} N: ...``."""
    for i, line in lines:
        try:
            value = decode(json.loads(line))
        except (json.JSONDecodeError, RecursionError, MotionKitError) as exc:  # RecursionError: nested too deep
            raise SchemaError(f"{what} {i}: {exc}") from exc
        yield i, value


def _read_predictions(path: str) -> tuple[dict[tuple[str, Optional[str]], PredictionSet], dict[str, str]]:
    """Every prediction of ``path`` keyed by (scenario_id, direction), and the file's report
    entry. The lines are dropped on return, before the dataset is read."""
    lines, entry = _read_input(path)
    predictions: dict[tuple[str, Optional[str]], PredictionSet] = {}
    for i, preds in _decoded(lines, _parse_prediction, "predictions line"):
        key = (preds.scenario_id, preds.direction.value if preds.direction else None)
        if key in predictions:
            raise SchemaError(f"predictions line {i}: duplicate key {key} of scenario_id and direction")
        predictions[key] = preds
    return predictions, entry


def cmd_evaluate(args, cfg: Config) -> int:
    """Score every dataset row in one in-process pass; each line is decoded once.

    Each row is paired with its prediction as it is decoded, so the first line that fails to
    decode or to pair raises. The rows are taken BLOCK_ROWS at a time: the block pass scores
    them together, then the worker assembles each row's result.
    """
    predictions, predictions_input = _read_predictions(args.predictions)
    lines, dataset_input = _read_input(args.dataset)

    def paired(obj) -> tuple[InstructionRecord, Optional[PredictionSet]]:
        row = InstructionRecord.from_obj(obj)
        direction = row.direction.value if row.direction else None
        preds = predictions.get((row.scenario_id, direction)) or predictions.get((row.scenario_id, None))
        if preds is not None:
            check_t_pred(row, preds)
        return row, preds

    decoded = _decoded(lines, paired, "dataset line")
    keyed = []
    while block := [pair for _, pair in itertools.islice(decoded, BLOCK_ROWS)]:
        rows, preds = zip(*block)
        for row, p, row_scores in zip(rows, preds, score_blocks(rows, preds, cfg.horizon.dt, cfg.rules)):
            key = (row.scenario_id, row.direction.value if row.direction else "")
            keyed.append((key, _evaluate_worker(row, p, row_scores)))
    keyed.sort(key=lambda kv: kv[0])  # stable: rows of one key stay in dataset order
    report = _aggregate([result for _, result in keyed])
    inputs = {"dataset": dataset_input, "predictions": predictions_input}
    _write_report(args.report, cfg, inputs, {"metrics": report.to_obj()})
    return 0


def _by_value(counts: collections.Counter) -> dict[str, int]:
    """Label counts keyed by label value, in sorted order; rows without the label (None) are left out."""
    return dict(sorted((label.value, n) for label, n in counts.items() if label is not None))


def cmd_stats(args, cfg: Config) -> int:
    lines, dataset_input = _read_input(args.input)
    direction, feas_tag, behavior, decision = (collections.Counter() for _ in range(4))
    for _, row in _decoded(lines, InstructionRecord.from_obj, "line"):
        direction[row.direction] += 1
        feas_tag[row.feas_tag] += 1
        behavior[row.behavior] += 1
        decision[row.decision] += 1
    body = {
        "total_rows": len(lines),
        "direction_counts": _by_value(direction),
        "feas_tag_counts": _by_value(feas_tag),
        "behavior_counts": _by_value(behavior),
        "decision_counts": _by_value(decision),
    }
    _write_report(args.out, cfg, {"dataset": dataset_input}, body)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    arguments = {
        "input": dict(nargs="?", default="-"),
        "--out": {},
        "--mode": dict(choices=("direction", "behavior"), default="direction"),
        "--mix": dict(help="GT:IF mixture, e.g. 0.7:0.3 (enables sampling)"),
        "--balanced": dict(action=argparse.BooleanOptionalAction),
        "--seed": dict(type=int),
        "--draws": dict(type=int, help="rows to sample (default: one per scenario)"),
        "--guidelines": dict(help="guideline book JSON (behavior mode)"),
        "--dataset": dict(required=True),
        "--predictions": dict(required=True),
        "--report": dict(required=True),
        "--suite": dict(default="default"),
        "--n": dict(type=int, default=500),
        "--expected": {},
        "--config": dict(help="JSON config file"),
        "--jobs": dict(type=int, help="parallel worker count"),
    }
    # (name, help, command, the name of its per-scenario worker, arguments before --config and --jobs).
    commands = (
        ("extract", "motion attributes per focal agent", cmd_per_scenario, "_extract_worker", "input --out"),
        (
            "feasibility",
            "GT/feasible/infeasible direction reports",
            cmd_per_scenario,
            "_feasibility_worker",
            "input --out",
        ),
        (
            "gen-instructions",
            "instruction/caption dataset rows",
            cmd_gen_instructions,
            "_gen_worker",
            "input --out --mode --mix --balanced --seed --draws --guidelines",
        ),
        ("evaluate", "score predictions against a dataset", cmd_evaluate, None, "--dataset --predictions --report"),
        ("stats", "per-class dataset counts", cmd_stats, None, "input --out"),
        (
            "synth",
            "generate a synthetic corpus with expected labels",
            cmd_synth,
            None,
            "--suite --n --seed --out --expected",
        ),
    )
    parser = argparse.ArgumentParser(prog="motionkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, worker, flags in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags.split(), "--config", "--jobs"):
            p.add_argument(flag, **arguments[flag])
        p.set_defaults(func=func, worker=worker)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MotionKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
