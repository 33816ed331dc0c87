"""Workload inputs, command chains and the output-correctness gate.

Every input is generated from the workload seed through the package's public
API (``synth.build_corpus``, ``serialize_scenario``, ``gen_prediction_set``,
``InstructionRecord``), written to files, and the program only ever sees those
files through ``motionkit.cli.main(argv)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Scenario / row counts. Chosen so one round of a workload's command chain at
# jobs 1 and jobs nproc takes about 2-3 s on a 2-CPU machine: long enough that
# pool start-up and timer noise stay small, short enough for several rounds
# (and a median) inside one run.
SIZES = {"corpus-label": 200, "scene-dense": 30, "eval-6mode": 300}

# Non-focal agents added to every scene-dense scenario.
DENSE_EXTRA_AGENTS = 16

_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def make_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the seeded inputs of ``workload`` (plus its expectation files) to ``out``."""
    from motionkit.core import serialize_scenario
    from motionkit.synth import build_corpus, expectation_to_obj

    out.mkdir(parents=True, exist_ok=True)
    n = SIZES[workload]
    pairs = build_corpus(n, seed=seed, topology="t_junction" if workload == "scene-dense" else "single")
    expected = (json.dumps(expectation_to_obj(s.scenario_id, e), **_COMPACT) for s, e in pairs)
    _write_lines(out / "expected.jsonl", expected)
    if workload == "corpus-label":
        _write_lines(out / "corpus.jsonl", (serialize_scenario(s) for s, _ in pairs))
    elif workload == "scene-dense":
        _write_lines(out / "corpus.jsonl", _dense_lines(pairs))
    else:
        _write_eval_inputs(pairs, out)


def _dense_lines(pairs) -> list[str]:
    """Each focal track plus the next DENSE_EXTRA_AGENTS synth tracks as renamed
    non-focal vehicles; scenario_type cycles through the default guideline book."""
    from motionkit.behavior import load_default_guidelines
    from motionkit.core import serialize_scenario

    types = sorted(load_default_guidelines().scenario_types)
    objs = [json.loads(serialize_scenario(s)) for s, _ in pairs]
    focal = [next(a for a in o["agents"] if a["agent_id"] == o["focal_agent_id"]) for o in objs]
    n = len(objs)
    lines = []
    for i, obj in enumerate(objs):
        others = [dict(focal[(i + k) % n], agent_id=f"other-{k:02d}") for k in range(1, DENSE_EXTRA_AGENTS + 1)]
        obj["agents"] = obj["agents"] + others
        obj["scenario_type"] = types[i % len(types)]
        lines.append(json.dumps(obj, **_COMPACT))
    return lines


def _write_eval_inputs(pairs, out: Path) -> None:
    """Criterion-10-style GT rows and 6-mode predictions matching ``i % 7`` modes."""
    import numpy as np

    from motionkit.core import HorizonConfig
    from motionkit.feasibility import FeasTag
    from motionkit.instructions import Decision, InstructionRecord, render_caption, render_instruction
    from motionkit.synth import gen_prediction_set

    horizon = HorizonConfig()
    start, stop = horizon.future_window
    rows, preds, ifr = [], [], []
    for i, (scenario, expected) in enumerate(pairs):
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
        rows.append(json.dumps(row.to_obj(), **_COMPACT))
        matches = i % 7
        ifr.append(matches / 6.0)
        pset = gen_prediction_set(track, expected.direction, match_count=matches, n_modes=6, horizon=horizon)
        preds.append(
            json.dumps(
                {
                    "scenario_id": scenario.scenario_id,
                    "direction": expected.direction.value,
                    "trajectories": np.round(pset.trajectories, 3).tolist(),
                    "scores": pset.scores.tolist(),
                    "decision": "Accept",
                },
                separators=(",", ":"),
            )
        )
    _write_lines(out / "rows.jsonl", rows)
    _write_lines(out / "preds.jsonl", preds)
    (out / "meta.json").write_text(json.dumps({"ifr_micro": float(np.mean(ifr)), "n_rows": len(rows)}))


# -- command chains -----------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload's chain.

    ``metric`` is the throughput name stem; sharded commands run at jobs 1 and
    jobs nproc and get ``_j1`` / ``_jN`` suffixes.
    """

    name: str
    metric: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    units: int
    input_files: tuple[str, ...]
    sharded: bool = True

    def run_argv(self, inputs: Path, outdir: Path, jobs: int) -> list[str]:
        tag = f"j{jobs}"
        subst = {"IN": str(inputs), "OUT": str(outdir), "TAG": tag}
        argv = [a.format(**subst) for a in self.argv]
        return argv + ["--jobs", str(jobs)] if self.sharded else argv

    def output_paths(self, outdir: Path, jobs: int) -> list[Path]:
        return [Path(p.format(OUT=str(outdir), TAG=f"j{jobs}")) for p in self.outputs]


def _on_corpus(name: str, metric: str, n: int, out: str, *flags: str) -> Command:
    """A sharded command that reads the workload's scenario corpus and writes one JSONL file."""
    path = f"{{OUT}}/{out}-{{TAG}}.jsonl"
    return Command(name, metric, (name, "{IN}/corpus.jsonl", "--out", path, *flags), (path,), n, ("{IN}/corpus.jsonl",))


def chain(workload: str, seed: int) -> list[Command]:
    """The workload's command chain, in pipeline order."""
    n = SIZES[workload]
    if workload in ("corpus-label", "scene-dense"):
        if workload == "corpus-label":
            mode = ("--mode", "direction", "--mix", "0.7:0.3", "--balanced", "--seed", str(seed))
        else:
            mode = ("--mode", "behavior")
        labelling = [
            _on_corpus("extract", "extract_sps", n, "extract"),
            _on_corpus("feasibility", "feasibility_sps", n, "feasibility"),
            _on_corpus("gen-instructions", "gen_instructions_sps", n, "gen", *mode),
        ]
        if workload == "scene-dense":
            return labelling
        out = ("{OUT}/synth.jsonl", "{OUT}/synth-expected.jsonl")
        argv = ("synth", "--n", str(n), "--seed", str(seed), "--out", out[0], "--expected", out[1])
        return [Command("synth", "synth_sps", argv, out, n, (), sharded=False), *labelling]
    if workload == "eval-6mode":
        rows, preds, report, stats = "{IN}/rows.jsonl", "{IN}/preds.jsonl", "{OUT}/report-{TAG}.json", "{OUT}/stats.json"
        return [
            Command(
                "evaluate", "evaluate_rows_per_s",
                ("evaluate", "--dataset", rows, "--predictions", preds, "--report", report), (report,), n, (rows, preds),
            ),
            Command("stats", "stats_rows_per_s", ("stats", rows, "--out", stats), (stats,), n, (rows,), sharded=False),
        ]
    raise KeyError(workload)


# -- correctness gate -------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _expected(inputs: Path) -> dict[str, dict]:
    return {e["scenario_id"]: e for e in _jsonl(inputs / "expected.jsonl")}


def _check_ids(rows: list[dict], expected: dict, what: str) -> list[str]:
    ids = sorted(r.get("scenario_id") for r in rows)
    if ids != sorted(expected):
        return [f"{what}: {len(rows)} rows do not cover the {len(expected)} expected scenario ids once each"]
    return []


def _check_synth(outputs: list[Path], inputs: Path) -> list[str]:
    errors = []
    if outputs[0].read_bytes() != (inputs / "corpus.jsonl").read_bytes():
        errors.append("synth: corpus differs from the seeded build_corpus serialization")
    if outputs[1].read_bytes() != (inputs / "expected.jsonl").read_bytes():
        errors.append("synth: expectation sidecar differs from the seeded expectations")
    return errors


def _check_extract(outputs: list[Path], inputs: Path) -> list[str]:
    expected = _expected(inputs)
    rows = _jsonl(outputs[0])
    errors = _check_ids(rows, expected, "extract")
    for r in rows:
        e = expected.get(r["scenario_id"], {})
        for key in ("fine_direction", "direction", "speed", "acceleration"):
            if r.get(key) != e.get(key):
                errors.append(f"extract: {r['scenario_id']} {key}={r.get(key)!r}, expected {e.get(key)!r}")
    return errors


def _check_feasibility(outputs: list[Path], inputs: Path) -> list[str]:
    expected = _expected(inputs)
    rows = _jsonl(outputs[0])
    errors = _check_ids(rows, expected, "feasibility")
    for r in rows:
        want = expected.get(r["scenario_id"], {}).get("direction")
        if r.get("gt_direction") != want:
            errors.append(f"feasibility: {r['scenario_id']} gt_direction={r.get('gt_direction')!r}, expected {want!r}")
    return errors


def _check_gen_direction(outputs: list[Path], inputs: Path) -> list[str]:
    expected = _expected(inputs)
    rows = _jsonl(outputs[0])
    errors = []
    if len(rows) != len(expected):
        errors.append(f"gen-instructions: {len(rows)} sampled rows, expected one draw per scenario ({len(expected)})")
    for r in rows:
        want = expected.get(r.get("scenario_id"), {}).get("direction")
        tag = r.get("feas_tag")
        if tag == "GT" and r.get("direction") != want:
            errors.append(
                f"gen-instructions: GT row {r.get('scenario_id')} direction={r.get('direction')!r}, expected {want!r}"
            )
        elif tag == "IF" and r.get("direction") == want:
            errors.append(f"gen-instructions: IF row {r.get('scenario_id')} instructs the GT direction {want!r}")
        elif tag not in ("GT", "IF"):
            errors.append(f"gen-instructions: row {r.get('scenario_id')} has feas_tag {tag!r} outside the GT:IF mix")
    return errors


def _check_gen_behavior(outputs: list[Path], inputs: Path) -> list[str]:
    expected = _expected(inputs)
    rows = _jsonl(outputs[0])
    errors = _check_ids(rows, expected, "gen-instructions")
    for r in rows:
        want = expected.get(r["scenario_id"], {}).get("behavior")
        if r.get("behavior") != want:
            errors.append(f"gen-instructions: {r['scenario_id']} behavior={r.get('behavior')!r}, expected {want!r}")
    return errors


def _check_evaluate(outputs: list[Path], inputs: Path) -> list[str]:
    meta = json.loads((inputs / "meta.json").read_text())
    metrics = json.loads(outputs[0].read_text())["metrics"]
    errors = []
    if metrics.get("n_rows") != meta["n_rows"]:
        errors.append(f"evaluate: n_rows={metrics.get('n_rows')}, expected {meta['n_rows']}")
    if not isinstance(metrics.get("ifr_micro"), float) or abs(metrics["ifr_micro"] - meta["ifr_micro"]) > 1e-9:
        errors.append(f"evaluate: ifr_micro={metrics.get('ifr_micro')}, analytic mean of i%7/6 is {meta['ifr_micro']}")
    return errors


def _check_stats(outputs: list[Path], inputs: Path) -> list[str]:
    meta = json.loads((inputs / "meta.json").read_text())
    total = json.loads(outputs[0].read_text()).get("total_rows")
    return [] if total == meta["n_rows"] else [f"stats: total_rows={total}, expected {meta['n_rows']}"]


def checker(workload: str, command: str) -> Callable[[list[Path], Path], list[str]]:
    """The semantic output check of ``command`` in ``workload``."""
    if command == "gen-instructions":
        return _check_gen_behavior if workload == "scene-dense" else _check_gen_direction
    return {
        "synth": _check_synth,
        "extract": _check_extract,
        "feasibility": _check_feasibility,
        "evaluate": _check_evaluate,
        "stats": _check_stats,
    }[command]
