"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import child
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", {"corpus-label": 12, "scene-dense": 6, "eval-6mode": 14})


def _args(workload: str, tmp_path: Path, seed: int = 5) -> Namespace:
    args = Namespace(
        workload=workload, seed=seed, inputs=tmp_path / "in", out=tmp_path / "out", seconds=0.0, nproc=2,
        spans=tmp_path / "spans.jsonl.gz",
    )
    workloads.make_inputs(workload, seed, args.inputs)
    args.out.mkdir()
    return args


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_timed_and_traced(tiny, tmp_path, workload):
    args = _args(workload, tmp_path)
    result = child.timed(args)
    assert result["failed"] == 0, result["errors"]
    assert result["pipeline_s"] > 0 and result["pipeline_j1_s"] > 0 and result["peak_rss_mb"] > 0
    expected = {
        c.metric if not c.sharded else f"{c.metric}_j{j}"
        for c in workloads.chain(workload, args.seed)
        for j in (("1", "N") if c.sharded else ("",))
    }
    assert set(result["throughput"]) == expected
    assert set(expected) <= set(run.THROUGHPUT_UNITS)

    traced = child.traced(args)
    assert traced["failed"] == 0, traced["errors"]
    assert traced["missing_targets"] == []
    assert set(traced["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
    for c in workloads.chain(workload, args.seed):
        assert traced["metrics"][f"trace.coverage.{c.name.replace('-', '_')}"] == pytest.approx(1.0, abs=0.05)
    with gzip.open(args.spans, "rt") as fp:
        spans = [json.loads(line) for line in fp]
    assert {f"cli.{c.name}" for c in workloads.chain(workload, args.seed)} <= {s[tracing.NAME] for s in spans}
    # Wrappers are gone after the traced run: the package's own functions are back.
    from motionkit import cli, core

    assert cli.parse_scenario is core.parse_scenario
    assert cli.json is json


def test_flipped_label_fails_the_gate(tiny, tmp_path):
    args = _args("corpus-label", tmp_path)
    gate = child.Gate("corpus-label", args.inputs, args.out)
    extract = next(c for c in workloads.chain("corpus-label", args.seed) if c.name == "extract")
    gate.run(extract, 1)
    assert gate.failed == 0, gate.errors

    path = extract.output_paths(args.out, 1)[0]
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[3]["direction"] = "Left" if rows[3]["direction"] != "Left" else "Right"
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows))

    errors = workloads.checker("corpus-label", "extract")([path], args.inputs)
    assert len(errors) == 1 and rows[3]["scenario_id"] in errors[0]
    assert gate.check(extract, 1)  # the bytes no longer match the first output
    fresh = child.Gate("corpus-label", args.inputs, args.out)
    assert any("direction" in e for e in fresh.check(extract, 1))


def test_coverage_is_computed_from_self_time():
    # root [0, 100) > child [10, 60) > grandchild [20, 40); a sibling [70, 90).
    spans = [
        ["cli.extract", 0, 100, -1, "extract#0", None],
        ["core.parse_scenario", 10, 60, 0, "extract#0", None],
        ["json.loads", 20, 40, 1, "extract#0", None],
        ["attributes.extract_motion_attributes", 70, 90, 0, "extract#0", None],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [30, 30, 20, 20]
    assert tracing.coverage(spans, selfs, {"extract#0"}, 100) == pytest.approx(1.0)
    inclusive = sum(s[tracing.END] - s[tracing.START] for s in spans) / 100
    assert inclusive == pytest.approx(1.9)


def test_tracer_spans_nest():
    tracer = tracing.Tracer()
    inner = tracer.wrap("b.inner", lambda: 1)
    outer = tracer.wrap("a.outer", lambda: inner() + inner())
    with tracer.root("cli.x", "x#0"):
        assert outer() == 2
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 1, 1]
    root = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == root[tracing.END] - root[tracing.START]


def test_install_rebinds_every_importer():
    from motionkit import attributes, cli, feasibility, instructions

    originals = (cli.extract_motion_attributes, instructions.feasibility_set, cli.feasibility_set)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.missing == []
        assert cli.extract_motion_attributes is attributes.extract_motion_attributes
        assert cli.extract_motion_attributes is not originals[0]
        assert instructions.feasibility_set is feasibility.feasibility_set is cli.feasibility_set
        assert instructions.feasibility_set is not originals[1]
    assert (cli.extract_motion_attributes, instructions.feasibility_set, cli.feasibility_set) == originals


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-6mode", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
