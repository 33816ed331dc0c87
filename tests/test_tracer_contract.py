"""The benchmark's tracer (``perfbench/tracing.py``) sees every unit of CLI work.

The tracer wraps functions from outside the package and rebinds each wrapper in
every ``motionkit`` module that holds the original, after import. A worker kept
in a module-level table would still run unwrapped: its spans would vanish while
the tracer's ``missing`` list stays empty. This test installs the tracer, runs
the commands in process and counts the spans.
"""

import collections
import importlib.util
import json
from pathlib import Path

from motionkit import cli
from motionkit.attributes import DirectionLabel
from motionkit.core import HorizonConfig, serialize_scenario
from motionkit.synth import SynthSpec, gen_prediction_set, gen_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
H = HorizonConfig()


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_span_per_unit_of_work(tmp_path):
    tracing = load_tracing()
    specs = (
        SynthSpec(kind="straight", speed=10.0),
        SynthSpec(kind="arc", speed=8.0, angle_deg=90.0),
        SynthSpec(kind="arc", speed=8.0, angle_deg=-90.0),
    )
    scenarios = [gen_scenario(spec, f"s{i}", H)[0] for i, spec in enumerate(specs)]
    corpus, rows, preds = tmp_path / "corpus.jsonl", tmp_path / "rows.jsonl", tmp_path / "preds.jsonl"
    corpus.write_text("".join(serialize_scenario(s) + "\n" for s in scenarios))
    tracer = tracing.Tracer()

    def traced(*argv) -> None:
        with tracer.root(f"cli.{argv[0]}", argv[0]):
            assert cli.main([*argv, "--jobs", "1"]) == 0

    with tracer.installed():
        assert tracer.missing == []
        traced("extract", str(corpus), "--out", str(tmp_path / "attrs.jsonl"))
        traced("feasibility", str(corpus), "--out", str(tmp_path / "feas.jsonl"))
        traced("gen-instructions", str(corpus), "--out", str(rows))
        # one prediction line per GT row
        gt_rows = [json.loads(line) for line in rows.read_text().splitlines() if '"feas_tag":"GT"' in line]
        tracks = {s.scenario_id: s.focal_track for s in scenarios}
        lines = []
        for row in gt_rows:
            pset = gen_prediction_set(tracks[row["scenario_id"]], DirectionLabel(row["direction"]), 2, 3, H)
            obj = {"scenario_id": row["scenario_id"], "direction": row["direction"]}
            lines.append(json.dumps(dict(obj, trajectories=pset.trajectories.tolist())))
        preds.write_text("".join(line + "\n" for line in lines))
        traced("evaluate", "--dataset", str(rows), "--predictions", str(preds), "--report", str(tmp_path / "r.json"))

    spans = collections.Counter((s[tracing.REQUEST], s[tracing.NAME]) for s in tracer.spans)
    n_rows = len(rows.read_text().splitlines())
    assert len(gt_rows) == len(scenarios) and n_rows == 5 * len(scenarios)
    for name in ("extract", "feasibility", "gen-instructions"):
        assert spans[name, "cli.worker"] == len(scenarios), name
    assert spans["evaluate", "cli.worker"] == n_rows
    # the GT label of each scenario, and the two-step caption of each GT row, through the traced names
    assert spans["feasibility", "attributes.classify_direction_fine"] == len(scenarios)
    assert spans["gen-instructions", "attributes.classify_two_step"] == len(gt_rows)
    assert spans["evaluate", "metrics.aggregate"] == 1
    assert spans["evaluate", "metrics.prediction_set"] == len(lines)
    # each dataset line is decoded through the traced name, so instructions.from_obj.us reads it
    assert spans["evaluate", "instructions.from_obj"] == n_rows
    # the block pass: the rows with a prediction share one block, which one call labels and one
    # call per displacement metric scores, so neither metric's per-layer figure reads 0
    assert spans["evaluate", "metrics.classify_prediction"] == 1 < len(gt_rows) < n_rows
    assert spans["evaluate", "metrics.min_ade"] == spans["evaluate", "metrics.min_fde"] == 1
