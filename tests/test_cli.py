"""End-to-end command tests: pipelines, determinism, exit codes."""

import collections
import contextlib
import io
import math
import json
import multiprocessing
import os
import signal
import tempfile
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionkit import cli
from motionkit.attributes import DirectionLabel
from motionkit.cli import main
from motionkit.config import load_config
from motionkit.core import HorizonConfig, serialize_scenario
from motionkit.metrics import classify_prediction
from motionkit.synth import SynthSpec, gen_prediction_set, gen_scenario

from agent_docs import agent_mutations, three_agent_docs

H = HorizonConfig()


# Dataset-row edits of a row's two_step and the line error each must raise.
TWO_STEP_CASES = [
    (
        lambda row: dict(row, two_step=[dict(step, extra=1) for step in row["two_step"]]),
        "two_step[0]: unexpected field(s) ['extra']",
    ),
    (lambda row: dict(row, two_step=row["two_step"] * 2), "two_step must hold exactly 2 steps, got 4"),
]


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    expected = tmp_path / "expected.jsonl"
    assert run("synth", "--n", "40", "--seed", "5", "--out", str(path), "--expected", str(expected)) == 0
    return path, expected


@pytest.fixture
def started(monkeypatch):
    """The child processes a command starts, recorded at the fork context's ``Process.start``."""
    process = multiprocessing.get_context("fork").Process
    start, children = process.start, []
    monkeypatch.setattr(process, "start", lambda child: (children.append(child), start(child)))
    return children


def assert_matches_sidecar(attrs_path, expected_path):
    got = {json.loads(l)["scenario_id"]: json.loads(l) for l in attrs_path.read_text().splitlines()}
    want = {json.loads(l)["scenario_id"]: json.loads(l) for l in expected_path.read_text().splitlines()}
    assert set(got) == set(want)
    for sid, exp in want.items():
        for key in ("fine_direction", "direction", "speed", "acceleration"):
            assert got[sid][key] == exp[key], (sid, key)


class TestSynthAndExtract:
    def test_extract_matches_expected_sidecar(self, tmp_path, corpus):
        corpus_path, expected_path = corpus
        out = tmp_path / "attrs.jsonl"
        assert run("extract", str(corpus_path), "--out", str(out)) == 0
        assert_matches_sidecar(out, expected_path)

    @pytest.mark.parametrize("t_pred", [50, 60])
    def test_synth_draws_its_suite_on_the_config_horizon(self, tmp_path, t_pred):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": {"t_pred": t_pred, "t_select": [t_pred - 1]}}))
        corpus, expected, out = tmp_path / "corpus.jsonl", tmp_path / "expected.jsonl", tmp_path / "attrs.jsonl"
        argv = ("synth", "--n", "40", "--config", str(cfg), "--out", str(corpus), "--expected", str(expected))
        assert run(*argv) == 0
        assert run("extract", str(corpus), "--config", str(cfg), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 40
        assert_matches_sidecar(out, expected)

    def test_empty_input_empty_output(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "out.jsonl"
        assert run("extract", str(src), "--out", str(out)) == 0
        assert out.read_text() == ""

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        good, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "ok", H)
        from motionkit.core import serialize_scenario

        src.write_text(serialize_scenario(good) + "\n{broken\n")
        assert run("extract", str(src), "--out", str(tmp_path / "o.jsonl")) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "path,field,named",
        [
            (("agents", 0, "points", 12), "x", "points[12]: field 'x'"),
            (("agents", 0, "points", 12), "y", "points[12]: field 'y'"),
            (("agents", 0, "points", 12), "heading", "points[12]: field 'heading'"),
            (("agents", 0, "points", 12), "speed", "points[12]: field 'speed'"),
            (("lanes", 0, "centerline", 1), "x", "centerline[1]: field 'x'"),
            (("lanes", 0, "centerline", 1), "heading", "centerline[1]: field 'heading'"),
            (("lanes", 0), "speed_limit_kmh", "lanes[0]: field 'speed_limit_kmh'"),
            (("horizon",), "dt", "horizon: field 'dt'"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, tmp_path, capsys, path, field, named, token):
        good, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s", H)
        doc = json.loads(serialize_scenario(good))
        target = doc
        for key in path:
            target = target[key]
        target[field] = "__bad__"
        src = tmp_path / "bad.jsonl"
        src.write_text(serialize_scenario(good) + "\n" + json.dumps(doc).replace('"__bad__"', token) + "\n")
        assert run("extract", str(src), "--out", str(tmp_path / "o.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ")
        assert named in err

    def test_jobs_do_not_change_bytes(self, tmp_path, corpus):
        corpus_path, _ = corpus
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run("extract", str(corpus_path), "--out", str(a), "--jobs", "1") == 0
        assert run("extract", str(corpus_path), "--out", str(b), "--jobs", "8") == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "command,worker",
        [("extract", "_extract_worker"), ("feasibility", "_feasibility_worker"), ("gen-instructions", "_gen_worker")],
    )
    def test_a_worker_rebound_after_the_parser_is_built_runs(self, tmp_path, monkeypatch, command, worker):
        src = tmp_path / "corpus.jsonl"
        assert run("synth", "--n", "3", "--seed", "5", "--out", str(src)) == 0
        assert run(command, str(src), "--out", str(tmp_path / "first.jsonl")) == 0
        assert cli.build_parser() is cli.build_parser()
        original, seen = getattr(cli, worker), []

        def recording(*args):
            seen.append(args[-1][0])
            return original(*args)

        monkeypatch.setattr(cli, worker, recording)
        assert run(command, str(src), "--out", str(tmp_path / "second.jsonl")) == 0
        assert seen == [1, 2, 3]
        assert (tmp_path / "second.jsonl").read_bytes() == (tmp_path / "first.jsonl").read_bytes()

    def test_jobs_start_no_more_children_than_lines(self, tmp_path, started):
        src = tmp_path / "corpus.jsonl"
        assert run("synth", "--n", "3", "--seed", "5", "--out", str(src)) == 0
        outs = {jobs: tmp_path / f"o{jobs}.jsonl" for jobs in (1, 4)}
        for jobs, out in outs.items():
            assert run("feasibility", str(src), "--out", str(out), "--jobs", str(jobs)) == 0
        assert len(started) == 2  # 3 blocks of one line: the parent runs the first
        assert outs[1].read_bytes() == outs[4].read_bytes()


def edited_corpus(tmp_path, edits: dict) -> tuple:
    """A 160-line synth corpus with line ``k + 1`` replaced by ``edits[k](doc)``; its path and out path."""
    src = tmp_path / "corpus.jsonl"
    assert run("synth", "--n", "160", "--seed", "3", "--out", str(src)) == 0
    lines = src.read_text().splitlines()
    for k, edit in edits.items():
        lines[k] = edit(json.loads(lines[k]))
    src.write_text("".join(line + "\n" for line in lines))
    return src, tmp_path / "o.jsonl"


def no_valid_future(doc: dict) -> str:
    for point in doc["agents"][0]["points"][H.t_obs + 1 :]:
        point["valid"] = False
    return json.dumps(doc)


class TestBlockBoundaries:
    """At --jobs J the 160 lines split at ``160 * k // J``: lines 1-80 and 81-160 at two jobs,
    1-53, 54-106 and 107-160 at three. The parent runs the first block."""

    @staticmethod
    def errors_at_jobs(capsys, src, out) -> list:
        errs = []
        for jobs in ("1", "2", "3"):
            rc = run("extract", str(src), "--out", str(out), "--jobs", jobs)
            errs.append((rc, capsys.readouterr().err))
        assert errs[0] == errs[1] == errs[2]
        return errs[0]

    @pytest.mark.parametrize("split", [2, 3])
    def test_bad_lines_either_side_of_the_parent_block_end(self, tmp_path, capsys, split):
        end = 160 // split  # the parent's block at --jobs split is lines 1..end
        edits = {end - 1: lambda doc: "{broken", end: lambda doc: '{"scenario_id": 3}'}
        rc, err = self.errors_at_jobs(capsys, *edited_corpus(tmp_path, edits))
        assert rc == 1
        assert err.startswith(f"error: line {end}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("split", [2, 3])
    def test_a_bad_line_in_a_child_block_beats_a_skip_in_the_parent_block(self, tmp_path, capsys, split):
        first = 160 // split + 1  # the first line of the first child's block at --jobs split
        edits = {1: no_valid_future, first - 1: lambda doc: "{broken"}
        rc, err = self.errors_at_jobs(capsys, *edited_corpus(tmp_path, edits))
        assert rc == 1
        assert err.startswith(f"error: line {first}: ")
        assert "skipped" not in err

    def test_lowest_bad_line_is_reported_at_any_jobs(self, tmp_path, capsys):
        # Lines 150 and 151 both lie in the last child's block at two and at three jobs.
        edits = {149: lambda doc: "{broken", 150: lambda doc: '{"scenario_id": 3}'}
        rc, err = self.errors_at_jobs(capsys, *edited_corpus(tmp_path, edits))
        assert rc == 1
        assert err.startswith("error: line 150: ")
        assert err.count("\n") == 1

    def test_a_horizon_error_names_its_line_and_field_path(self, tmp_path, capsys):
        def one_observed_step(doc: dict) -> str:
            doc["horizon"]["t_obs"] = 1
            return json.dumps(doc)

        rc, err = self.errors_at_jobs(capsys, *edited_corpus(tmp_path, {119: one_observed_step}))
        assert rc == 1
        assert err == (
            "error: line 120: scenario synth-000119.horizon: t_obs must be >= 2 (heading inference needs two points)\n"
        )


class TestMutatedAgentLine:
    """Four scenario lines with one agent of line 3 edited, run through ``extract`` in process. At
    --jobs 2 the parent runs lines 1-2 and the child lines 3-4, so the edited line crosses a process
    boundary; the outcome must not depend on it."""

    def test_an_unknown_agent_kind_names_its_line_and_field_path(self, tmp_path, capsys):
        src = tmp_path / "corpus.jsonl"
        assert run("synth", "--n", "4", "--seed", "5", "--out", str(src)) == 0
        lines = src.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["agents"][0]["agent_kind"] = "robot"
        lines[2] = json.dumps(doc)
        src.write_text("".join(line + "\n" for line in lines))
        for jobs in ("1", "2"):
            assert run("extract", str(src), "--out", str(tmp_path / "o.jsonl"), "--jobs", jobs) == 1
            err = capsys.readouterr().err
            assert err == "error: line 3: scenario synth-000002.agents[0]: unknown agent_kind 'robot'\n"

    # Lines 1, 2 and 4: scenarios that extract labels, so the output bytes are compared too.
    LABELLED = [
        serialize_scenario(gen_scenario(SynthSpec(kind="straight", speed=10.0), f"s{i}", H)[0]) for i in (0, 1, 3)
    ]

    @given(three_agent_docs(), st.integers(min_value=0, max_value=2), agent_mutations())
    @settings(max_examples=60, deadline=None)
    def test_one_mutation_gives_the_same_outcome_at_one_and_two_jobs(self, doc, k, mutation):
        _, edit = mutation
        doc["agents"][k] = edit(doc["agents"][k])
        lines = self.LABELLED[:2] + [json.dumps(dict(doc, scenario_id="s2"))] + self.LABELLED[2:]
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:  # not tmp_path: hypothesis rejects function-scoped fixtures
            src = Path(tmp) / "corpus.jsonl"
            src.write_text("".join(line + "\n" for line in lines))
            for jobs in ("1", "2"):
                out, err = Path(tmp) / f"o{jobs}.jsonl", io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main(["extract", str(src), "--out", str(out), "--jobs", jobs])
                outcomes.append((rc, err.getvalue(), out.read_bytes() if out.exists() else None))
        assert outcomes[0] == outcomes[1]
        rc, err, out = outcomes[0]
        assert rc in (0, 1)
        if rc == 1:
            assert err.startswith("error: line 3: ") and err.count("\n") == 1
        else:  # line 3 is labelled or skipped
            assert {json.loads(row)["scenario_id"] for row in out.splitlines()} - {"s2"} == {"s0", "s1", "s3"}


class TestForkJoinFailures:
    """Failures other than input errors at --jobs 2 on 12 lines: the parent runs lines 1-6 and one
    child lines 7-12. The parent raises, and no child process is left."""

    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert run("synth", "--n", "12", "--seed", "5", "--out", str(path)) == 0
        return path

    @staticmethod
    def fail_on_lines(monkeypatch, lines: set, fail) -> None:
        original = cli._extract_worker

        def worker(cfg, item):
            if item[0] in lines:
                fail(item)
            return original(cfg, item)

        monkeypatch.setattr(cli, "_extract_worker", worker)

    def test_a_child_exception_is_raised_in_the_parent(self, tmp_path, monkeypatch, capfd, src):
        def boom(item):
            raise ValueError(f"boom at line {item[0]}")

        self.fail_on_lines(monkeypatch, {10}, boom)
        for jobs in ("1", "2"):
            with pytest.raises(ValueError, match=r"^boom at line 10$"):
                run("extract", str(src), "--out", str(tmp_path / "o.jsonl"), "--jobs", jobs)
        assert capfd.readouterr().err == ""  # the child printed no traceback
        assert multiprocessing.active_children() == []

    def test_a_child_that_exits_without_sending_makes_the_parent_raise(self, tmp_path, monkeypatch, src):
        parent = os.getpid()

        def exit_in_child(item):
            if os.getpid() != parent:
                os._exit(1)

        self.fail_on_lines(monkeypatch, {10}, exit_in_child)
        with pytest.raises(RuntimeError, match=r"^the process for lines 7-12 exited with code 1 before sending"):
            run("extract", str(src), "--out", str(tmp_path / "o.jsonl"), "--jobs", "2")
        assert multiprocessing.active_children() == []

    def test_an_exception_in_the_parent_block_ends_the_running_child(self, tmp_path, monkeypatch, src, started):
        parent = os.getpid()

        def hang_in_child_fail_in_parent(item):
            if os.getpid() != parent:
                time.sleep(60)  # line 8: the child is still running when line 2 fails
            raise ValueError("parent block failed")

        self.fail_on_lines(monkeypatch, {2, 8}, hang_in_child_fail_in_parent)
        with pytest.raises(ValueError, match="^parent block failed$"):
            run("extract", str(src), "--out", str(tmp_path / "o.jsonl"), "--jobs", "2")
        assert [child.exitcode for child in started] == [-signal.SIGTERM]
        assert multiprocessing.active_children() == []


class TestSkipReasons:
    """The two skips that label no scenario: a focal track with fewer than two valid future
    points and one without a valid current pose."""

    @pytest.fixture
    def corpus_with_skips(self, tmp_path):
        docs = [
            json.loads(serialize_scenario(gen_scenario(SynthSpec(kind="straight", speed=10.0), f"s{i}", H)[0]))
            for i in range(6)
        ]
        for k in (1, 4):  # lines 2 and 5: one valid future point
            for point in docs[k]["agents"][0]["points"][H.t_obs + 1 :]:
                point["valid"] = False
        docs[2]["agents"][0]["points"][H.t_obs - 1]["valid"] = False  # line 3: no current pose
        src = tmp_path / "corpus.jsonl"
        src.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        return src

    @pytest.mark.parametrize(
        "command,kept,summary",
        [
            (
                "extract",
                ["s0", "s2", "s3", "s5"],
                "skipped 2 scenario(s): fewer than 2 valid future points (first at line 2)\n",
            ),
            (
                "feasibility",
                ["s0", "s3", "s5"],
                "skipped 2 scenario(s): fewer than 2 valid future points (first at line 2)\n"
                "skipped 1 scenario(s): no valid current pose (first at line 3)\n",
            ),
        ],
    )
    def test_skips_are_summarised_alike_at_any_jobs(self, tmp_path, capsys, corpus_with_skips, command, kept, summary):
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{command}-{jobs}.jsonl"
            assert run(command, str(corpus_with_skips), "--out", str(out), "--jobs", jobs) == 0
            runs.append((out.read_bytes(), capsys.readouterr().err))
        assert runs[0] == runs[1]
        assert runs[0][1] == summary
        assert [json.loads(line)["scenario_id"] for line in runs[0][0].splitlines()] == kept


class TestFeasibilityCmd:
    def test_reports_on_topologies(self, tmp_path):
        src = tmp_path / "s.jsonl"
        from motionkit.core import serialize_scenario

        lines = []
        for i, topo in enumerate(("single", "t_junction", "u_loop")):
            s, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), f"s{i}-{topo}", H, topology=topo)
            lines.append(serialize_scenario(s))
        src.write_text("".join(l + "\n" for l in lines))
        out = tmp_path / "feas.jsonl"
        assert run("feasibility", str(src), "--out", str(out)) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        by_id = {r["scenario_id"]: r for r in rows}
        assert by_id["s0-single"]["infeasible"] == ["Left", "LeftUTurn", "Right"]
        assert "Left" in by_id["s1-t_junction"]["feasible"]
        assert "LeftUTurn" in by_id["s2-u_loop"]["feasible"]


class TestGenInstructions:
    def test_seed_repeatability(self, tmp_path, corpus):
        corpus_path, _ = corpus
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert (
                run(
                    "gen-instructions",
                    str(corpus_path),
                    "--out",
                    str(out),
                    "--mix",
                    "0.7:0.3",
                    "--seed",
                    "99",
                    "--draws",
                    "300",
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_mix_ratio_within_tolerance(self, tmp_path, corpus):
        corpus_path, _ = corpus
        out = tmp_path / "rows.jsonl"
        assert (
            run(
                "gen-instructions",
                str(corpus_path),
                "--out",
                str(out),
                "--mix",
                "0.7:0.3",
                "--seed",
                "1",
                "--draws",
                "10000",
            )
            == 0
        )
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        gt = sum(1 for r in rows if r["feas_tag"] == "GT")
        assert abs(gt / len(rows) - 0.7) < 0.02

    def test_balanced_classes(self, tmp_path, corpus):
        corpus_path, _ = corpus
        out = tmp_path / "rows.jsonl"
        assert (
            run(
                "gen-instructions",
                str(corpus_path),
                "--out",
                str(out),
                "--mix",
                "1.0:0.0",
                "--balanced",
                "--seed",
                "2",
                "--draws",
                "5000",
            )
            == 0
        )
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        counts = {}
        for r in rows:
            counts[r["direction"]] = counts.get(r["direction"], 0) + 1
        values = np.array(list(counts.values()), dtype=float) / len(rows)
        assert np.all(np.abs(values - 1.0 / len(counts)) < 0.03)

    def test_behavior_mode(self, tmp_path):
        from motionkit.core import serialize_scenario

        src = tmp_path / "s.jsonl"
        s1, _ = gen_scenario(
            SynthSpec(kind="straight", speed=0.0), "s1", H, scenario_type="waiting_for_pedestrian_to_cross"
        )
        s2, _ = gen_scenario(
            SynthSpec(kind="straight", speed=10.0), "s2", H, scenario_type="traversing_intersection"
        )
        src.write_text(serialize_scenario(s1) + "\n" + serialize_scenario(s2) + "\n")
        out = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(src), "--out", str(out), "--mode", "behavior") == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["scenario_id"] for r in rows] == ["s1", "s2"]
        assert rows[0]["safety_tag"] == "Safe"
        assert rows[0]["behavior"] == "NotMoving"
        assert rows[1]["safety_tag"] == "Safe"
        assert rows[1]["behavior"] == "MaintainingSpeed"

    def test_unknown_scenario_type_names_its_line(self, tmp_path, capsys):
        lines = [
            serialize_scenario(gen_scenario(SynthSpec(kind="straight", speed=10.0), f"s{i}", H, scenario_type=t)[0])
            for i, t in enumerate(("traversing_intersection", "no_such_type"))
        ]
        src = tmp_path / "s.jsonl"
        src.write_text("".join(l + "\n" for l in lines))
        assert run("gen-instructions", str(src), "--out", str(tmp_path / "rows.jsonl"), "--mode", "behavior") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and "no_such_type" in err

    def test_behavior_skips_are_summarised_by_reason(self, tmp_path, corpus, capsys):
        corpus_path, _ = corpus
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["agents"][0]["agent_kind"] = "pedestrian"
        lines[2] = json.dumps(doc)
        src = tmp_path / "s.jsonl"
        src.write_text("".join(l + "\n" for l in lines))
        out = tmp_path / "rows.jsonl"
        for jobs in ("1", "2"):
            assert run("gen-instructions", str(src), "--out", str(out), "--mode", "behavior", "--jobs", jobs) == 0
            assert out.read_text() == ""
            assert capsys.readouterr().err == (
                "skipped 1 scenario(s): focal agent is not a vehicle (first at line 3)\n"
                f"skipped {len(lines) - 1} scenario(s): no scenario_type (first at line 1)\n"
            )

    def test_mix_with_behavior_mode_is_config_error(self, tmp_path, corpus):
        corpus_path, _ = corpus
        assert run("gen-instructions", str(corpus_path), "--mode", "behavior", "--mix", "0.7:0.3") == 2


class TestEvaluateCmd:
    def _build_eval_inputs(self, tmp_path, match_counts):
        from motionkit.core import serialize_scenario
        from motionkit.feasibility import feasibility_set
        from motionkit.instructions import build_direction_row

        corpus_lines = []
        row_lines = []
        pred_lines = []
        for i, matches in enumerate(match_counts):
            scenario, expected = gen_scenario(SynthSpec(kind="straight", speed=10.0), f"e{i:03d}", H)
            corpus_lines.append(serialize_scenario(scenario))
            row = build_direction_row(scenario, expected.direction, feasibility_set(scenario))
            row_lines.append(json.dumps(row.to_obj(), sort_keys=True))
            preds = gen_prediction_set(
                scenario.focal_track, expected.direction, match_count=matches, n_modes=6, horizon=H
            )
            pred_lines.append(
                json.dumps(
                    {
                        "scenario_id": scenario.scenario_id,
                        "direction": expected.direction.value,
                        "trajectories": preds.trajectories.tolist(),
                        "scores": preds.scores.tolist(),
                        "decision": "Accept",
                    }
                )
            )
        dataset = tmp_path / "rows.jsonl"
        predictions = tmp_path / "preds.jsonl"
        dataset.write_text("".join(l + "\n" for l in row_lines))
        predictions.write_text("".join(l + "\n" for l in pred_lines))
        return dataset, predictions

    def test_fig_style_triple(self, tmp_path):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        report_path = tmp_path / "report.json"
        assert (
            run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report_path))
            == 0
        )
        metrics = json.loads(report_path.read_text())["metrics"]
        assert metrics["ifr_micro"] == pytest.approx((1.0 + 2 / 6 + 1 / 6) / 3, abs=1e-9)
        assert metrics["min_ade"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["feas_accuracy"] == {"GT": 1.0}
        assert metrics["n_rows"] == 3

    def test_report_embeds_config_and_hashes(self, tmp_path):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6])
        report_path = tmp_path / "report.json"
        run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report_path))
        payload = json.loads(report_path.read_text())
        assert payload["config"]["direction"]["theta_s"] == 30.0
        assert len(payload["inputs"]["dataset"]["sha256"]) == 64

    def _evaluate_fails_on_line_2(self, tmp_path, capsys, dataset, predictions, where="dataset") -> str:
        """Exit 1 naming line 2 of ``where``, and its physical line 3 once a blank line precedes it."""
        report = tmp_path / "report.json"
        bad_file = dataset if where == "dataset" else predictions
        errs = []
        for lineno in (2, 3):
            argv = ("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report))
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {where} line {lineno}: ")
            assert "Traceback" not in err
            errs.append(err)
            bad_file.write_text("\n" + bad_file.read_text())
        return errs[0]

    def test_non_string_scenario_id_is_a_line_error(self, tmp_path, capsys):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        rows = dataset.read_text().splitlines()
        rows[1] = json.dumps(dict(json.loads(rows[1]), scenario_id=7))
        dataset.write_text("".join(l + "\n" for l in rows))
        assert "scenario_id must be a string" in self._evaluate_fails_on_line_2(tmp_path, capsys, dataset, predictions)

    def test_non_finite_gt_future_is_a_line_error(self, tmp_path, capsys):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        rows = dataset.read_text().splitlines()
        row = json.loads(rows[1])
        row["gt_future_xy"][3][0] = float("nan")
        rows[1] = json.dumps(row)
        dataset.write_text("".join(l + "\n" for l in rows))
        assert "gt_future_xy" in self._evaluate_fails_on_line_2(tmp_path, capsys, dataset, predictions)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda row: dict(row, gt_future_vaild=row["gt_future_valid"]), "unexpected field(s) ['gt_future_vaild']"),
            (lambda row: [1, 2], "dataset row must be an object"),
        ],
        ids=["unknown_field", "non_object"],
    )
    def test_unknown_or_non_object_row_is_a_line_error(self, tmp_path, capsys, change, message):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        rows = dataset.read_text().splitlines()
        rows[1] = json.dumps(change(json.loads(rows[1])))
        dataset.write_text("".join(l + "\n" for l in rows))
        assert self._evaluate_fails_on_line_2(tmp_path, capsys, dataset, predictions).endswith(f": {message}\n")

    @pytest.mark.parametrize("change,message", TWO_STEP_CASES, ids=["extra_key", "four_steps"])
    def test_bad_two_step_is_a_line_error(self, tmp_path, capsys, change, message):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        rows = dataset.read_text().splitlines()
        rows[1] = json.dumps(change(json.loads(rows[1])))
        dataset.write_text("".join(l + "\n" for l in rows))
        assert self._evaluate_fails_on_line_2(tmp_path, capsys, dataset, predictions).endswith(f": {message}\n")

    @pytest.mark.parametrize("field", ["trajectories", "scores"])
    def test_non_finite_prediction_is_a_line_error(self, tmp_path, capsys, field):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        preds = predictions.read_text().splitlines()
        pred = json.loads(preds[1])
        if field == "trajectories":
            pred["trajectories"][0][5][0] = float("nan")
        else:
            pred["scores"][2] = float("inf")
        preds[1] = json.dumps(pred)
        predictions.write_text("".join(l + "\n" for l in preds))
        assert f"{field} must hold finite numbers" in self._evaluate_fails_on_line_2(
            tmp_path, capsys, dataset, predictions, where="predictions"
        )
        # a prediction that pairs with no dataset row is validated all the same
        preds[1] = json.dumps(dict(pred, scenario_id="no-such-row"))
        predictions.write_text("".join(l + "\n" for l in preds))
        assert f"{field} must hold finite numbers" in self._evaluate_fails_on_line_2(
            tmp_path, capsys, dataset, predictions, where="predictions"
        )

    BAD_LINES = {
        "no_modes": "trajectories must be (M, T, 2) with M >= 1",
        "integer_too_large": "int too large to convert to float",
        "short_scores": "scores must have one entry per mode",
        "short_valid": "valid mask must be (M, T)",
        "string_valid": "valid mask must hold booleans",
        "short_gt_future": "gt_future_valid must be (T,)",
        "three_number_points": "gt_future_xy must be (T, 2)",
        "string_gt_future_valid": "gt_future_valid must hold booleans",
        "string_trajectory_number": "trajectories must hold finite numbers",
        "boolean_trajectory_number": "trajectories must hold finite numbers",
        "string_score": "scores must hold finite numbers",
        "boolean_gt_future_point": "gt_future_xy must hold finite numbers",
        "string_with_context": "with_context must be true, false or null",
        "string_gt_with_context": "with_context must be true, false or null",
        "string_gt_has_gt_trajectory": "has_gt_trajectory must be true or false",
        "duplicate_key": "duplicate key ('e000', 'Straight')",
    }

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_bad_shape_or_number_is_a_line_error(self, tmp_path, capsys, case):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        where = "dataset" if "gt_" in case or case == "three_number_points" else "predictions"
        bad_file = predictions if where == "predictions" else dataset
        lines = bad_file.read_text().splitlines()
        obj = json.loads(lines[1])
        if case == "no_modes":
            obj["trajectories"] = []
            del obj["scores"]
        elif case == "integer_too_large":
            obj["trajectories"][0][5][0] = 10**400
        elif case == "short_scores":
            obj["scores"] = obj["scores"][:-1]
        elif case == "short_valid":
            obj["valid"] = [[True] * (len(obj["trajectories"][0]) - 1)] * len(obj["trajectories"])
        elif case == "string_valid":
            obj["valid"] = [["no"] * len(mode) for mode in obj["trajectories"]]
        elif case == "short_gt_future":
            obj["gt_future_xy"] = obj["gt_future_xy"][:-1]
        elif case == "string_gt_future_valid":
            obj["gt_future_valid"] = ["false"] * len(obj["gt_future_xy"])
        elif case == "string_trajectory_number":
            obj["trajectories"][0][5][0] = "1.5"
        elif case == "boolean_trajectory_number":
            obj["trajectories"][0][5][0] = True
        elif case == "string_score":
            obj["scores"][0] = "1"
        elif case == "boolean_gt_future_point":
            obj["gt_future_xy"][3] = [True, False]
        elif case in ("string_with_context", "string_gt_with_context"):
            obj["with_context"] = "no"
        elif case == "string_gt_has_gt_trajectory":
            obj["has_gt_trajectory"] = "no"
        elif case == "duplicate_key":
            obj["scenario_id"] = json.loads(lines[0])["scenario_id"]
        else:
            obj["gt_future_xy"] = [p + [0.0] for p in obj["gt_future_xy"]]
        lines[1] = json.dumps(obj)
        bad_file.write_text("".join(l + "\n" for l in lines))
        err = self._evaluate_fails_on_line_2(tmp_path, capsys, dataset, predictions, where=where)
        assert self.BAD_LINES[case] in err

    def test_each_line_is_decoded_once(self, tmp_path, monkeypatch):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 2, 1])
        dataset.write_text(dataset.read_text() + "\n")
        decoded = collections.Counter()

        def counting_loads(text, *args, **kwargs):
            decoded[text] += 1
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(cli, "json", types.SimpleNamespace(**dict(vars(json), loads=counting_loads)))
        report = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report)) == 0
        lines = [l for path in (dataset, predictions) for l in path.read_text().splitlines() if l.strip()]
        assert decoded == collections.Counter(lines)
        assert sum(decoded.values()) == 6

    def test_whole_report_is_pinned(self, tmp_path):
        """Every metrics field on a mixed dataset: direction rows of each tag, safe and unsafe
        behavior rows with and without context, a row with no prediction, rows instructed
        from their GT future, a prediction with no valid step in common with its GT, and a
        mode with one valid step."""
        from motionkit.behavior import load_default_guidelines
        from motionkit.instructions import build_behavior_row, build_direction_rows

        straight = SynthSpec(kind="straight", speed=10.0)
        scenario, _ = gen_scenario(straight, "d0", H, topology="single")
        rows = {r.direction.value: r.to_obj() for r in build_direction_rows(scenario)}
        assert {d: r["feas_tag"] for d, r in rows.items()} == {
            "Straight": "GT", "Stationary": "F", "Left": "IF", "LeftUTurn": "IF", "Right": "IF"
        }
        gt = scenario.focal_track.xy[H.t_obs :]
        redirect = gen_prediction_set(scenario.focal_track, DirectionLabel.STRAIGHT, 0, 1, H).trajectories[0]
        one_step = np.zeros((4, H.t_pred), dtype=bool)
        one_step[:3] = True
        one_step[3, -1] = True  # where the redirected mode is far from the GT
        preds = [
            # 3 of 4 modes follow Straight, 1.25 m off the GT; the 4th has one valid step
            dict(
                direction="Straight", trajectories=[gt + [0.75, 1.0]] * 3 + [redirect], valid=one_step, decision="Accept"
            ),
            dict(direction="Stationary", trajectories=[gt], decision="Accept"),
            dict(direction="Left", trajectories=[gt], decision="Reject"),
            dict(direction="Right", trajectories=[gt, redirect], decision="Accept"),
            # LeftUTurn has no prediction
        ]
        preds = [dict(p, scenario_id="d0") for p in preds]

        book = load_default_guidelines()
        for sid, speed, scenario_type in (
            ("b-safe", 10.0, "traversing_intersection"),
            ("b-safe2", 10.0, "traversing_intersection"),
            ("b-unsafe", 0.0, "accelerating_at_crosswalk"),
            ("b-unsafe2", 0.0, "accelerating_at_crosswalk"),
        ):
            s, _ = gen_scenario(SynthSpec(kind="straight", speed=speed), sid, H, scenario_type=scenario_type)
            rows[sid] = build_behavior_row(s, book).to_obj()
        assert [rows[s]["safety_tag"] for s in ("b-safe", "b-unsafe")] == ["Safe", "Unsafe"]
        assert "direction" not in rows["b-safe"] and "gt_future_xy" not in rows["b-unsafe"]
        # the GT is valid only in its second half and the prediction only in its first
        half = H.t_pred // 2
        rows["b-safe"]["gt_future_valid"] = [False] * half + [True] * (H.t_pred - half)
        first_half = [[True] * half + [False] * (H.t_pred - half)] * 2
        safe_gt = rows["b-safe"]["gt_future_xy"]
        preds += [
            dict(
                scenario_id="b-safe", trajectories=[safe_gt] * 2, valid=first_half, decision="Accept", with_context=True
            ),
            dict(scenario_id="b-safe2", trajectories=[rows["b-safe2"]["gt_future_xy"]], decision="Reject"),
            dict(scenario_id="b-unsafe", trajectories=[safe_gt], decision="Reject", with_context=False),
            dict(scenario_id="b-unsafe2", trajectories=[safe_gt], decision="Accept", with_context=True),
        ]

        dataset, predictions, report = tmp_path / "rows.jsonl", tmp_path / "preds.jsonl", tmp_path / "report.json"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in rows.values()))
        predictions.write_text("".join(json.dumps(p, default=np.ndarray.tolist) + "\n" for p in preds))
        argv = ("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report))
        assert run(*argv) == 0
        metrics = json.loads(report.read_text())["metrics"]
        approx = {"ifr_micro", "ifr_macro", "per_class_ifr", "ifr_by_tag", "min_ade", "min_fde"}
        assert {k: v for k, v in metrics.items() if k not in approx} == {
            "classes_absent": ["LeftUTurn"],
            "feas_accuracy": {"F": 1.0, "GT": 1.0, "IF": 0.5},
            "safety_accuracy": {
                "safe_with_context": 1.0,
                "safe_without_context": 0.0,
                "unsafe_with_context": 0.0,
                "unsafe_without_context": 1.0,
            },
            "n_rows": 9,
            "n_scored": 6,  # five d0 rows but LeftUTurn, and the two safe rows
            "n_missing_predictions": 1,
            "n_unclassifiable": 1,
        }
        # Straight: d0 (3/4) and both safe rows, instructed from their GT futures (1 each)
        per_class = {"Left": 0.0, "Right": 0.0, "Stationary": 0.0, "Straight": (0.75 + 1 + 1) / 3}
        assert metrics["per_class_ifr"] == pytest.approx(per_class, abs=1e-12)
        assert metrics["ifr_by_tag"] == {"F": 0.0, "GT": 0.75, "IF": 0.0}
        assert metrics["ifr_micro"] == pytest.approx(2.75 / 6, abs=1e-12)
        assert metrics["ifr_macro"] == pytest.approx(sum(per_class.values()) / 4, abs=1e-12)
        # d0's best mode is 1.25 m off and b-safe2 replays its GT; b-safe shares no valid step
        assert metrics["min_ade"] == pytest.approx(0.625, abs=1e-9)
        assert metrics["min_fde"] == pytest.approx(0.625, abs=1e-9)

    def test_one_step_rows_are_unclassifiable(self, tmp_path):
        """A row whose two modes have one step each (one valid, one not) scores
        IFR 0 with both modes unclassifiable; a row without a direction and a
        one-step GT future has no instructed direction, so it is not scored."""
        common = dict(focal_agent_id="ego", instruction_text="-", caption_text="-", decision="Accept")
        common["has_gt_trajectory"] = True
        rows = [
            dict(common, scenario_id="a", feas_tag="GT", direction="Straight", gt_future_xy=[[0.0, 0.0]]),
            dict(common, scenario_id="b", safety_tag="Safe", gt_future_xy=[[1.0, 2.0]]),
        ]
        two_modes = [[[0.0, 0.0]], [[3.0, 4.0]]]
        preds = [
            dict(scenario_id="a", direction="Straight", trajectories=two_modes, valid=[[True], [False]]),
            dict(scenario_id="b", trajectories=[[[1.0, 2.0]]]),
        ]
        dataset, predictions, report = tmp_path / "rows.jsonl", tmp_path / "preds.jsonl", tmp_path / "report.json"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in rows))
        predictions.write_text("".join(json.dumps(p) + "\n" for p in preds))
        assert run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report)) == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert (metrics["n_rows"], metrics["n_scored"], metrics["n_unclassifiable"]) == (2, 1, 2)
        assert metrics["ifr_micro"] == 0.0
        assert (metrics["min_ade"], metrics["min_fde"]) == (0.0, 0.0)

    def test_jobs_identical_report(self, tmp_path):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 3, 2, 0])
        r1 = tmp_path / "r1.json"
        r8 = tmp_path / "r8.json"
        run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(r1), "--jobs", "1")
        run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(r8), "--jobs", "8")
        assert r1.read_bytes() == r8.read_bytes()


class TestMagnitudeLimit:
    """A finite number past ``core.MAX_ABS`` in a float column is a line error naming its
    field: it gives no label, no report and no overflow warning."""

    LIMIT = "of magnitude at most 1e+09"

    @pytest.mark.parametrize(
        "path,field,named",
        [
            (("agents", 0, "points", 40), "x", "agents[0].points[40]: field 'x'"),
            (("agents", 0, "points", 12), "y", "agents[0].points[12]: field 'y'"),
            (("agents", 0, "points", 12), "heading", "agents[0].points[12]: field 'heading'"),
            (("agents", 0, "points", 12), "speed", "agents[0].points[12]: field 'speed'"),
            (("lanes", 0, "centerline", 1), "y", "lanes[0].centerline[1]: field 'y'"),
            (("lanes", 0), "speed_limit_kmh", "lanes[0]: field 'speed_limit_kmh'"),
        ],
    )
    def test_scenario_number_past_the_limit(self, tmp_path, capsys, path, field, named):
        good, _ = gen_scenario(SynthSpec(kind="straight", speed=10.0), "s", H)
        doc = json.loads(serialize_scenario(good))
        target = doc
        for key in path:
            target = target[key]
        target[field] = 1.0e10
        src = tmp_path / "bad.jsonl"
        src.write_text(serialize_scenario(good) + "\n" + json.dumps(doc) + "\n")
        assert run("extract", str(src), "--out", str(tmp_path / "o.jsonl")) == 1
        assert capsys.readouterr().err == f"error: line 2: scenario s.{named} must be a finite number {self.LIMIT}\n"

    def test_huge_steps_give_no_label(self, tmp_path, capsys):
        """x of steps 40-90 of a left turn at +-1e308 once labelled LeftTurn and overflowed."""
        scenario, expected = gen_scenario(SynthSpec(kind="arc", speed=8.0, angle_deg=90.0), "s", H)
        assert expected.direction is DirectionLabel.LEFT
        doc = json.loads(serialize_scenario(scenario))
        for i, point in enumerate(doc["agents"][0]["points"][40:91]):
            point["x"] = 1e308 if i % 2 else -1e308
        src, out = tmp_path / "bad.jsonl", tmp_path / "o.jsonl"
        src.write_text(json.dumps(doc) + "\n")
        assert run("extract", str(src), "--out", str(out)) == 1
        named = "scenario s.agents[0].points[40]: field 'x'"
        assert capsys.readouterr().err == f"error: line 1: {named} must be a finite number {self.LIMIT}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "where,field", [("dataset", "gt_future_xy"), ("predictions", "trajectories"), ("predictions", "scores")]
    )
    @pytest.mark.parametrize("value", [1e308, -1.5e9])
    def test_evaluate_number_past_the_limit(self, tmp_path, capsys, where, field, value):
        """A GT point at [1e308, 1e308] once gave "min_ade": Infinity, which is not JSON."""
        dataset, predictions = TestEvaluateCmd()._build_eval_inputs(tmp_path, [6, 2, 1])
        path = dataset if where == "dataset" else predictions
        lines = path.read_text().splitlines()
        obj = json.loads(lines[0])
        if field == "gt_future_xy":
            obj[field][0] = [value, value]
        elif field == "trajectories":
            obj[field][2][7][1] = value
        else:
            obj[field][0] = value
        path.write_text("".join(line + "\n" for line in [json.dumps(obj)] + lines[1:]))
        report = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report)) == 1
        assert capsys.readouterr().err == f"error: {where} line 1: {field} must hold finite numbers {self.LIMIT}\n"
        assert not report.exists()
        if where == "dataset":
            assert run("stats", str(dataset), "--out", str(tmp_path / "stats.json")) == 1
            assert capsys.readouterr().err == f"error: line 1: {field} must hold finite numbers {self.LIMIT}\n"

    def test_numbers_at_the_limit_are_kept(self, tmp_path):
        dataset, predictions = TestEvaluateCmd()._build_eval_inputs(tmp_path, [6])
        row = json.loads(dataset.read_text())
        row["gt_future_xy"][-1] = [1e9, -1e9]
        dataset.write_text(json.dumps(row) + "\n")
        report = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report)) == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert 1e9 < metrics["min_fde"] < 2e9


class TestStatsCmd:
    def test_counts_sum_to_rows(self, tmp_path, corpus):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        out = tmp_path / "stats.json"
        assert run("stats", str(rows), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert sum(payload["direction_counts"].values()) == payload["total_rows"]
        assert sum(payload["feas_tag_counts"].values()) == payload["total_rows"]

    def test_bad_row_names_its_physical_line(self, tmp_path, capsys, corpus):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        good = rows.read_text().splitlines()[0]
        rows.write_text(good + "\n\n" + json.dumps(dict(json.loads(good), decision="Maybe")) + "\n")
        assert run("stats", str(rows), "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err.startswith("error: line 3: ")

    def test_string_validity_flags_are_a_line_error(self, tmp_path, capsys, corpus):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        good = next(json.loads(l) for l in rows.read_text().splitlines() if "gt_future_valid" in l)
        bad = dict(good, gt_future_valid=["false"] * len(good["gt_future_xy"]))
        rows.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert run("stats", str(rows), "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err.startswith("error: line 2: gt_future_valid must hold booleans")

    def test_string_with_context_is_a_line_error(self, tmp_path, capsys, corpus):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        good = json.loads(rows.read_text().splitlines()[0])
        rows.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, with_context="yes")) + "\n")
        assert run("stats", str(rows), "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err == "error: line 2: with_context must be true, false or null\n"

    def test_string_has_gt_trajectory_is_a_line_error(self, tmp_path, capsys, corpus):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        good = json.loads(rows.read_text().splitlines()[0])
        rows.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, has_gt_trajectory="no")) + "\n")
        assert run("stats", str(rows), "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err == "error: line 2: has_gt_trajectory must be true or false\n"

    def test_boolean_gt_future_point_is_a_line_error(self, tmp_path, capsys, corpus):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        good = next(json.loads(l) for l in rows.read_text().splitlines() if "gt_future_xy" in l)
        bad = dict(good, gt_future_xy=[[True, False]] + good["gt_future_xy"][1:])
        rows.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert run("stats", str(rows), "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err == "error: line 2: gt_future_xy must hold finite numbers\n"

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda row: dict(row, gt_future_vaild=row["gt_future_valid"]), "unexpected field(s) ['gt_future_vaild']"),
            (lambda row: [1, 2], "dataset row must be an object"),
        ],
        ids=["unknown_field", "non_object"],
    )
    def test_unknown_or_non_object_row_is_a_line_error(self, tmp_path, capsys, corpus, change, message):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        good = next(json.loads(l) for l in rows.read_text().splitlines() if "gt_future_valid" in l)
        rows.write_text(json.dumps(good) + "\n\n" + json.dumps(change(good)) + "\n")
        assert run("stats", str(rows), "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err == f"error: line 3: {message}\n"

    @pytest.mark.parametrize("change,message", TWO_STEP_CASES, ids=["extra_key", "four_steps"])
    def test_bad_two_step_is_a_line_error(self, tmp_path, capsys, corpus, change, message):
        corpus_path, _ = corpus
        rows = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(rows)) == 0
        good = next(json.loads(l) for l in rows.read_text().splitlines() if "two_step" in l)
        rows.write_text(json.dumps(good) + "\n" + json.dumps(change(good)) + "\n")
        assert run("stats", str(rows), "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err == f"error: line 2: {message}\n"

    def test_empty_dataset_all_zero(self, tmp_path):
        rows = tmp_path / "rows.jsonl"
        rows.write_text("")
        out = tmp_path / "stats.json"
        assert run("stats", str(rows), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["total_rows"] == 0
        assert payload["direction_counts"] == {}


class TestConfigHandling:
    def test_unknown_config_key_is_exit_2(self, tmp_path, corpus):
        corpus_path, _ = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"velocity": {}}))
        assert run("extract", str(corpus_path), "--config", str(cfg)) == 2

    def test_threshold_override_changes_labels(self, tmp_path, corpus):
        corpus_path, _ = corpus
        cfg = tmp_path / "cfg.json"
        # an absurdly wide straight band folds every turn into Straight
        cfg.write_text(json.dumps({"direction": {"theta_s": 179.0, "d_u": 1e9, "d_v": 1e9}}))
        out = tmp_path / "attrs.jsonl"
        assert run("extract", str(corpus_path), "--config", str(cfg), "--out", str(out)) == 0
        labels = {json.loads(l)["direction"] for l in out.read_text().splitlines()}
        assert labels <= {"Straight", "Stationary"}

    def test_collapse_override(self, tmp_path, corpus):
        corpus_path, _ = corpus
        cfg = tmp_path / "cfg.json"
        mapping = {f: "Straight" for f in (
            "Stationary", "Straight", "StraightVeerLeft", "StraightVeerRight",
            "LeftTurn", "RightTurn", "LeftUTurn", "RightUTurn",
        )}
        cfg.write_text(json.dumps({"direction_collapse": mapping}))
        out = tmp_path / "attrs.jsonl"
        assert run("extract", str(corpus_path), "--config", str(cfg), "--out", str(out)) == 0
        assert {json.loads(l)["direction"] for l in out.read_text().splitlines()} == {"Straight"}

    def test_bad_mix_flag(self, corpus):
        corpus_path, _ = corpus
        assert run("gen-instructions", str(corpus_path), "--mix", "nonsense") == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--mix", "1.5:-0.5"), "mixture fractions must lie in [0, 1]"),
            (("--mix", "0.6:0.6"), "gt_fraction + if_fraction must equal 1"),
            (("--mix", "0.7:0.3", "--draws", "-4"), "--draws must be >= 0"),
            (("--draws", "3"), "--draws applies only with --mix"),
            (("--seed", "4"), "--seed applies only with --mix"),
            (("--no-balanced",), "--balanced/--no-balanced applies only with --mix"),
            (("--mode", "behavior", "--seed", "4"), "--seed applies only with --mix"),
            (("--jobs", "0"), "--jobs must be >= 1"),
        ],
    )
    def test_out_of_range_sampling_flags(self, tmp_path, capsys, corpus, flags, message):
        corpus_path, _ = corpus
        out = tmp_path / "rows.jsonl"
        assert run("gen-instructions", str(corpus_path), "--out", str(out), *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    BANDS = "thresholds must be 4 finite, strictly increasing numbers, got"

    @pytest.mark.parametrize(
        "obj,message",
        [
            ({"horizon": 5}, "horizon: must be an object"),
            ({"feasibility": 3}, "feasibility: must be an object"),
            ({"direction": "x"}, "direction: must be an object"),
            ({"direction_collapse": ["Straight"]}, "direction_collapse: must be an object"),
            ({"horizon": {"t_select": 5}}, "horizon: t_select must be a list of integers, got 5"),
            ({"horizon": {"t_select": ""}}, 'horizon: t_select must be a list of integers, got ""'),
            ({"speed_thresholds_kmh": 5}, f"speed {BANDS} 5"),
            ({"speed_thresholds_kmh": ["a", "b", "c", "d"]}, f"speed {BANDS} ['a', 'b', 'c', 'd']"),
            ({"speed_thresholds_kmh": [120, 90, 40, 20]}, f"speed {BANDS} [120, 90, 40, 20]"),
            ({"speed_thresholds_kmh": [20, 40, 90]}, f"speed {BANDS} [20, 40, 90]"),
            ({"accel_thresholds_kmh": [6, 25, 25, 65]}, f"acceleration {BANDS} [6, 25, 25, 65]"),
            ({"accel_thresholds_kmh": [6, 25, 46, True]}, f"acceleration {BANDS} [6, 25, 46, True]"),
            ({"accel_thresholds_kmh": [6, 25, 46, float("inf")]}, f"acceleration {BANDS} [6, 25, 46, inf]"),
            ({"accel_thresholds_kmh": [6, 25, 46, 10**400]}, f"acceleration {BANDS} [6, 25, 46, {10**400}]"),
            ({"sampler": {"gt_fraction": 0.7, "if_fraction": 0.3}}, "sampler: unknown key(s) ['gt_fraction', 'if_fraction']"),
            (
                {"direction_collapse": {"Sideways": "Straight"}},
                "direction_collapse: 'Sideways' is not a valid FineDirection",
            ),
            (
                {"direction_collapse": {"Straight": "Straight"}},
                "direction_collapse must map all fine classes; missing ['LeftTurn', 'LeftUTurn', 'RightTurn', "
                "'RightUTurn', 'Stationary', 'StraightVeerLeft', 'StraightVeerRight']",
            ),
            ({"guidelines": 5}, "guidelines must be a path string"),
        ],
        ids=[
            "horizon_number",
            "feasibility_number",
            "direction_string",
            "collapse_list",
            "t_select_number",
            "t_select_empty_string",
            "speed_number",
            "speed_strings",
            "speed_decreasing",
            "speed_three",
            "accel_repeated",
            "accel_boolean",
            "accel_infinite",
            "accel_too_large_for_a_float",
            "sampler_mixture_fractions",
            "collapse_unknown_class",
            "collapse_missing_class",
            "guidelines_number",
        ],
    )
    def test_config_of_the_wrong_type_is_exit_2(self, tmp_path, capsys, obj, message):
        cfg, src, out = tmp_path / "cfg.json", tmp_path / "empty.jsonl", tmp_path / "attrs.jsonl"
        cfg.write_text(json.dumps(obj))
        src.write_text("")
        assert run("extract", str(src), "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,obj,message",
        [
            ("extract", {"direction": {"theta_s": True}}, "direction: theta_s must be a number, got true"),
            ("feasibility", {"feasibility": {"max_range_m": True}}, "feasibility: max_range_m must be a number, got true"),
            (
                "feasibility",
                {"feasibility": {"allow_neighbor_transitions": 0}},
                "feasibility: allow_neighbor_transitions must be true or false, got 0",
            ),
            ("stats", {"jobs": True}, "jobs must be a positive integer"),
            ("stats", {"sampler": {"class_balanced": 1}}, "sampler: class_balanced must be true or false, got 1"),
            ("stats", {"sampler": {"seed": False}}, "sampler: seed must be an integer, got false"),
            ("stats", {"horizon": {"dt": True}}, "horizon: dt must be a number, got true"),
            ("stats", {"horizon": {"t_pred": 80.0}}, "horizon: t_pred must be an integer, got 80.0"),
            ("stats", {"horizon": {"t_select": [29, True]}}, "horizon: t_select must be a list of integers, got [29, true]"),
            (
                "stats",
                {"direction": {"theta_s": math.nan}, "behavior": {"v_stop": math.inf}},
                "direction: theta_s must be a number, got NaN",
            ),
            ("stats", {"behavior": {"v_stop": math.inf}}, "behavior: v_stop must be a number, got Infinity"),
            ("extract", {"direction": {"theta_s": 10**400}}, f"direction: theta_s must be a number, got {10**400}"),
        ],
        ids=[
            "theta_s_boolean",
            "range_boolean",
            "flag_number",
            "jobs_boolean",
            "sampler_flag_number",
            "seed_boolean",
            "dt_boolean",
            "t_pred_float",
            "t_select_boolean",
            "theta_s_nan",
            "v_stop_infinity",
            "theta_s_too_large_for_a_float",
        ],
    )
    def test_config_value_of_the_wrong_json_type_is_exit_2(self, tmp_path, capsys, command, obj, message):
        cfg, src, out = tmp_path / "cfg.json", tmp_path / "empty.jsonl", tmp_path / "out"
        cfg.write_text(json.dumps(obj))
        src.write_text("")
        assert run(command, str(src), "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "cannot read config file {path}: [Errno 2] No such file or directory: '{path}'"),
            (b"{", "config file {path} is not valid JSON: Expecting property name enclosed in double quotes"),
            (b"[1, 2]", "config file {path} must hold a JSON object"),
            (
                b"\xff\xfe{}",
                "cannot read config file {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
        ids=["missing", "not_json", "not_an_object", "not_utf8"],
    )
    def test_config_file_that_is_not_a_json_object_is_exit_2(self, tmp_path, capsys, content, message):
        cfg, src, out = tmp_path / "cfg.json", tmp_path / "empty.jsonl", tmp_path / "attrs.jsonl"
        if content is not None:
            cfg.write_bytes(content)
        src.write_text("")
        assert run("extract", str(src), "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message.format(path=cfg)}")
        assert not out.exists()

    def test_integers_are_numbers_in_config(self, tmp_path):
        cfg, src, out = tmp_path / "cfg.json", tmp_path / "empty.jsonl", tmp_path / "stats.json"
        cfg.write_text(json.dumps({"direction": {"theta_s": 45}, "horizon": {"dt": 1}}))
        src.write_text("")
        assert run("stats", str(src), "--config", str(cfg), "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["direction"]["theta_s"] == 45

    def test_negative_synth_count(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert run("synth", "--n", "-3", "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: --n must be >= 0\n"
        assert not out.exists()

    def test_unknown_synth_suite(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert run("synth", "--suite", "other", "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: unknown suite 'other'\n"
        assert not out.exists()


class TestInputThatIsNotUtf8:
    """A file that is not UTF-8 is an input error naming the file, for each reader of input files."""

    MESSAGE = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("extract", "{bad}", "--out", "{out}"),
            ("stats", "{bad}", "--out", "{out}"),
            ("evaluate", "--dataset", "{empty}", "--predictions", "{bad}", "--report", "{out}"),
            ("gen-instructions", "{empty}", "--mode", "behavior", "--guidelines", "{bad}", "--out", "{out}"),
        ],
        ids=["scenario_corpus", "report_input", "predictions", "guidelines"],
    )
    def test_is_an_input_error(self, tmp_path, capsys, argv):
        paths = {"bad": tmp_path / "utf16.json", "empty": tmp_path / "empty.jsonl", "out": tmp_path / "out"}
        paths["bad"].write_bytes("\ufeff{}\n".encode("utf-16-le"))  # starts with the bytes ff fe
        paths["empty"].write_text("")
        assert run(*(arg.format(**paths) for arg in argv)) == 1
        assert capsys.readouterr().err == f"error: cannot read {paths['bad']}: {self.MESSAGE}"
        assert not paths["out"].exists()


# Veers fold onto Left/Right, and the speed and acceleration bands move.
NON_DEFAULT_RULES = {
    "direction_collapse": {
        "Stationary": "Stationary",
        "Straight": "Straight",
        "StraightVeerLeft": "Left",
        "StraightVeerRight": "Right",
        "LeftTurn": "Left",
        "RightTurn": "Right",
        "LeftUTurn": "LeftUTurn",
        "RightUTurn": "Right",
    },
    "speed_thresholds_kmh": [15.0, 30.0, 60.0, 100.0],
    "accel_thresholds_kmh": [4.0, 15.0, 35.0, 55.0],
}


class TestCrossCommandAgreement:
    def test_commands_agree_under_non_default_rules(self, tmp_path, corpus):
        corpus_path, _ = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(NON_DEFAULT_RULES))

        def rows(command: str) -> list[dict]:
            out = tmp_path / f"{command}.jsonl"
            assert run(command, str(corpus_path), "--config", str(cfg), "--out", str(out), "--jobs", "2") == 0
            return [json.loads(l) for l in out.read_text().splitlines()]

        extract = {r["scenario_id"]: r for r in rows("extract")}
        feasibility = {r["scenario_id"]: r["gt_direction"] for r in rows("feasibility")}
        gt_rows = {r["scenario_id"]: r for r in rows("gen-instructions") if r["feas_tag"] == "GT"}
        assert set(extract) == set(feasibility) == set(gt_rows)
        assert any(r["fine_direction"].startswith("StraightVeer") for r in extract.values())

        for sid, attrs in extract.items():
            assert attrs["direction"] == feasibility[sid] == gt_rows[sid]["direction"], sid
            assert attrs["two_step"] == gt_rows[sid]["two_step"], sid

        rules = load_config(str(cfg)).rules
        for sid, gt in gt_rows.items():
            xy, valid = np.asarray(gt["gt_future_xy"]), np.asarray(gt["gt_future_valid"])
            assert classify_prediction(xy[None], valid[None], H.dt, rules)[0].value == extract[sid]["direction"], sid

        # evaluate labels predictions the same way: replaying each GT future
        # follows the GT instruction, so every scenario scores 1.
        dataset = tmp_path / "gt_rows.jsonl"
        predictions = tmp_path / "preds.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in gt_rows.values()))
        predictions.write_text(
            "".join(
                json.dumps({"scenario_id": sid, "trajectories": [r["gt_future_xy"]], "valid": [r["gt_future_valid"]]})
                + "\n"
                for sid, r in gt_rows.items()
            )
        )
        report = tmp_path / "report.json"
        argv = ["--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report)]
        assert run("evaluate", *argv, "--config", str(cfg), "--jobs", "2") == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert metrics["n_scored"] == len(extract)
        assert metrics["ifr_micro"] == 1.0
