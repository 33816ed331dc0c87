"""End-to-end command tests: pipelines, determinism, exit codes."""

import json

import numpy as np
import pytest

from motionkit.cli import main
from motionkit.config import load_config
from motionkit.core import HorizonConfig, serialize_scenario
from motionkit.metrics import classify_prediction
from motionkit.synth import SynthSpec, gen_prediction_set, gen_scenario

H = HorizonConfig()


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    expected = tmp_path / "expected.jsonl"
    assert run("synth", "--n", "40", "--seed", "5", "--out", str(path), "--expected", str(expected)) == 0
    return path, expected


class TestSynthAndExtract:
    def test_extract_matches_expected_sidecar(self, tmp_path, corpus):
        corpus_path, expected_path = corpus
        out = tmp_path / "attrs.jsonl"
        assert run("extract", str(corpus_path), "--out", str(out)) == 0
        got = {json.loads(l)["scenario_id"]: json.loads(l) for l in out.read_text().splitlines()}
        want = {json.loads(l)["scenario_id"]: json.loads(l) for l in expected_path.read_text().splitlines()}
        assert set(got) == set(want)
        for sid, exp in want.items():
            for key in ("fine_direction", "direction", "speed", "acceleration"):
                assert got[sid][key] == exp[key], (sid, key)

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

    def test_lowest_bad_line_is_reported_at_any_jobs(self, tmp_path, capsys):
        src = tmp_path / "corpus.jsonl"
        assert run("synth", "--n", "160", "--seed", "3", "--out", str(src)) == 0
        lines = src.read_text().splitlines()
        chunk = len(lines) // (2 * 8)  # the pool's chunk size at --jobs 2
        lines[chunk - 1] = "{broken"  # last line of the first chunk
        lines[chunk] = '{"scenario_id": 3}'  # first line of the second chunk
        src.write_text("".join(l + "\n" for l in lines))
        errs = []
        for jobs in ("1", "2"):
            assert run("extract", str(src), "--out", str(tmp_path / "o.jsonl"), "--jobs", jobs) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: line {chunk}: ")

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
        assert run("gen-instructions", str(src), "--out", str(out), "--mode", "behavior", "--jobs", "2") == 0
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
        from motionkit.instructions import build_direction_row

        corpus_lines = []
        row_lines = []
        pred_lines = []
        for i, matches in enumerate(match_counts):
            scenario, expected = gen_scenario(SynthSpec(kind="straight", speed=10.0), f"e{i:03d}", H)
            corpus_lines.append(serialize_scenario(scenario))
            row = build_direction_row(scenario, expected.direction)
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

    def _evaluate_fails_on_line_2(self, tmp_path, capsys, dataset, predictions) -> str:
        report = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(report)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset line 2: ")
        assert "Traceback" not in err
        return err

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
            tmp_path, capsys, dataset, predictions
        )

    def test_jobs_identical_report(self, tmp_path):
        dataset, predictions = self._build_eval_inputs(tmp_path, [6, 3, 2, 0])
        r1 = tmp_path / "r1.json"
        r8 = tmp_path / "r8.json"
        run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(r1), "--jobs", "1")
        run("evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--report", str(r8), "--jobs", "8")
        assert r1.read_bytes() == r8.read_bytes()


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
            assert classify_prediction(xy, valid, H.dt, rules).value == extract[sid]["direction"], sid

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
