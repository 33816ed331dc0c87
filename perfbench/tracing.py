"""In-memory span tracer for the traced run, and the per-layer metrics it yields.

The tracer wraps public functions of the package from the outside: each
wrapper is rebound in every ``motionkit`` module that holds the original
object, so calls made through ``from .x import f`` names are traced too. No
package source is edited. Spans stay in a list until the run ends.

A span is ``[name, start_ns, end_ns, parent, request, count]``. ``parent`` is
the index of the span that was open when it started (-1 for a root), and
``request`` names the CLI invocation it belongs to (``"extract#0"``). A
layer's self time is its span's duration minus the durations of its direct
child spans; since children nest inside their parent, the self times of one
request add up to its root span's duration.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

NAME, START, END, PARENT, REQUEST, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: Optional[str] = None
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None, eager: bool = False) -> Callable:
        """``fn`` recording one span per call. ``count(args, result)`` stores a
        per-call count; ``eager`` drains a returned iterator inside the span."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, result)
            return iter(result) if eager else result

        return traced

    @contextmanager
    def root(self, name: str, request: str):
        """A root span around one CLI invocation."""
        self.request = request
        rec = [name, 0, 0, -1, request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()
            self.request = None

    # -- installing wrappers ------------------------------------------------------

    def _rebind(self, original: object, wrapper: object) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "motionkit" or mod_name.startswith("motionkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`; absent targets are listed in ``missing``."""
        import importlib
        import json

        self.missing = []
        for span_name, module_name, attr, count, eager in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None)
            if owner is None or (method and method not in vars(owner)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if method:  # a method or classmethod on a class
                raw = vars(owner)[method]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self.wrap(span_name, fn, count, eager)
                self._restore.append((owner, method, raw))
                setattr(owner, method, classmethod(wrapped) if is_cm else wrapped)
            else:
                self._rebind(owner, self.wrap(span_name, owner, count, eager))
        cli = sys.modules["motionkit.cli"]
        if getattr(cli, "json", None) is json:
            proxy = type(sys)("json_traced")
            proxy.__dict__.update(vars(json))
            proxy.loads = self.wrap("json.loads", json.loads)
            proxy.dumps = self.wrap("json.dumps", json.dumps)
            self._restore.append((cli, "json", json))
            cli.json = proxy

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def _points(args, scenario) -> Optional[int]:
    try:
        return sum(len(a.xy) for a in scenario.agents) + sum(len(lane.xy) for lane in scenario.lanes)
    except (AttributeError, TypeError):
        return None


# (span name, module, attribute, count hook, eager). The span name's first
# component is the layer. Private CLI helpers are wrapped only to mark the
# per-scenario unit of work (``cli.worker``) and the evaluate aggregation.
TARGETS: tuple = (
    ("core.parse_scenario", "motionkit.core", "parse_scenario", _points, False),
    ("core.serialize_scenario", "motionkit.core", "serialize_scenario", None, False),
    ("attributes.extract_motion_attributes", "motionkit.attributes", "extract_motion_attributes", None, False),
    ("attributes.classify_two_step", "motionkit.attributes", "classify_two_step", None, False),
    ("attributes.classify_direction_fine", "motionkit.attributes", "classify_direction_fine", None, False),
    ("feasibility.associate_lanes", "motionkit.feasibility", "associate_lanes", None, False),
    ("feasibility.enumerate_candidates", "motionkit.feasibility", "enumerate_candidates", lambda a, r: len(r), False),
    ("feasibility.feasibility_set", "motionkit.feasibility", "feasibility_set", lambda a, r: len(r.feasible) + 1, False),
    ("geometry.point_along_polyline", "motionkit.geometry", "point_along_polyline", None, False),
    ("geometry.rotate_into_frame", "motionkit.geometry", "rotate_into_frame", None, False),
    ("behavior.classify_behavior", "motionkit.behavior", "classify_behavior", None, False),
    ("behavior.label_safety", "motionkit.behavior", "label_safety", None, False),
    ("instructions.build_direction_rows", "motionkit.instructions", "build_direction_rows", None, False),
    ("instructions.build_behavior_row", "motionkit.instructions", "build_behavior_row", None, False),
    ("instructions.to_obj", "motionkit.instructions", "InstructionRecord.to_obj", None, False),
    ("instructions.from_obj", "motionkit.instructions", "InstructionRecord.from_obj", None, False),
    ("instructions.sample_training_mix", "motionkit.instructions", "sample_training_mix", lambda a, r: (len(a[0]), len(r)), True),
    ("metrics.ifr_scenario", "motionkit.metrics", "ifr_scenario", None, False),
    ("metrics.classify_prediction", "motionkit.metrics", "classify_prediction", None, False),
    ("metrics.min_ade", "motionkit.metrics", "min_ade", None, False),
    ("metrics.min_fde", "motionkit.metrics", "min_fde", None, False),
    ("metrics.prediction_set", "motionkit.cli", "_parse_prediction", None, False),
    ("metrics.aggregate", "motionkit.cli", "_aggregate", None, False),
    ("synth.default_suite", "motionkit.synth", "default_suite", lambda a, r: len(r), False),
    ("synth.build_corpus", "motionkit.synth", "build_corpus", lambda a, r: len(r), False),
    ("synth.gen_prediction_set", "motionkit.synth", "gen_prediction_set", None, False),
    ("cli.worker", "motionkit.cli", "_extract_worker", None, False),
    ("cli.worker", "motionkit.cli", "_feasibility_worker", None, False),
    ("cli.worker", "motionkit.cli", "_gen_worker", None, False),
    ("cli.worker", "motionkit.cli", "_evaluate_worker", None, False),
)

COMMANDS = ("synth", "extract", "feasibility", "gen-instructions", "evaluate", "stats")
LAYERS = ("core", "attributes", "feasibility", "geometry", "behavior", "instructions", "metrics", "synth", "cli", "json")

# Every per-layer metric: (name, unit, better). Times are microseconds per
# scenario or row unless the name says otherwise.
PER_LAYER: tuple = (
    ("core.json_decode.us", "us", "lower"),
    ("core.parse_scenario.self_us", "us", "lower"),
    ("core.parse_scenario.self_us.p99", "us", "lower"),
    ("core.points_per_scen", "count", "lower"),
    ("core.serialize_scenario.us", "us", "lower"),
    ("attributes.extract_motion_attributes.self_us", "us", "lower"),
    ("attributes.extract_motion_attributes.self_us.p99", "us", "lower"),
    ("attributes.classify_two_step.us", "us", "lower"),
    ("attributes.classify_direction_fine.calls_per_scen", "count", "lower"),
    ("feasibility.associate_lanes.us", "us", "lower"),
    ("feasibility.enumerate_candidates.self_us", "us", "lower"),
    ("feasibility.enumerate_candidates.self_us.p99", "us", "lower"),
    ("feasibility.feasibility_set.self_us", "us", "lower"),
    ("feasibility.feasibility_set.self_us.p99", "us", "lower"),
    ("feasibility.candidates_per_scen", "count", "lower"),
    ("feasibility.labels_per_candidate", "ratio", "higher"),
    ("geometry.point_along_polyline.calls_per_scen", "count", "lower"),
    ("geometry.rotate_into_frame.calls_per_scen", "count", "lower"),
    ("behavior.classify_behavior.us", "us", "lower"),
    ("behavior.label_safety.us", "us", "lower"),
    ("instructions.build_direction_rows.self_us", "us", "lower"),
    ("instructions.build_direction_rows.self_us.p99", "us", "lower"),
    ("instructions.build_behavior_row.self_us", "us", "lower"),
    ("instructions.build_behavior_row.self_us.p99", "us", "lower"),
    ("instructions.to_obj_dumps.us", "us", "lower"),
    ("instructions.sample_training_mix.us", "us", "lower"),
    ("instructions.sample_keep_ratio", "ratio", "higher"),
    ("instructions.from_obj.us", "us", "lower"),
    ("metrics.prediction_set.us", "us", "lower"),
    ("metrics.ifr_scenario.self_us", "us", "lower"),
    ("metrics.ifr_scenario.self_us.p99", "us", "lower"),
    ("metrics.classify_prediction.calls_per_row", "count", "lower"),
    ("metrics.min_ade.us", "us", "lower"),
    ("metrics.min_fde.us", "us", "lower"),
    ("metrics.aggregate.us", "us", "lower"),
    ("synth.default_suite.us_per_scen", "us", "lower"),
    ("synth.build_corpus.us_per_scen", "us", "lower"),
    ("synth.gen_prediction_set.us", "us", "lower"),
    *((f"cli.{c.replace('-', '_')}.self_us", "us", "lower") for c in COMMANDS),
    ("cli.json_loads_per_line", "count", "lower"),
    ("cli.shard.speedup_jN", "ratio", "higher"),
    ("cli.shard.bytes_moved_per_scen", "B", "lower"),
    ("json.loads.us", "us", "lower"),
    *((f"share.{layer}", "ratio", "lower") for layer in LAYERS),
    *((f"trace.coverage.{c.replace('-', '_')}", "ratio", "higher") for c in COMMANDS),
    *((f"trace.overhead.{c.replace('-', '_')}", "ratio", "lower") for c in COMMANDS),
)


# -- analysis ---------------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Per-span duration minus the summed durations of its direct children."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def coverage(spans: list[list], selfs: list[int], requests: set, wall_ns: int) -> float:
    """Sum of the self times of the spans of ``requests`` over their measured wall time."""
    if not wall_ns:
        return 0.0
    return sum(s for rec, s in zip(spans, selfs) if rec[REQUEST] in requests) / wall_ns


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)])


def command_of(request: Optional[str]) -> str:
    return (request or "").partition("#")[0]


def layer_metrics(spans: list[list], walls: dict[str, int], extra: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from the spans of a traced run.

    ``walls`` maps each traced request to its measured wall time in ns.
    ``extra`` carries what the spans cannot give: separately timed decode
    samples, untraced wall times, item and line counts per command.
    """
    selfs = self_times(spans)
    # unit[i]: the enclosing cli.worker span (one scenario or row), else the span itself.
    unit = list(range(len(spans)))
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if rec[NAME] != "cli.worker" and p >= 0 and spans[unit[p]][NAME] == "cli.worker":
            unit[i] = unit[p]
    in_cmd = [command_of(rec[REQUEST]) in COMMANDS for rec in spans]

    def idx(name: str, commands: Optional[tuple] = None, any_request: bool = False) -> list[int]:
        return [
            i
            for i, rec in enumerate(spans)
            if rec[NAME] == name
            and (any_request or in_cmd[i])
            and (commands is None or command_of(rec[REQUEST]) in commands)
        ]

    def dur(i: int) -> int:
        return spans[i][END] - spans[i][START]

    def per_unit(name: str, use_self: bool) -> list[float]:
        acc: dict[int, int] = {}
        for i in idx(name):
            acc[unit[i]] = acc.get(unit[i], 0) + (selfs[i] if use_self else dur(i))
        return [v / 1e3 for v in acc.values()]

    def per_call_us(name: str, any_request: bool = False) -> float:
        return _median([dur(i) / 1e3 for i in idx(name, any_request=any_request)])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    n_scen = len(idx("core.parse_scenario"))
    for name in (
        "core.parse_scenario",
        "attributes.extract_motion_attributes",
        "feasibility.enumerate_candidates",
        "feasibility.feasibility_set",
        "instructions.build_direction_rows",
        "instructions.build_behavior_row",
        "metrics.ifr_scenario",
    ):
        values = per_unit(name, use_self=True)
        m[f"{name}.self_us"] = _median(values)
        m[f"{name}.self_us.p99"] = _p99(values)

    m["core.json_decode.us"] = _median(extra.get("json_decode_us", []))
    points = [spans[i][COUNT] for i in idx("core.parse_scenario") if spans[i][COUNT] is not None]
    m["core.points_per_scen"] = ratio(sum(points), len(points))
    m["core.serialize_scenario.us"] = per_call_us("core.serialize_scenario", any_request=True)

    m["attributes.classify_two_step.us"] = per_call_us("attributes.classify_two_step")
    m["attributes.classify_direction_fine.calls_per_scen"] = ratio(len(idx("attributes.classify_direction_fine")), n_scen)

    m["feasibility.associate_lanes.us"] = per_call_us("feasibility.associate_lanes")
    cands = [spans[i][COUNT] for i in idx("feasibility.enumerate_candidates")]
    m["feasibility.candidates_per_scen"] = ratio(sum(cands), len(cands))
    labels = sum(spans[i][COUNT] for i in idx("feasibility.feasibility_set"))
    m["feasibility.labels_per_candidate"] = ratio(labels, sum(cands))
    m["geometry.point_along_polyline.calls_per_scen"] = ratio(len(idx("geometry.point_along_polyline")), n_scen)
    m["geometry.rotate_into_frame.calls_per_scen"] = ratio(len(idx("geometry.rotate_into_frame")), n_scen)

    m["behavior.classify_behavior.us"] = per_call_us("behavior.classify_behavior")
    m["behavior.label_safety.us"] = per_call_us("behavior.label_safety")

    # to_obj + json.dumps of each written row: both are direct children of the
    # gen-instructions root span, called alternately.
    def under_root(i: int) -> bool:
        return spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][PARENT] == -1

    gen = ("gen-instructions",)
    to_obj = [i for i in idx("instructions.to_obj", gen) if under_root(i)]
    dumps = [i for i in idx("json.dumps", gen) if under_root(i)]
    m["instructions.to_obj_dumps.us"] = _median([(dur(a) + dur(b)) / 1e3 for a, b in zip(to_obj, dumps)])
    mix = idx("instructions.sample_training_mix")
    drawn = sum(spans[i][COUNT][1] for i in mix)
    m["instructions.sample_training_mix.us"] = ratio(sum(dur(i) for i in mix) / 1e3, drawn)
    m["instructions.sample_keep_ratio"] = ratio(drawn, sum(spans[i][COUNT][0] for i in mix))
    m["instructions.from_obj.us"] = per_call_us("instructions.from_obj")

    # json.loads of a prediction line is the argument of the prediction-set
    # build, so it is the span recorded just before it under the same parent.
    pred = []
    for i in idx("metrics.prediction_set"):
        before = spans[i - 1]
        loads = dur(i - 1) if before[NAME] == "json.loads" and before[PARENT] == spans[i][PARENT] else 0
        pred.append((loads + dur(i)) / 1e3)
    m["metrics.prediction_set.us"] = _median(pred)
    rows = extra.get("items", {}).get("evaluate", 0)
    m["metrics.classify_prediction.calls_per_row"] = ratio(len(idx("metrics.classify_prediction", ("evaluate",))), rows)
    m["metrics.min_ade.us"] = per_call_us("metrics.min_ade")
    m["metrics.min_fde.us"] = per_call_us("metrics.min_fde")
    m["metrics.aggregate.us"] = ratio(sum(dur(i) for i in idx("metrics.aggregate")) / 1e3, rows)

    for name in ("synth.default_suite", "synth.build_corpus"):
        calls = idx(name, any_request=True)
        m[f"{name}.us_per_scen"] = ratio(sum(dur(i) for i in calls) / 1e3, sum(spans[i][COUNT] for i in calls))
    m["synth.gen_prediction_set.us"] = per_call_us("synth.gen_prediction_set", any_request=True)

    items = extra.get("items", {})
    for c in COMMANDS:
        key = c.replace("-", "_")
        cli_self = sum(
            s for rec, s in zip(spans, selfs) if command_of(rec[REQUEST]) == c and rec[NAME].startswith("cli.")
        )
        m[f"cli.{key}.self_us"] = ratio(cli_self / 1e3, items.get(c, 0))
        reqs = {r for r in walls if command_of(r) == c}
        m[f"trace.coverage.{key}"] = coverage(spans, selfs, reqs, sum(walls[r] for r in reqs))
        plain = extra.get("untraced_s", {}).get(c, [])
        traced_s = [walls[r] / 1e9 for r in reqs]
        m[f"trace.overhead.{key}"] = ratio(_median(traced_s), _median(plain)) - 1.0 if plain and traced_s else 0.0

    m["cli.json_loads_per_line"] = ratio(len(idx("json.loads", ("evaluate",))), extra.get("lines", 0))
    m["json.loads.us"] = per_call_us("json.loads")
    m["cli.shard.speedup_jN"] = extra.get("speedup_jN", 0.0)
    m["cli.shard.bytes_moved_per_scen"] = extra.get("bytes_moved_per_item", 0.0)

    total_wall = sum(walls.values())
    for layer in LAYERS:
        m[f"share.{layer}"] = ratio(
            sum(s for rec, s, c in zip(spans, selfs, in_cmd) if c and rec[NAME].split(".")[0] == layer), total_wall
        )
    return {name: float(m[name]) for name, _, _ in PER_LAYER}
