"""Columnar scenario model, JSON(L) schemas, and validation.

One scenario is a single JSON document; corpora are JSON Lines (one scenario
per line). Field names in the schema are normative and documented in the
README. Angles are radians wrapped to (-pi, pi], speeds are m/s except lane
``speed_limit_kmh``, time steps are integers at ``dt`` seconds per step
(default 0.1 s, i.e. 10 Hz).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Optional

import numpy as np

from .errors import GeometryError, ReferenceError, SchemaError
from .geometry import wrap_angle

MPS_TO_KMH = 3.6

AGENT_KINDS = frozenset({"vehicle", "pedestrian", "cyclist", "other"})


@dataclass(frozen=True)
class HorizonConfig:
    """Observed/future step layout of a scenario.

    ``t_obs`` observed steps followed by ``t_pred`` future steps; the current
    step is index ``t_obs - 1``. ``t_select`` lists future step indices used by
    the GMM loss (relative to the start of the future window).
    """

    t_obs: int = 11
    t_pred: int = 80
    t_select: tuple[int, ...] = (29, 49, 79)
    dt: float = 0.1

    def __post_init__(self) -> None:
        if self.t_obs < 2:
            raise SchemaError("t_obs must be >= 2 (heading inference needs two points)")
        if self.t_pred < 1:
            raise SchemaError("t_pred must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise SchemaError("dt must be positive and finite")
        for t in self.t_select:
            if not 0 <= t < self.t_pred:
                raise SchemaError(f"t_select entry {t} outside [0, {self.t_pred})")
        object.__setattr__(self, "t_select", tuple(int(t) for t in self.t_select))

    @property
    def n_steps(self) -> int:
        return self.t_obs + self.t_pred

    @property
    def current_index(self) -> int:
        return self.t_obs - 1

    @property
    def future_window(self) -> tuple[int, int]:
        """Half-open [start, stop) index range of the future steps."""
        return self.t_obs, self.t_obs + self.t_pred

    @property
    def future_duration_s(self) -> float:
        return self.t_pred * self.dt


def _freeze(obj, **dtypes) -> None:
    """Store each named field as a private, C-ordered, read-only array."""
    for name, dtype in dtypes.items():
        array = np.array(getattr(obj, name), dtype=dtype, order="C")
        array.flags.writeable = False
        object.__setattr__(obj, name, array)


def _equal_by_value(a, b) -> bool:
    """Dataclass equality that compares array fields element by element."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y for x, y in pairs
    )


@dataclass(frozen=True, eq=False)
class AgentTrack:
    """An agent's full track (observed + future) as per-step columns: step ``i`` has t_index
    ``t0 + i``, ``xy`` is (n, 2) and the rest (n,); the numbers of invalid steps are ignored
    downstream. The columns are read-only copies of what the constructor was given."""

    agent_id: str
    agent_kind: str
    t0: int
    xy: np.ndarray
    headings: np.ndarray
    speeds: np.ndarray
    valid_mask: np.ndarray

    __eq__ = _equal_by_value

    def __post_init__(self) -> None:
        if self.agent_kind not in AGENT_KINDS:
            raise SchemaError(f"unknown agent_kind {self.agent_kind!r}")
        _freeze(self, xy=float, headings=float, speeds=float, valid_mask=bool)
        n = len(self.xy)
        if n < 2:
            raise GeometryError(f"agent {self.agent_id}: track needs >= 2 points")
        if self.xy.shape != (n, 2) or {c.shape for c in (self.headings, self.speeds, self.valid_mask)} != {(n,)}:
            raise SchemaError(f"agent {self.agent_id}: columns must be xy (n, 2) and (n,) for the rest")


@dataclass(frozen=True, eq=False)
class Lane:
    """One lane: centerline columns ``xy`` (n, 2) and ``headings`` (n,), plus its graph wiring."""

    lane_id: str
    xy: np.ndarray
    headings: np.ndarray
    speed_limit_kmh: Optional[float] = None
    successors: tuple[str, ...] = ()
    left_neighbor: Optional[str] = None
    right_neighbor: Optional[str] = None

    __eq__ = _equal_by_value

    def __post_init__(self) -> None:
        _freeze(self, xy=float, headings=float)
        n = len(self.xy)
        if n < 2:
            raise GeometryError(f"lane {self.lane_id}: centerline needs >= 2 points")
        if self.xy.shape != (n, 2) or self.headings.shape != (n,):
            raise SchemaError(f"lane {self.lane_id}: columns must be xy (n, 2) and headings (n,)")
        seg = np.linalg.norm(np.diff(self.xy, axis=0), axis=1)
        if np.any(seg <= 0.0):
            raise GeometryError(f"lane {self.lane_id}: consecutive centerline points must be distinct")


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    focal_agent_id: str
    agents: tuple[AgentTrack, ...]
    lanes: tuple[Lane, ...]
    horizon: HorizonConfig = field(default_factory=HorizonConfig)
    scenario_type: Optional[str] = None

    def __post_init__(self) -> None:
        agent_ids = [a.agent_id for a in self.agents]
        if len(set(agent_ids)) != len(agent_ids):
            raise ReferenceError(f"scenario {self.scenario_id}: duplicate agent_id")
        lane_ids = [l.lane_id for l in self.lanes]
        if len(set(lane_ids)) != len(lane_ids):
            raise ReferenceError(f"scenario {self.scenario_id}: duplicate lane_id")
        if self.focal_agent_id not in set(agent_ids):
            raise ReferenceError(
                f"scenario {self.scenario_id}: focal_agent_id {self.focal_agent_id!r} not among agents"
            )
        lane_set = set(lane_ids)
        for lane in self.lanes:
            for ref in (*lane.successors, lane.left_neighbor, lane.right_neighbor):
                if ref is not None and ref not in lane_set:
                    raise ReferenceError(
                        f"scenario {self.scenario_id}: lane {lane.lane_id} references unknown lane {ref!r}"
                    )
        n = self.horizon.n_steps
        for a in self.agents:
            if len(a.xy) != n:
                raise SchemaError(
                    f"scenario {self.scenario_id}: agent {a.agent_id} has {len(a.xy)} points, "
                    f"horizon requires {n}"
                )

    @property
    def focal_track(self) -> AgentTrack:
        for a in self.agents:
            if a.agent_id == self.focal_agent_id:
                return a
        raise ReferenceError(self.focal_agent_id)  # unreachable after validation


# ---------------------------------------------------------------------------
# JSON parsing / serialization
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}: field {key!r} must be a number")
        if not abs(value) <= sys.float_info.max:  # also false for NaN
            raise SchemaError(f"{where}: field {key!r} must be a finite number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where}: field {key!r} must be an integer")
        return value
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} has wrong type {type(value).__name__}")
    return value


def _reject_extra(obj: dict, allowed, where: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise SchemaError(f"{where}: unexpected field(s) {sorted(extra)}")


_POINT_FIELDS = {"t": int, "valid": bool, "x": float, "y": float, "heading": float, "speed": float}
_VERTEX_FIELDS = {"x": float, "y": float, "heading": float}
_JSON_TYPES = {int: {int}, bool: {bool}, float: {int, float}}


def _json_array(value, ndim: int, name: str):
    """``value`` as an array, built in one flat pass, when it nests ``ndim`` levels of equal-length
    lists. Its leaves must be JSON numbers: an int or a float, not a bool or a string such as
    "1.5", which ``np.array`` would cast. Any other ``value`` is returned as it is, for the
    caller's own conversion and shape check to reject."""
    leaves, shape = [value], []
    for _ in range(ndim):
        lengths = set(map(len, leaves)) if set(map(type, leaves)) == {list} else set()
        if len(lengths) != 1:
            return value
        shape.append(lengths.pop())
        leaves = list(chain.from_iterable(leaves))
    types = set(map(type, leaves))
    if list in types:  # nested deeper than ndim
        return value
    if not types <= _JSON_TYPES[float]:
        raise SchemaError(f"{name} must hold finite numbers")
    return np.array(leaves).reshape(shape)


def _table(obj: dict, key: str, kinds: dict, where: str) -> tuple[dict, np.ndarray]:
    """The rows of ``obj[key]`` as one list per field plus the float fields as one (k, n) array;
    a row that is not an object with exactly these fields of these JSON types, finite and with
    speed >= 0, raises its first problem as ``{where}.{key}[i]: ...``."""
    rows = _require(obj, key, list, where)
    # Rows that each hold every field and together hold len(kinds) * n keys hold no other key.
    if set(map(type, rows)) <= {dict} and sum(map(len, rows)) == len(kinds) * len(rows):
        try:
            columns = {name: [row[name] for row in rows] for name in kinds}
            if all(set(map(type, columns[name])) <= _JSON_TYPES[kind] for name, kind in kinds.items()):
                floats = np.array([columns[name] for name, kind in kinds.items() if kind is float], dtype=float)
                if np.isfinite(floats).all() and min(columns.get("speed") or [0]) >= 0:
                    return columns, floats
        except (KeyError, OverflowError):
            pass
    for i, row in enumerate(rows):
        at = f"{where}.{key}[{i}]"
        if not isinstance(row, dict):
            raise SchemaError(f"{at}: must be an object")
        _reject_extra(row, kinds, at)
        for name, kind in kinds.items():
            value = _require(row, name, kind, at)
            if name == "speed" and value < 0:
                raise SchemaError(f"{at}: speed must be >= 0")
    raise AssertionError("unreachable: the row checks above mirror the column checks")


def _normalize_headings(headings: np.ndarray) -> np.ndarray:
    """Headings wrapped to (-pi, pi], with in-range values kept bit for bit: ``wrap_angle`` loses
    low-order bits even in range (pi - (pi - theta) is not exactly theta), which would break
    parse/serialize round trips."""
    return np.where((headings > -math.pi) & (headings <= math.pi), headings, wrap_angle(headings))


def _parse_agent(obj: dict, where: str) -> AgentTrack:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: agent must be an object")
    _reject_extra(obj, {"agent_id", "agent_kind", "points"}, where)
    agent_id = _require(obj, "agent_id", str, where)
    columns, (x, y, headings, speeds) = _table(obj, "points", _POINT_FIELDS, where)
    t = columns["t"]
    track = AgentTrack(
        agent_id=agent_id,
        agent_kind=_require(obj, "agent_kind", str, where),
        t0=t[0] if t else 0,
        xy=np.column_stack((x, y)),
        headings=_normalize_headings(headings),
        speeds=speeds,
        valid_mask=columns["valid"],
    )
    if t != list(range(track.t0, track.t0 + len(t))):
        raise GeometryError(f"agent {agent_id}: t_index must increase by exactly 1")
    return track


def _parse_lane(obj: dict, where: str) -> Lane:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: lane must be an object")
    _reject_extra(
        obj,
        {"lane_id", "speed_limit_kmh", "successors", "left_neighbor", "right_neighbor", "centerline"},
        where,
    )
    lane_id = _require(obj, "lane_id", str, where)
    _, (x, y, headings) = _table(obj, "centerline", _VERTEX_FIELDS, where)
    limit = None
    if obj.get("speed_limit_kmh") is not None:
        limit = _require(obj, "speed_limit_kmh", float, where)
        if limit < 0:
            raise SchemaError(f"{where}: speed_limit_kmh must be >= 0")
    successors = obj.get("successors", [])
    if not isinstance(successors, list) or not all(isinstance(s, str) for s in successors):
        raise SchemaError(f"{where}: successors must be a list of lane ids")

    def _opt_str(key: str) -> Optional[str]:
        value = obj.get(key)
        if value is not None and not isinstance(value, str):
            raise SchemaError(f"{where}: {key} must be a string or null")
        return value

    return Lane(
        lane_id=lane_id,
        xy=np.column_stack((x, y)),
        headings=_normalize_headings(headings),
        speed_limit_kmh=limit,
        successors=tuple(successors),
        left_neighbor=_opt_str("left_neighbor"),
        right_neighbor=_opt_str("right_neighbor"),
    )


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse one scenario JSON document and check every model invariant.

    Raises :class:`SchemaError` on structural problems, :class:`ReferenceError`
    on dangling ids, :class:`GeometryError` on non-monotonic t_index or
    degenerate centerlines. Headings are normalized to (-pi, pi] on input.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("scenario document must be a JSON object")
    _reject_extra(
        obj, {"scenario_id", "focal_agent_id", "scenario_type", "horizon", "agents", "lanes"}, "scenario"
    )
    scenario_id = _require(obj, "scenario_id", str, "scenario")
    where = f"scenario {scenario_id}"
    horizon_raw = _require(obj, "horizon", dict, where)
    _reject_extra(horizon_raw, {"t_obs", "t_pred", "t_select", "dt"}, f"{where}.horizon")
    t_select = _require(horizon_raw, "t_select", list, f"{where}.horizon")
    if not all(isinstance(t, int) and not isinstance(t, bool) for t in t_select):
        raise SchemaError(f"{where}.horizon: t_select must be a list of integers")
    horizon = HorizonConfig(
        t_obs=_require(horizon_raw, "t_obs", int, f"{where}.horizon"),
        t_pred=_require(horizon_raw, "t_pred", int, f"{where}.horizon"),
        t_select=tuple(t_select),
        dt=_require(horizon_raw, "dt", float, f"{where}.horizon"),
    )
    scenario_type = obj.get("scenario_type")
    if scenario_type is not None and not isinstance(scenario_type, str):
        raise SchemaError(f"{where}: scenario_type must be a string or null")
    agents = tuple(
        _parse_agent(a, f"{where}.agents[{i}]") for i, a in enumerate(_require(obj, "agents", list, where))
    )
    lanes = tuple(
        _parse_lane(l, f"{where}.lanes[{i}]") for i, l in enumerate(_require(obj, "lanes", list, where))
    )
    return Scenario(
        scenario_id=scenario_id,
        focal_agent_id=_require(obj, "focal_agent_id", str, where),
        agents=agents,
        lanes=lanes,
        horizon=horizon,
        scenario_type=scenario_type,
    )


def scenario_to_obj(s: Scenario) -> dict:
    obj: dict = {
        "scenario_id": s.scenario_id,
        "focal_agent_id": s.focal_agent_id,
        "horizon": {
            "t_obs": s.horizon.t_obs,
            "t_pred": s.horizon.t_pred,
            "t_select": list(s.horizon.t_select),
            "dt": s.horizon.dt,
        },
        "agents": [
            {
                "agent_id": a.agent_id,
                "agent_kind": a.agent_kind,
                "points": [
                    {"t": a.t0 + i, "x": x, "y": y, "heading": h, "speed": v, "valid": ok}
                    for i, ((x, y), h, v, ok) in enumerate(
                        zip(a.xy.tolist(), a.headings.tolist(), a.speeds.tolist(), a.valid_mask.tolist())
                    )
                ],
            }
            for a in s.agents
        ],
        "lanes": [],
    }
    if s.scenario_type is not None:
        obj["scenario_type"] = s.scenario_type
    for lane in s.lanes:
        lane_obj: dict = {
            "lane_id": lane.lane_id,
            "successors": list(lane.successors),
            "centerline": [
                {"x": x, "y": y, "heading": h} for (x, y), h in zip(lane.xy.tolist(), lane.headings.tolist())
            ],
        }
        if lane.speed_limit_kmh is not None:
            lane_obj["speed_limit_kmh"] = lane.speed_limit_kmh
        if lane.left_neighbor is not None:
            lane_obj["left_neighbor"] = lane.left_neighbor
        if lane.right_neighbor is not None:
            lane_obj["right_neighbor"] = lane.right_neighbor
        obj["lanes"].append(lane_obj)
    return obj


def serialize_scenario(s: Scenario) -> str:
    """One-line JSON encoding such that ``parse_scenario(serialize_scenario(s)) == s``."""
    return json.dumps(scenario_to_obj(s), sort_keys=True, separators=(",", ":"))

