"""Columnar scenario model, JSON(L) schemas, and validation.

One scenario is a single JSON document; corpora are JSON Lines (one scenario
per line). Field names in the schema are normative and documented in the
README. Angles are radians wrapped to (-pi, pi], speeds are m/s except lane
``speed_limit_kmh``, time steps are integers at ``dt`` seconds per step
(default 0.1 s, i.e. 10 Hz).

A :class:`Scenario` stores its agents as one block: per-agent ids, kinds and
first t_index, and (A, n) columns of positions, headings, speeds and validity
flags. :func:`parse_scenario` checks every point of every agent in one column
pass and builds that block directly. Agents the pass declines are read one at
a time by ``_read_agent``, which raises the first problem with its field path
and is also the tests' reference for the pass. The labellers read only
``Scenario.focal_track``, an :class:`AgentTrack` view of the focal row built
once; ``Scenario.agents`` gives every agent's view and is built only when read.
"""

from __future__ import annotations

import array
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .errors import GeometryError, ReferenceError, SchemaError
from .geometry import wrap_angle

MPS_TO_KMH = 3.6

AGENT_KINDS = frozenset({"vehicle", "pedestrian", "cyclist", "other"})

#: The largest magnitude a number read from a float column may have: track and
#: centerline x, y, heading and speed, GT futures, prediction trajectories and
#: scores, and the scalar ``dt`` and ``speed_limit_kmh``. A million kilometres is
#: far past any map frame, and squared distances and sums over a track of numbers
#: this size stay far inside the float range, so no label or report value can
#: overflow.
MAX_ABS = 1e9

#: How a line error qualifies the finite numbers it asks for (NaN, infinities and numbers
#: above MAX_ABS fail).
WITHIN = f"of magnitude at most {MAX_ABS:g}"


def _is_int(value) -> bool:
    """A JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value, limit: float = sys.float_info.max) -> bool:
    """A JSON int or float of magnitude at most ``limit`` (MAX_ABS for input files), so never NaN or
    Infinity; the comparison is exact, so an int too large for a float cannot overflow it."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= limit


@dataclass(frozen=True)
class HorizonConfig:
    """Observed/future step layout of a scenario.

    ``t_obs`` observed steps followed by ``t_pred`` future steps; the current
    step is index ``t_obs - 1``. ``t_select`` lists future step indices used by
    the GMM loss (relative to the start of the future window). The step counts
    and indices are integers, not bools or floats, and ``dt`` is a positive
    number of magnitude at most MAX_ABS.
    """

    t_obs: int = 11
    t_pred: int = 80
    t_select: tuple[int, ...] = (29, 49, 79)
    dt: float = 0.1

    def __post_init__(self) -> None:
        if not (_is_int(self.t_obs) and _is_int(self.t_pred)):
            raise SchemaError("t_obs and t_pred must be integers")
        if self.t_obs < 2:
            raise SchemaError("t_obs must be >= 2 (heading inference needs two points)")
        if self.t_pred < 1:
            raise SchemaError("t_pred must be >= 1")
        if not (_is_number(self.dt, MAX_ABS) and self.dt > 0):
            raise SchemaError(f"dt must be a positive number {WITHIN}")
        t_select = tuple(self.t_select)
        for t in t_select:
            if not _is_int(t):
                raise SchemaError(f"t_select entry {t!r} is not an integer")
            if not 0 <= t < self.t_pred:
                raise SchemaError(f"t_select entry {t} outside [0, {self.t_pred})")
        object.__setattr__(self, "t_select", t_select)

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


def _freeze(obj, **dtypes) -> None:
    """Store each named field as a C-ordered, read-only array: a private copy, except that an array
    that is already read-only and of that dtype and layout is kept as it is, so a track can be a
    view of its scenario's block."""
    for name, dtype in dtypes.items():
        value = getattr(obj, name)
        flags = value.flags if isinstance(value, np.ndarray) else None
        if flags is not None and not flags.writeable and flags.c_contiguous and value.dtype == dtype:
            continue
        array = np.array(value, dtype=dtype, order="C")
        array.flags.writeable = False
        object.__setattr__(obj, name, array)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bounded(a: np.ndarray) -> bool:
    """Whether every number of ``a`` is finite and at most MAX_ABS in magnitude. The one check
    covers both, so it costs what a finiteness check alone would: a NaN propagates through the
    max and compares False."""
    return bool(np.maximum.reduce(np.abs(a), axis=None, initial=0.0) <= MAX_ABS)


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
    downstream. The columns are read-only: copies of what the constructor was given, or the very
    arrays when they are already read-only (a scenario's tracks are views of its block)."""

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


def _point_count_error(where: str, agent_id: str, count: int, n_steps: int) -> SchemaError:
    return SchemaError(f"{where}: agent {agent_id} has {count} points, horizon requires {n_steps}")


def _check_ids(where: str, focal_agent_id: str, agent_ids, lanes) -> None:
    """A scenario's id checks: unique agent and lane ids, a focal agent among the agents, and lane
    references that resolve."""
    if len(set(agent_ids)) != len(agent_ids):
        raise ReferenceError(f"{where}: duplicate agent_id")
    lane_ids = {l.lane_id for l in lanes}
    if len(lane_ids) != len(lanes):
        raise ReferenceError(f"{where}: duplicate lane_id")
    if focal_agent_id not in agent_ids:
        raise ReferenceError(f"{where}: focal_agent_id {focal_agent_id!r} not among agents")
    for lane in lanes:
        for ref in (*lane.successors, lane.left_neighbor, lane.right_neighbor):
            if ref is not None and ref not in lane_ids:
                raise ReferenceError(f"{where}: lane {lane.lane_id} references unknown lane {ref!r}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One scenario, its agents stored as one block: agent ``a`` is ``agent_ids[a]`` of kind
    ``agent_kinds[a]``, and its step ``i`` has t_index ``t0[a] + i``, position ``xy[a, i]`` and
    ``headings``, ``speeds`` and ``valid`` ``[a, i]``. ``xy`` is (A, n, 2) and the other three
    (A, n), where n is ``horizon.n_steps``; all four are read-only.

    ``focal_track`` and ``agents`` read the block as :class:`AgentTrack` views (no copy): the
    focal track is built the first time it is read, and the tuple of every agent's track only
    when it is read, which the labellers never do. :meth:`from_tracks` stacks tracks into a
    scenario.
    """

    scenario_id: str
    focal_agent_id: str
    agent_ids: tuple[str, ...]
    agent_kinds: tuple[str, ...]
    t0: tuple[int, ...]
    xy: np.ndarray
    headings: np.ndarray
    speeds: np.ndarray
    valid: np.ndarray
    lanes: tuple[Lane, ...]
    horizon: HorizonConfig = field(default_factory=HorizonConfig)
    scenario_type: Optional[str] = None

    __eq__ = _equal_by_value

    def __post_init__(self) -> None:
        where = f"scenario {self.scenario_id}"
        if not set(self.agent_kinds) <= AGENT_KINDS:
            raise SchemaError(f"{where}: unknown agent_kind in {sorted(set(self.agent_kinds))}")
        _freeze(self, xy=float, headings=float, speeds=float, valid=bool)
        a = len(self.agent_ids)
        shape = self.headings.shape
        if not (
            len(shape) == 2
            and len(self.agent_kinds) == len(self.t0) == a == shape[0]
            and self.xy.shape == (*shape, 2)
            and self.speeds.shape == self.valid.shape == shape
        ):
            raise SchemaError(f"{where}: the block must be xy (A, n, 2) and (A, n) for the rest, for A agents")
        _check_ids(where, self.focal_agent_id, self.agent_ids, self.lanes)
        if shape[1] != self.horizon.n_steps:
            raise _point_count_error(where, self.agent_ids[0], shape[1], self.horizon.n_steps)

    @classmethod
    def from_tracks(
        cls,
        scenario_id: str,
        focal_agent_id: str,
        tracks,
        lanes: tuple[Lane, ...],
        horizon: HorizonConfig = HorizonConfig(),
        scenario_type: Optional[str] = None,
    ) -> "Scenario":
        """The scenario whose block stacks ``tracks`` in order; each must have ``horizon.n_steps`` points."""
        for t in tracks:
            if len(t.xy) != horizon.n_steps:
                raise _point_count_error(f"scenario {scenario_id}", t.agent_id, len(t.xy), horizon.n_steps)
        shape = (len(tracks), horizon.n_steps)
        return cls(
            scenario_id,
            focal_agent_id,
            tuple(t.agent_id for t in tracks),
            tuple(t.agent_kind for t in tracks),
            tuple(t.t0 for t in tracks),
            _read_only(np.array([t.xy for t in tracks]).reshape(*shape, 2)),
            _read_only(np.array([t.headings for t in tracks]).reshape(shape)),
            _read_only(np.array([t.speeds for t in tracks]).reshape(shape)),
            _read_only(np.array([t.valid_mask for t in tracks], dtype=bool).reshape(shape)),
            lanes=tuple(lanes),
            horizon=horizon,
            scenario_type=scenario_type,
        )

    def _track(self, a: int) -> AgentTrack:
        columns = (self.xy[a], self.headings[a], self.speeds[a], self.valid[a])
        return AgentTrack(self.agent_ids[a], self.agent_kinds[a], self.t0[a], *columns)

    @cached_property
    def focal_track(self) -> AgentTrack:
        return self._track(self.agent_ids.index(self.focal_agent_id))

    @cached_property
    def agents(self) -> tuple[AgentTrack, ...]:
        return tuple(map(self._track, range(len(self.agent_ids))))


# ---------------------------------------------------------------------------
# JSON parsing / serialization
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is float:
        if not _is_number(value, MAX_ABS):
            raise SchemaError(f"{where}: field {key!r} must be a finite number {WITHIN}")
        return float(value)
    if kind is int:
        if not _is_int(value):
            raise SchemaError(f"{where}: field {key!r} must be an integer")
        return value
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} has wrong type {type(value).__name__}")
    return value


def _reject_extra(obj: dict, allowed, where: Optional[str] = None) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        message = f"unexpected field(s) {sorted(extra)}"
        raise SchemaError(message if where is None else f"{where}: {message}")


def _optional_flag(value, name: str) -> None:
    if value is not None and not isinstance(value, bool):
        raise SchemaError(f"{name} must be true, false or null")


_POINT_FIELDS = {"t": int, "valid": bool, "x": float, "y": float, "heading": float, "speed": float}
_VERTEX_FIELDS = {"x": float, "y": float, "heading": float}
_JSON_TYPES = {int: {int}, bool: {bool}, float: {int, float}}


def _json_array(value, name: str) -> np.ndarray:
    """``value`` as the read-only float array a record stores: an int or float ndarray, or equal-length
    lists or tuples nested around ints and floats, not bools or strings such as "1.5", which a cast
    would pass. NaN, infinities and numbers past MAX_ABS raise; the caller checks the shape."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            raise SchemaError(f"{name} must hold finite numbers")
        out = np.array(value, dtype=float, order="C")
    else:
        leaves, shape = [value], []
        while (types := set(map(type, leaves))) & {list, tuple}:
            lengths = set(map(len, leaves)) if types <= {list, tuple} else set()
            if len(lengths) != 1:
                raise SchemaError(f"{name} must nest lists of equal length")
            shape.append(lengths.pop())
            leaves = list(chain.from_iterable(leaves))
        if not all(issubclass(t, (int, float, np.integer, np.floating)) and t is not bool for t in types):
            raise SchemaError(f"{name} must hold finite numbers")
        try:
            flat = array.array("d", leaves)
        except OverflowError as exc:  # an int past the float range
            raise SchemaError(f"{name}: {exc}") from exc
        del leaves  # first, so that the copy the record keeps can reuse their memory
        out = np.array(flat).reshape(shape)  # a copy: a view would keep the over-allocated buffer
    if not _bounded(out):
        raise SchemaError(f"{name} must hold finite numbers {WITHIN}")
    out.flags.writeable = False
    return out


def _json_mask(value, name: str) -> np.ndarray:
    """``value`` as a read-only bool array; nothing is cast, so "no" or 0 does not pass as a flag."""
    try:
        mask = np.array(value, order="C")
    except ValueError as exc:
        raise SchemaError(f"{name} must nest lists of equal length") from exc
    if mask.dtype != bool:
        raise SchemaError(f"{name} must hold booleans")
    mask.flags.writeable = False
    return mask


def _columns(rows: list, kinds: dict) -> Optional[tuple[dict, np.ndarray]]:
    """``rows`` as one list per field plus the float fields as one (k, len(rows)) array, or None
    unless every row is an object with exactly these fields of these JSON types, within MAX_ABS
    and with speed >= 0."""
    try:
        # Rows that each hold every field and together hold len(kinds) * n keys hold no other key;
        # a row that is not an object fails len() or the lookup with a TypeError.
        if sum(map(len, rows)) == len(kinds) * len(rows):
            columns = {name: [row[name] for row in rows] for name in kinds}
            if all(set(map(type, columns[name])) <= _JSON_TYPES[kind] for name, kind in kinds.items()):
                floats = np.array([columns[name] for name, kind in kinds.items() if kind is float], dtype=float)
                if _bounded(floats) and min(columns.get("speed") or [0]) >= 0:
                    return columns, floats
    except (KeyError, TypeError, OverflowError):
        pass
    return None


def _table(obj: dict, key: str, kinds: dict, where: str) -> tuple[dict, np.ndarray]:
    """The :func:`_columns` of the rows of ``obj[key]``; a row that does not pass raises its first
    problem as ``{where}.{key}[i]: ...``."""
    rows = _require(obj, key, list, where)
    table = _columns(rows, kinds)
    if table is not None:
        return table
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
    inside = (headings > -math.pi) & (headings <= math.pi)
    return headings if inside.all() else np.where(inside, headings, wrap_angle(headings))


_AGENT_FIELDS = frozenset({"agent_id", "agent_kind", "points"})


def _agent_block(agents: list) -> Optional[tuple]:
    """The scenario block of ``agents`` (ids, kinds, t0, xy, headings, speeds, valid; see
    :class:`Scenario`) in one column pass over every point of every agent, or None when any agent
    is irregular: not an object with exactly the agent fields, a non-string id or kind, an unknown
    kind, points that are not a list, unequal or fewer than 2 points, a point that fails
    :func:`_columns`, or t_index steps other than +1."""
    if not agents or not all(type(a) is dict and a.keys() == _AGENT_FIELDS for a in agents):
        return None
    ids, kinds, tracks = ([a[name] for a in agents] for name in ("agent_id", "agent_kind", "points"))
    if not (
        set(map(type, ids)) <= {str}
        and set(map(type, kinds)) <= {str}
        and set(kinds) <= AGENT_KINDS
        and set(map(type, tracks)) <= {list}
    ):
        return None
    lengths = set(map(len, tracks))
    n = lengths.pop()
    if lengths or n < 2:
        return None
    table = _columns(list(chain.from_iterable(tracks)), _POINT_FIELDS)
    if table is None:
        return None
    columns, floats = table  # rows x, y, heading, speed
    # One comparison with the expected steps: exact for JSON integers of any size, which an
    # int64 difference is not.
    t = columns["t"]
    t0 = t[::n]
    if t != list(chain.from_iterable(range(start, start + n) for start in t0)):
        return None
    shape = (len(agents), n)
    return (
        tuple(ids),
        tuple(kinds),
        tuple(t0),
        _read_only(floats[:2].T.copy().reshape(*shape, 2)),
        _read_only(_normalize_headings(floats[2]).reshape(shape)),
        _read_only(floats[3].reshape(shape)),
        _read_only(np.array(columns["valid"]).reshape(shape)),
    )


def _read_agent(agent, at: str) -> AgentTrack:
    """One agent read on its own: its first problem, in the order the fields are read, raises as
    ``{at}: ...`` (a track of fewer than 2 points or with a t_index gap names the agent id).
    :func:`parse_scenario` reads the agents this way when :func:`_agent_block` declines them, and
    the tests use it as the reference that the block pass must agree with."""
    if not isinstance(agent, dict):
        raise SchemaError(f"{at}: agent must be an object")
    _reject_extra(agent, _AGENT_FIELDS, at)
    agent_id = _require(agent, "agent_id", str, at)
    columns, (x, y, headings, speeds) = _table(agent, "points", _POINT_FIELDS, at)
    kind = _require(agent, "agent_kind", str, at)
    if kind not in AGENT_KINDS:
        raise SchemaError(f"{at}: unknown agent_kind {kind!r}")
    t = columns["t"]
    t0 = t[0] if t else 0
    track = AgentTrack(
        agent_id, kind, t0, np.column_stack((x, y)), _normalize_headings(headings), speeds, columns["valid"]
    )
    if t != list(range(t0, t0 + len(t))):
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
    floats = _table(obj, "centerline", _VERTEX_FIELDS, where)[1]  # rows x, y, heading
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
        xy=_read_only(floats[:2].T.copy()),
        headings=_read_only(_normalize_headings(floats[2])),
        speed_limit_kmh=limit,
        successors=tuple(successors),
        left_neighbor=_opt_str("left_neighbor"),
        right_neighbor=_opt_str("right_neighbor"),
    )


def _parse_lanes(obj: dict, where: str) -> tuple[Lane, ...]:
    return tuple(_parse_lane(l, f"{where}.lanes[{i}]") for i, l in enumerate(_require(obj, "lanes", list, where)))


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
    at = f"{where}.horizon"
    horizon_raw = _require(obj, "horizon", dict, where)
    _reject_extra(horizon_raw, {"t_obs", "t_pred", "t_select", "dt"}, at)
    t_select = _require(horizon_raw, "t_select", list, at)
    if not all(map(_is_int, t_select)):
        raise SchemaError(f"{at}: t_select must be a list of integers")
    t_obs, t_pred = _require(horizon_raw, "t_obs", int, at), _require(horizon_raw, "t_pred", int, at)
    dt = _require(horizon_raw, "dt", float, at)
    try:  # only the constructor: the field errors above carry their path already
        horizon = HorizonConfig(t_obs, t_pred, tuple(t_select), dt)
    except SchemaError as exc:
        raise SchemaError(f"{at}: {exc}") from exc
    scenario_type = obj.get("scenario_type")
    if scenario_type is not None and not isinstance(scenario_type, str):
        raise SchemaError(f"{where}: scenario_type must be a string or null")
    agents = _require(obj, "agents", list, where)
    block = _agent_block(agents)
    if block is None:
        tracks = [_read_agent(agent, f"{where}.agents[{i}]") for i, agent in enumerate(agents)]
    lanes = _parse_lanes(obj, where)
    focal_agent_id = _require(obj, "focal_agent_id", str, where)
    if block is not None:
        return Scenario(scenario_id, focal_agent_id, *block, lanes=lanes, horizon=horizon, scenario_type=scenario_type)
    _check_ids(where, focal_agent_id, [t.agent_id for t in tracks], lanes)
    return Scenario.from_tracks(scenario_id, focal_agent_id, tracks, lanes, horizon, scenario_type)


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
                "agent_id": agent_id,
                "agent_kind": kind,
                "points": [
                    {"t": t0 + i, "x": x, "y": y, "heading": h, "speed": v, "valid": ok}
                    for i, ((x, y), h, v, ok) in enumerate(zip(xy, headings, speeds, valid))
                ],
            }
            for agent_id, kind, t0, xy, headings, speeds, valid in zip(
                s.agent_ids, s.agent_kinds, s.t0, *(c.tolist() for c in (s.xy, s.headings, s.speeds, s.valid))
            )
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

