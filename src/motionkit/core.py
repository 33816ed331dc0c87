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
a time by ``_read_agent``, and rows (points, centerline vertices) that the
column reader ``_columns`` declines one at a time by ``_read_row``; each
raises the first problem with its field path, and the two are also the tests'
reference for the column passes. The labellers read only
``Scenario.focal_track``, an :class:`AgentTrack` view of the focal row built
once; ``Scenario.agents`` gives every agent's view and is built only when read.

Every other JSON record (a document's horizon and lane fields, dataset and
prediction lines, guideline-book types, config sections) is read by one
decoder, ``_record_from_obj``, by its annotations; ``_check_fields`` checks
every declared field kind of a record built from a line or in code.
"""

from __future__ import annotations

import array
import enum
import inspect
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, partial
from itertools import chain
from typing import NamedTuple, Optional, get_args, get_origin, get_type_hints

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


#: A value as JSON, as a config file or a line holds it; what JSON cannot hold shows as its repr.
_json_text = partial(json.dumps, default=repr, skipkeys=True)

#: Each declared scalar kind's test, how an error names the kind and how it shows the value (None:
#: not at all). Numbers are finite and never booleans.
_KINDS: dict = {
    str: (lambda v: isinstance(v, str), "a string", None),
    bool: (lambda v: isinstance(v, bool), "true or false", None),
    int: (_is_int, "an integer", _json_text),
    float: (_is_number, "a number", _json_text),
    tuple[int, ...]: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of integers", _json_text),
    tuple[str, ...]: (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v), "a list of strings", _json_text
    ),
}


class _Declared(NamedTuple):
    """A record class's fields by their annotations, each bare or ``Optional``: a scalar field of a
    kind of :data:`_KINDS` or an enum, or a records field, a tuple of NamedTuples (``...``: any number)."""

    names: tuple[str, ...]  # every field, in field order
    required: tuple[str, ...]  # the fields without a default
    optional: frozenset[str]  # the fields annotated Optional
    scalars: tuple[tuple, ...]  # (name, the types passed untested, test, expected, shows) as in _KINDS
    enums: tuple[tuple[str, type, dict], ...]  # (name, kind, its members by value)
    records: tuple[tuple[str, type, Optional[int]], ...]  # (name, kind, n or None for any)


@cache
def _declared(cls) -> _Declared:
    """The :class:`_Declared` of a dataclass or NamedTuple, read from its signature once."""
    params, hints = inspect.signature(cls).parameters, get_type_hints(cls)
    scalars, enums, records = [], [], []
    optional = frozenset(name for name in params if type(None) in get_args(hints[name]))
    for name in params:
        kind = get_args(hints[name])[0] if name in optional else hints[name]
        if isinstance(kind, enum.EnumMeta):
            enums.append((name, kind, {member.value: member for member in kind}))
            accepts, expected, shows = (lambda v, kind=kind: isinstance(v, kind)), f"a {kind.__name__}", repr
        elif kind in _KINDS:
            accepts, expected, shows = _KINDS[kind]
        else:
            if get_origin(kind) is tuple and hasattr(get_args(kind)[0], "_fields"):
                n = None if get_args(kind)[-1] is Ellipsis else len(get_args(kind))
                records.append((name, get_args(kind)[0], n))
            continue
        if name in optional:
            expected = "true, false or null" if kind is bool else f"{expected} or None"
        exact = {kind, type(None)} if name in optional else {kind}  # a float is always tested: it may be NaN
        scalars.append((name, frozenset(exact - {float}), accepts, expected, shows))
    required = tuple(name for name, p in params.items() if p.default is p.empty)
    return _Declared(tuple(params), required, optional, tuple(scalars), tuple(enums), tuple(records))


def _check_fields(record, at: str = "", names=None) -> None:
    """Raise :class:`SchemaError`, naming the field under ``at``, unless each declared field of
    ``record`` (of ``names``, when given) holds its kind, or None if Optional: a records field holds
    a tuple or list (of the declared count) of tuples or lists whose fields hold their kinds."""
    declared = _declared(type(record))
    for name, exact, accepts, expected, shows in declared.scalars:
        value = getattr(record, name)
        if type(value) not in exact and (names is None or name in names) and not accepts(value):
            raise SchemaError(f"{at}{name} must be {expected}{'' if shows is None else f', got {shows(value)}'}")
    for name, kind, n in declared.records:
        value = getattr(record, name)
        if value is None and name in declared.optional:
            continue
        if not isinstance(value, (tuple, list)) or n is not None and len(value) != n:
            raise SchemaError(f"{at}{name} must be a tuple of {'' if n is None else f'{n} '}{kind.__name__}, got {value!r}")
        for i, item in enumerate(value):
            if not (isinstance(item, (tuple, list)) and len(item) == len(kind._fields)):
                raise SchemaError(f"{at}{name}[{i}] must be a {kind.__name__}, got {item!r}")
            _check_fields(kind._make(item), f"{at}{name}[{i}].")


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
        _check_fields(self)
        if self.t_obs < 2:
            raise SchemaError("t_obs must be >= 2 (heading inference needs two points)")
        if self.t_pred < 1:
            raise SchemaError("t_pred must be >= 1")
        if not 0 < self.dt <= MAX_ABS:
            raise SchemaError(f"dt must be a positive number {WITHIN}")
        object.__setattr__(self, "t_select", tuple(self.t_select))
        for t in self.t_select:
            if not 0 <= t < self.t_pred:
                raise SchemaError(f"t_select entry {t} outside [0, {self.t_pred})")

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
    """One lane: centerline columns ``xy`` (n, 2) and ``headings`` (n,), plus its graph wiring, each
    field of its declared kind (``successors`` stored as a tuple) and a speed limit in [0, MAX_ABS]."""

    lane_id: str
    xy: np.ndarray
    headings: np.ndarray
    speed_limit_kmh: Optional[float] = None
    successors: tuple[str, ...] = ()
    left_neighbor: Optional[str] = None
    right_neighbor: Optional[str] = None

    __eq__ = _equal_by_value

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.speed_limit_kmh is not None and not 0 <= self.speed_limit_kmh <= MAX_ABS:
            raise SchemaError(f"speed_limit_kmh must be a number >= 0 {WITHIN}")
        object.__setattr__(self, "successors", tuple(self.successors))
        _freeze(self, xy=float, headings=float)
        n = len(self.xy)
        if n < 2:
            raise GeometryError(f"lane {self.lane_id}: centerline needs >= 2 points")
        if self.xy.shape != (n, 2) or self.headings.shape != (n,):
            raise SchemaError(f"lane {self.lane_id}: columns must be xy (n, 2) and headings (n,)")
        steps = self.xy[1:] - self.xy[:-1]  # squared segment lengths are 0 exactly where their norms are
        if (np.add.reduce(steps * steps, axis=1) <= 0.0).any():
            raise GeometryError(f"lane {self.lane_id}: consecutive centerline points must be distinct")


def _built(at: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a constructor error raised again, of its class, as ``{at}: ...``."""
    try:
        return make(*args, **kwargs)
    except (SchemaError, GeometryError) as exc:
        raise type(exc)(f"{at}: {exc}") from exc


def _point_count_error(where: str, a: int, agent_id: str, count: int, n_steps: int) -> SchemaError:
    """Agent ``a``'s point count, which is not the horizon's ``n_steps``."""
    message = f"agent {agent_id} has {count} points, horizon requires {n_steps} (t_obs + t_pred)"
    return SchemaError(f"{where}.agents[{a}]: {message}")


def _check_ids(where: str, focal_agent_id: str, agent_ids, lanes) -> None:
    """A scenario's id checks: hashable, unique agent and lane ids, a focal agent among the agents,
    and lane references that resolve."""
    try:
        if len(set(agent_ids)) != len(agent_ids):
            raise ReferenceError(f"{where}: duplicate agent_id")
        lane_ids = {l.lane_id for l in lanes}
        if len(lane_ids) != len(lanes):
            raise ReferenceError(f"{where}: duplicate lane_id")
        if focal_agent_id not in agent_ids:
            raise ReferenceError(f"{where}: focal_agent_id {focal_agent_id!r} not among agents")
        for i, lane in enumerate(lanes):
            refs = [("successors", ref) for ref in lane.successors]
            refs += ("left_neighbor", lane.left_neighbor), ("right_neighbor", lane.right_neighbor)
            for name, ref in refs:
                if ref is not None and ref not in lane_ids:
                    raise ReferenceError(f"{where}.lanes[{i}]: {name} references unknown lane {ref!r}")
    except TypeError as exc:  # an id that is a list or an object
        raise SchemaError(f"{where}: agent and lane ids must be hashable ({exc})") from None


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
            raise _point_count_error(where, 0, self.agent_ids[0], shape[1], self.horizon.n_steps)

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
        for i, t in enumerate(tracks):
            if len(t.xy) != horizon.n_steps:
                raise _point_count_error(f"scenario {scenario_id}", i, t.agent_id, len(t.xy), horizon.n_steps)
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
    extra = set(obj).difference(allowed)
    if extra:
        message = f"unexpected field(s) {sorted(extra)}"
        raise SchemaError(message if where is None else f"{where}: {message}")


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


_JSON_SCALARS = frozenset({str, int, float, bool})


def _record_obj(record, **head) -> dict:
    """``head`` plus each field of the dataclass ``record`` that is not None, as its JSON value:
    str, int, float and bool as they are, an enum by its value, an array by ``tolist()``, a
    frozenset of labels as its sorted values, a NamedTuple as the object of its fields, and a
    tuple of NamedTuples as a list of those objects."""
    for name in record.__dataclass_fields__:
        value = getattr(record, name)
        if value is not None:
            head[name] = value if type(value) in _JSON_SCALARS else _json_value(value)
    return head


def _json_value(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, frozenset):
        return sorted(label.value for label in value)
    if hasattr(value, "_fields"):
        return {name: _json_value(v) for name, v in zip(value._fields, value)}
    return [_json_value(v) for v in value]


def _record_from_obj(cls, obj, where: Optional[str] = None, required=None):
    """``cls`` built from the JSON object ``obj`` by its declarations: no unknown field, each of
    ``required`` (by default the fields without a default) present, each enum field converted to
    its member and each records field, a list of objects (of the declared count, when fixed), to a
    tuple of records; null in an Optional field reads as the field left out. The kinds are left to
    :func:`_check_fields`, which a record dataclass's constructor calls. Each error names its field
    path, under ``where`` for a nested record or one value of a larger document."""
    head, at = ("", "") if where is None else (f"{where}: ", f"{where}.")
    if not isinstance(obj, dict):
        raise SchemaError(f"{head}must be an object")
    declared = _declared(cls)
    _reject_extra(obj, declared.names, where)
    kwargs = {name: value for name, value in obj.items() if value is not None or name not in declared.optional}
    for name in declared.required if required is None else required:
        if name not in kwargs:
            raise SchemaError(f"{head}missing required field {name!r}")
    for name, kind, members in declared.enums:
        if name in kwargs:
            try:
                kwargs[name] = members[obj[name]]
            except (KeyError, TypeError):  # not a value of the enum, or a list or object
                raise SchemaError(f"{at}{name}: {obj[name]!r} is not a valid {kind.__name__}") from None
    for name, kind, n in declared.records:
        if name in kwargs:
            value, path, count = obj[name], f"{at}{name}", "" if n is None else f"{n} "
            if not isinstance(value, list):
                raise SchemaError(f"{path} must be a list of {count}objects, got {_json_text(value)}")
            if n is not None and len(value) != n:
                raise SchemaError(f"{path} must hold {n} objects, got {len(value)}")
            for i, item in enumerate(value):
                if not isinstance(item, dict):
                    raise SchemaError(f"{path} must be a list of {count}objects; {path}[{i}] is {_json_text(item)}")
            kwargs[name] = tuple(_record_from_obj(kind, item, f"{path}[{i}]") for i, item in enumerate(value))
    return cls(**kwargs)


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


def _read_row(row, kinds: dict, at: str) -> list:
    """One row read on its own: its values in ``kinds`` order, or its first problem raised as
    ``{at}: ...``. :func:`_table` reads the rows this way when :func:`_columns` declines them."""
    if not isinstance(row, dict):
        raise SchemaError(f"{at}: must be an object")
    _reject_extra(row, kinds, at)
    values = []
    for name, kind in kinds.items():
        values.append(_require(row, name, kind, at))
        if name == "speed" and values[-1] < 0:
            raise SchemaError(f"{at}: speed must be >= 0")
    return values


def _table(obj: dict, key: str, kinds: dict, where: str) -> tuple[dict, np.ndarray]:
    """The :func:`_columns` of the rows of ``obj[key]``; when it declines them, the same columns
    from :func:`_read_row`, so that a row that does not pass raises its first problem as
    ``{where}.{key}[i]: ...``."""
    rows = _require(obj, key, list, where)
    table = _columns(rows, kinds)
    if table is not None:
        return table
    read = [_read_row(row, kinds, f"{where}.{key}[{i}]") for i, row in enumerate(rows)]
    columns = {name: [values[j] for values in read] for j, name in enumerate(kinds)}
    return columns, np.array([columns[name] for name, kind in kinds.items() if kind is float], dtype=float)


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
    ``{at}: ...`` (a track of fewer than 2 points or with a t_index gap also names the agent id).
    :func:`parse_scenario` reads the agents this way when :func:`_agent_block` declines them, and
    the tests use it as the reference that the block pass must agree with."""
    if not isinstance(agent, dict):
        raise SchemaError(f"{at}: agent must be an object")
    _reject_extra(agent, _AGENT_FIELDS, at)
    agent_id = _require(agent, "agent_id", str, at)
    columns, (x, y, headings, speeds) = _table(agent, "points", _POINT_FIELDS, at)
    kind = _require(agent, "agent_kind", str, at)
    t = columns["t"]
    t0 = t[0] if t else 0
    xy = np.column_stack((x, y))
    track = _built(at, AgentTrack, agent_id, kind, t0, xy, _normalize_headings(headings), speeds, columns["valid"])
    if t != list(range(t0, t0 + len(t))):
        raise GeometryError(f"{at}: agent {agent_id}: t_index must increase by exactly 1")
    return track


_LANE_FIELDS = frozenset({"lane_id", "speed_limit_kmh", "successors", "left_neighbor", "right_neighbor", "centerline"})


def _parse_lane(obj: dict, where: str) -> Lane:
    """A lane object: its centerline read by :func:`_table`, and every other field by the record
    decoder, as a :class:`Lane` field."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: lane must be an object")
    _reject_extra(obj, _LANE_FIELDS, where)
    floats = _table(obj, "centerline", _VERTEX_FIELDS, where)[1]  # rows x, y, heading
    lane = {name: value for name, value in obj.items() if name != "centerline"}
    lane["xy"], lane["headings"] = _read_only(floats[:2].T.copy()), _read_only(_normalize_headings(floats[2]))
    return _built(where, _record_from_obj, Lane, lane)


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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("scenario document must be a JSON object")
    _reject_extra(obj, {"scenario_id", "focal_agent_id", "scenario_type", "horizon", "agents", "lanes"}, "scenario")
    scenario_id = _require(obj, "scenario_id", str, "scenario")
    where = f"scenario {scenario_id}"
    # Of any kind (the decoder wants an object) and with every field, where a config section keeps defaults.
    horizon, fields = _require(obj, "horizon", object, where), _declared(HorizonConfig).names
    horizon = _built(f"{where}.horizon", _record_from_obj, HorizonConfig, horizon, required=fields)
    scenario_type = obj.get("scenario_type")
    agents = _require(obj, "agents", list, where)
    block = _agent_block(agents)
    if block is None:
        tracks = [_read_agent(agent, f"{where}.agents[{i}]") for i, agent in enumerate(agents)]
    lanes = tuple(_parse_lane(l, f"{where}.lanes[{i}]") for i, l in enumerate(_require(obj, "lanes", list, where)))
    focal_agent_id = _require(obj, "focal_agent_id", str, where)
    if block is not None:
        scenario = Scenario(scenario_id, focal_agent_id, *block, lanes, horizon, scenario_type)
    else:
        _check_ids(where, focal_agent_id, [t.agent_id for t in tracks], lanes)
        scenario = Scenario.from_tracks(scenario_id, focal_agent_id, tracks, lanes, horizon, scenario_type)
    _check_fields(scenario, f"{where}: ", ("scenario_type",))  # the reads above check the other fields
    return scenario


_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}

# One point and one centerline vertex, keys in sorted order; %r of a finite float is its JSON
# number, as json.dumps writes it.
_POINT = '{"heading":%r,"speed":%r,"t":%d,"valid":%s,"x":%r,"y":%r}'
_VERTEX = '{"heading":%r,"x":%r,"y":%r}'
_FLAGS = ("false", "true")


def _lane_text(lane: Lane) -> str:
    """A lane's JSON object: the centerline (the first key) from the vertex template, the rest
    from ``json.dumps``."""
    rest: dict = {"lane_id": lane.lane_id, "successors": list(lane.successors)}
    for name in ("speed_limit_kmh", "left_neighbor", "right_neighbor"):
        if getattr(lane, name) is not None:
            rest[name] = getattr(lane, name)
    vertices = ",".join(map(_VERTEX.__mod__, zip(lane.headings.tolist(), *lane.xy.T.tolist())))
    return '{"centerline":[%s],%s' % (vertices, json.dumps(rest, **_JSON_COMPACT)[1:])


def serialize_scenario(s: Scenario) -> str:
    """One-line JSON encoding such that ``parse_scenario(serialize_scenario(s)) == s``: keys in
    sorted order and no spaces, the bytes ``json.dumps(..., sort_keys=True, separators=(",",
    ":"))`` writes for the document. Each point and centerline vertex is written from one row
    template. A field not of its declared kind (an id that is not a string, a first t_index that is
    not an integer), a number of the agents or lanes that is not finite or exceeds MAX_ABS, or a
    negative point speed raises :class:`SchemaError` naming the scenario, since no line holding it
    would parse."""
    _check_fields(s, f"scenario {s.scenario_id}: ")
    columns = (s.xy, s.headings, s.speeds, *(c for lane in s.lanes for c in (lane.xy, lane.headings)))
    if not all(map(_bounded, columns)):
        raise SchemaError(f"scenario {s.scenario_id}: agents and lanes must hold finite numbers {WITHIN}")
    if (s.speeds < 0).any():
        raise SchemaError(f"scenario {s.scenario_id}: point speeds must be >= 0")
    agents = []
    x, y = s.xy[..., 0].tolist(), s.xy[..., 1].tolist()
    for a, (headings, speeds, valid) in enumerate(zip(s.headings.tolist(), s.speeds.tolist(), s.valid.tolist())):
        steps = range(s.t0[a], s.t0[a] + len(valid))
        rows = zip(headings, speeds, steps, map(_FLAGS.__getitem__, valid), x[a], y[a])
        head = json.dumps(s.agent_ids[a]), json.dumps(s.agent_kinds[a])
        agents.append('{"agent_id":%s,"agent_kind":%s,"points":[%s]}' % (*head, ",".join(map(_POINT.__mod__, rows))))
    h = s.horizon
    horizon = {"t_obs": h.t_obs, "t_pred": h.t_pred, "t_select": list(h.t_select), "dt": h.dt}
    scenario_type = "" if s.scenario_type is None else ',"scenario_type":' + json.dumps(s.scenario_type)
    return '{"agents":[%s],"focal_agent_id":%s,"horizon":%s,"lanes":[%s],"scenario_id":%s%s}' % (
        ",".join(agents),
        json.dumps(s.focal_agent_id),
        json.dumps(horizon, **_JSON_COMPACT),
        ",".join(map(_lane_text, s.lanes)),
        json.dumps(s.scenario_id),
        scenario_type,
    )
