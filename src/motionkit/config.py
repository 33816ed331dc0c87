"""Resolved run configuration: every threshold/parameter structure with defaults.

A config file is a JSON object whose top-level keys mirror the structures
below; unknown keys fail fast so typos cannot silently fall back to defaults.
Each section is decoded as a record of its structure, so the structure's
declaration gives the kind of each field. The fully resolved config is echoed
into every JSON report for provenance.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .attributes import (
    ACCEL_THRESHOLDS_KMH,
    DEFAULT_COLLAPSE,
    SPEED_THRESHOLDS_KMH,
    DirectionLabel,
    DirectionThresholds,
    FineDirection,
    LabelRules,
)
from .behavior import BehaviorParams
from .core import HorizonConfig, _check_fields, _is_int, _record_from_obj, _reject_extra
from .errors import ConfigError, MotionKitError, SchemaError
from .feasibility import FeasibilityParams


@dataclass(frozen=True)
class SamplerDefaults:
    """The defaults of ``gen-instructions --balanced`` and ``--seed``; the mixture is ``--mix``."""

    class_balanced: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class Config:
    horizon: HorizonConfig = field(default_factory=HorizonConfig)
    rules: LabelRules = field(default_factory=LabelRules)
    feasibility: FeasibilityParams = field(default_factory=FeasibilityParams)
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    sampler: SamplerDefaults = field(default_factory=SamplerDefaults)
    jobs: int = 1
    guidelines: Optional[str] = None

    def to_obj(self) -> dict:
        """The resolved config in the config-file format."""
        return {
            "horizon": dataclasses.asdict(self.horizon),
            "direction": dataclasses.asdict(self.rules.direction),
            "speed_thresholds_kmh": list(self.rules.speed_kmh),
            "accel_thresholds_kmh": list(self.rules.accel_kmh),
            "direction_collapse": {k.value: v.value for k, v in self.rules.collapse.items()},
            "feasibility": dataclasses.asdict(self.feasibility),
            "behavior": dataclasses.asdict(self.behavior),
            "sampler": dataclasses.asdict(self.sampler),
            "jobs": self.jobs,
            "guidelines": self.guidelines,
        }


_KEYS = frozenset(Config().to_obj())


def _build(cls, obj: dict, key: str):
    """The section under ``key`` (empty when absent) decoded as a ``cls``."""
    try:
        return _record_from_obj(cls, obj.get(key, {}))
    except (MotionKitError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(path: Optional[str] = None) -> Config:
    """Build a config from an optional JSON config file; absent keys keep their defaults."""
    obj: dict = {}
    if path is not None:
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    try:
        _reject_extra(obj, _KEYS, "config")
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc

    collapse = dict(DEFAULT_COLLAPSE)
    if "direction_collapse" in obj:
        if not isinstance(obj["direction_collapse"], dict):
            raise ConfigError("direction_collapse: must be an object")
        try:
            collapse = {FineDirection(k): DirectionLabel(v) for k, v in obj["direction_collapse"].items()}
        except ValueError as exc:
            raise ConfigError(f"direction_collapse: {exc}") from exc
        missing = set(FineDirection) - set(collapse)
        if missing:
            raise ConfigError(f"direction_collapse must map all fine classes; missing {sorted(m.value for m in missing)}")

    jobs = obj.get("jobs", 1)
    if not _is_int(jobs) or jobs < 1:
        raise ConfigError("jobs must be a positive integer")
    guidelines = obj.get("guidelines")
    if guidelines is not None and not isinstance(guidelines, str):
        raise ConfigError("guidelines must be a path string")

    horizon = _build(HorizonConfig, obj, "horizon")
    direction = _build(DirectionThresholds, obj, "direction")
    try:
        rules = LabelRules(
            direction,
            collapse,
            obj.get("speed_thresholds_kmh", SPEED_THRESHOLDS_KMH),
            obj.get("accel_thresholds_kmh", ACCEL_THRESHOLDS_KMH),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Config(
        horizon=horizon,
        rules=rules,
        feasibility=_build(FeasibilityParams, obj, "feasibility"),
        behavior=_build(BehaviorParams, obj, "behavior"),
        sampler=_build(SamplerDefaults, obj, "sampler"),
        jobs=jobs,
        guidelines=guidelines,
    )
