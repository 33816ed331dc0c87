"""Resolved run configuration: every threshold/parameter structure with defaults.

A config file is a JSON object whose top-level keys mirror the structures
below; unknown keys fail fast so typos cannot silently fall back to defaults.
The fully resolved config is echoed into every JSON report for provenance.
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
from .core import HorizonConfig, _is_int, _is_number
from .errors import ConfigError, MotionKitError
from .feasibility import FeasibilityParams


@dataclass(frozen=True)
class SamplerDefaults:
    """The defaults of ``gen-instructions --balanced`` and ``--seed``; the mixture is ``--mix``."""

    class_balanced: bool = True
    seed: int = 0


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


def _section(obj: dict, key: str) -> dict:
    """The object under ``key`` (empty when absent)."""
    section = obj.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: must be an object")
    return section


# The JSON values a field accepts, by the type of its default: flags take only
# booleans and numbers never do; numbers are finite floats. The one tuple is t_select.
_ACCEPTS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (_is_number, "a number"),
    tuple: (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def _build(cls, obj: dict, key: str):
    section = _section(obj, key)
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(section) - set(fields)
    if unknown:
        raise ConfigError(f"{key}: unknown key(s) {sorted(unknown)}")
    for name, value in section.items():
        accepts, expected = _ACCEPTS[type(fields[name])]
        if not accepts(value):
            raise ConfigError(f"{key}: {name} must be {expected}, got {json.dumps(value)}")
    try:
        return cls(**section)
    except (MotionKitError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(path: Optional[str] = None) -> Config:
    """Build a config from an optional JSON config file; absent keys keep their defaults."""
    obj: dict = {}
    if path is not None:
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(obj) - _KEYS
    if unknown:
        raise ConfigError(f"config: unknown key(s) {sorted(unknown)}")

    collapse = dict(DEFAULT_COLLAPSE)
    if "direction_collapse" in obj:
        try:
            collapse = {FineDirection(k): DirectionLabel(v) for k, v in _section(obj, "direction_collapse").items()}
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
