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
    SPEED_THRESHOLDS_KMH,
    DirectionLabel,
    DirectionThresholds,
    FineDirection,
    DEFAULT_COLLAPSE,
    LabelRules,
)
from .behavior import BehaviorParams
from .core import HorizonConfig
from .errors import ConfigError, MotionKitError
from .feasibility import FeasibilityParams
from .instructions import SamplerConfig


@dataclass(frozen=True)
class Config:
    horizon: HorizonConfig = field(default_factory=HorizonConfig)
    direction: DirectionThresholds = field(default_factory=DirectionThresholds)
    speed_thresholds_kmh: tuple[float, ...] = SPEED_THRESHOLDS_KMH
    accel_thresholds_kmh: tuple[float, ...] = ACCEL_THRESHOLDS_KMH
    direction_collapse: dict[FineDirection, DirectionLabel] = field(
        default_factory=lambda: dict(DEFAULT_COLLAPSE)
    )
    feasibility: FeasibilityParams = field(default_factory=FeasibilityParams)
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    jobs: int = 1
    guidelines: Optional[str] = None

    @property
    def rules(self) -> LabelRules:
        """The labelling rules every command applies."""
        return LabelRules(
            self.direction, self.direction_collapse, self.speed_thresholds_kmh, self.accel_thresholds_kmh
        )

    def to_obj(self) -> dict:
        return {
            "horizon": {
                "t_obs": self.horizon.t_obs,
                "t_pred": self.horizon.t_pred,
                "t_select": list(self.horizon.t_select),
                "dt": self.horizon.dt,
            },
            "direction": dataclasses.asdict(self.direction),
            "speed_thresholds_kmh": list(self.speed_thresholds_kmh),
            "accel_thresholds_kmh": list(self.accel_thresholds_kmh),
            "direction_collapse": {k.value: v.value for k, v in self.direction_collapse.items()},
            "feasibility": dataclasses.asdict(self.feasibility),
            "behavior": dataclasses.asdict(self.behavior),
            "sampler": dataclasses.asdict(self.sampler),
            "jobs": self.jobs,
            "guidelines": self.guidelines,
        }


def _build(cls, obj: dict, where: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - fields
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    try:
        return cls(**obj)
    except (MotionKitError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> Config:
    """Build a config from an optional JSON file plus flag overrides.

    ``overrides`` uses the same top-level keys as the file and wins over it.
    """
    obj: dict = {}
    if path is not None:
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    if overrides:
        obj = {**obj, **{k: v for k, v in overrides.items() if v is not None}}

    known = {
        "horizon",
        "direction",
        "speed_thresholds_kmh",
        "accel_thresholds_kmh",
        "direction_collapse",
        "feasibility",
        "behavior",
        "sampler",
        "jobs",
        "guidelines",
    }
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"config: unknown key(s) {sorted(unknown)}")

    collapse = dict(DEFAULT_COLLAPSE)
    if "direction_collapse" in obj:
        try:
            collapse = {FineDirection(k): DirectionLabel(v) for k, v in obj["direction_collapse"].items()}
        except (ValueError, AttributeError) as exc:
            raise ConfigError(f"direction_collapse: {exc}") from exc
        missing = set(FineDirection) - set(collapse)
        if missing:
            raise ConfigError(f"direction_collapse must map all fine classes; missing {sorted(m.value for m in missing)}")

    horizon_obj = dict(obj.get("horizon", {}))
    if "t_select" in horizon_obj:
        horizon_obj["t_select"] = tuple(horizon_obj["t_select"])
    jobs = obj.get("jobs", 1)
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError("jobs must be a positive integer")
    guidelines = obj.get("guidelines")
    if guidelines is not None and not isinstance(guidelines, str):
        raise ConfigError("guidelines must be a path string")

    return Config(
        horizon=_build(HorizonConfig, horizon_obj, "horizon"),
        direction=_build(DirectionThresholds, dict(obj.get("direction", {})), "direction"),
        speed_thresholds_kmh=tuple(obj.get("speed_thresholds_kmh", SPEED_THRESHOLDS_KMH)),
        accel_thresholds_kmh=tuple(obj.get("accel_thresholds_kmh", ACCEL_THRESHOLDS_KMH)),
        direction_collapse=collapse,
        feasibility=_build(FeasibilityParams, dict(obj.get("feasibility", {})), "feasibility"),
        behavior=_build(BehaviorParams, dict(obj.get("behavior", {})), "behavior"),
        sampler=_build(SamplerConfig, dict(obj.get("sampler", {})), "sampler"),
        jobs=jobs,
        guidelines=guidelines,
    )
