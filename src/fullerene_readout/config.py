"""
JSON configuration ingestion with strict schema checking.

An empty document is a complete configuration of the standard scenario,
the one `SimulationConfig()` builds. Each section of the document is one
params dataclass, and that dataclass is the only source of the section's
keys, their defaults and their checks. Unknown keys are rejected, and
validation errors name the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .dynamics import DecoherenceRates, PulseSpec
from .errors import ConfigError, require
from .protocol import TunnelingParams
from .spin_core import MechanicsParams, PhysicalConstants, SystemParams


def _defaults(cls) -> dict:
    """The fields of `cls` that have a default: its config keys."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


@dataclass(frozen=True)
class SimulationConfig:
    system: SystemParams = field(default_factory=SystemParams)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    rates: DecoherenceRates = field(default_factory=DecoherenceRates)
    pulse: PulseSpec = field(default_factory=PulseSpec)
    tunneling: TunnelingParams = field(default_factory=TunnelingParams)
    mechanics: MechanicsParams = field(default_factory=MechanicsParams)
    seed: int = 0

    def __post_init__(self):
        require(type(self.seed) is int and self.seed >= 0, "seed",
                "expected a non-negative integer")
        require(self.pulse.duration <= self.tunneling.cycle_period,
                "pulse.duration", "exceeds tunneling.cycle_period")


# Each section of the document, in manifest order, and the dataclass it
# fills: the SimulationConfig fields built by a default factory.
_SECTIONS = {f.name: f.default_factory for f in fields(SimulationConfig)
             if f.default_factory is not MISSING}


def _section(name: str, raw: dict) -> dict:
    """The keys a document sets in one section, type-checked."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    defaults = _defaults(_SECTIONS[name])
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    for key, value in section.items():
        if value is None and defaults[key] is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}.{key}: expected a number")
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{name}.{key}: expected a finite number")
    return section


def config_from_dict(raw: dict) -> SimulationConfig:
    """Validate a raw document and apply defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(raw) - set(_SECTIONS) - set(_defaults(SimulationConfig))
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")
    sections = {name: _section(name, raw) for name in _SECTIONS}
    params = {}
    for name, cls in _SECTIONS.items():
        try:
            params[name] = cls(**sections[name])
        except ValueError as exc:
            raise ConfigError(f"{name}.{exc}") from exc
    top = {k: v for k, v in raw.items() if k not in _SECTIONS}
    try:
        return SimulationConfig(**params, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | Path | None) -> SimulationConfig:
    """Load and validate a JSON config file; None means all defaults."""
    if path is None:
        return SimulationConfig()
    text = Path(path).read_text()   # missing file propagates as io-error
    try:
        raw = json.loads(text) if text.strip() else {}
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(raw)
