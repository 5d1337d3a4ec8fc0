"""
JSON configuration ingestion with strict schema checking.

An empty document is a complete configuration: every field has a default
mirroring the standard scenario (nu1 = 10 GHz, delta = 63.5 MHz, J = 50 MHz,
1/gammap = 25 ns, 1/gamma0 = 2500 ns, 140/150 ns pulse train, 10 ms window,
4e6 T/m gradient at 1.14 nm spacing). Unknown keys are rejected, and
validation errors name the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .dynamics import DecoherenceRates, PulseSpec
from .errors import ConfigError
from .protocol import MAX_CYCLES, TunnelingParams
from .spin_core import (AnisotropyParams, MechanicsParams, PhysicalConstants,
                        SystemParams)

_SCHEMA = {
    "system": {"nu1": 10000.0, "nu2": 10063.5, "J": 50.0,
               "D2": 0.0, "D4": 0.0},
    "constants": {"g": 2.0023, "muB_over_h": 13996.245, "muB": 9.274e-24,
                  "k_spring": 70.0},
    "rates": {"gamma0": 4e-4, "gammap": 0.04},
    "pulse": {"omega0": None, "frequency": None,
              "duration": 140.0, "period": 150.0},
    "tunneling": {"t0": 150.0, "alpha": 0.0, "p_leak_source": 0.0,
                  "p_leak_drain": 0.0, "cycle_period": 150.0, "window": 1e7},
    "mechanics": {"gradient": 4e6, "spacing": 1.14e-9,
                  "coulomb_shift": 4e-12},
    "seed": 0,
    "output_dir": "out",
}


@dataclass(frozen=True)
class SimulationConfig:
    system: SystemParams
    aniso: AnisotropyParams
    rates: DecoherenceRates
    pulse: PulseSpec
    tunneling: TunnelingParams
    mechanics: MechanicsParams
    seed: int
    output_dir: str

    def to_dict(self) -> dict:
        out = {
            "system": {"nu1": self.system.nu1, "nu2": self.system.nu2,
                       "J": self.system.J, "D2": self.aniso.D2,
                       "D4": self.aniso.D4},
            "constants": asdict(self.system.constants),
            "rates": asdict(self.rates),
            "pulse": asdict(self.pulse),
            "tunneling": asdict(self.tunneling),
            "mechanics": asdict(self.mechanics),
            "seed": self.seed,
            "output_dir": self.output_dir,
        }
        return out


def _merge_section(name: str, raw: dict) -> dict:
    defaults = _SCHEMA[name]
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    merged = dict(defaults)
    merged.update(section)
    for key, value in merged.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}.{key}: expected a number")
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{name}.{key}: expected a finite number")
    return merged


def config_from_dict(raw: dict) -> SimulationConfig:
    """Validate a raw document and apply defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")

    def build(name, ctor, fields):
        merged = _merge_section(name, raw)
        try:
            return ctor(**{k: merged[k] for k in fields}), merged
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    constants, _ = build("constants", PhysicalConstants,
                         ("g", "muB_over_h", "muB", "k_spring"))
    sys_raw = _merge_section("system", raw)
    try:
        system = SystemParams(nu1=sys_raw["nu1"], nu2=sys_raw["nu2"],
                              J=sys_raw["J"], constants=constants)
        aniso = AnisotropyParams(D2=sys_raw["D2"], D4=sys_raw["D4"])
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc
    rates, _ = build("rates", DecoherenceRates, ("gamma0", "gammap"))

    pulse_raw = _merge_section("pulse", raw)
    try:
        if pulse_raw["omega0"] is None:
            pulse = PulseSpec.calibrated(pulse_raw["frequency"],
                                         duration=pulse_raw["duration"],
                                         period=pulse_raw["period"])
        else:
            pulse = PulseSpec(**pulse_raw)
    except ValueError as exc:
        raise ConfigError(f"pulse: {exc}") from exc

    tun_raw = _merge_section("tunneling", raw)
    field_checks = (
        ("t0", tun_raw["t0"] > 0, "must be positive"),
        ("alpha", 0 <= tun_raw["alpha"] < 1, "must lie in [0, 1)"),
        ("p_leak_source", 0 <= tun_raw["p_leak_source"] < 1,
         "must lie in [0, 1)"),
        ("p_leak_drain", 0 <= tun_raw["p_leak_drain"] < 1,
         "must lie in [0, 1)"),
        ("cycle_period", tun_raw["cycle_period"] >= tun_raw["t0"],
         "must be at least t0"),
        ("window", tun_raw["window"] >= tun_raw["cycle_period"],
         "must cover at least one cycle"),
    )
    for name, ok, why in field_checks:
        if not ok:
            raise ConfigError(f"tunneling.{name}: {why}")
    if not tun_raw["window"] // tun_raw["cycle_period"] <= MAX_CYCLES:
        raise ConfigError(f"tunneling.window: must hold at most {MAX_CYCLES} "
                          "cycles of cycle_period")
    tunneling = TunnelingParams(**tun_raw)
    mechanics, _ = build("mechanics", MechanicsParams,
                         ("gradient", "spacing", "coulomb_shift"))

    seed = raw.get("seed", _SCHEMA["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")
    output_dir = raw.get("output_dir", _SCHEMA["output_dir"])
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")
    if pulse.duration > tunneling.cycle_period:
        raise ConfigError("pulse.duration: exceeds tunneling.cycle_period")
    return SimulationConfig(system=system, aniso=aniso, rates=rates,
                            pulse=pulse, tunneling=tunneling,
                            mechanics=mechanics, seed=seed,
                            output_dir=output_dir)


def parse_config(path: str | Path | None) -> SimulationConfig:
    """Load and validate a JSON config file; None means all defaults."""
    if path is None:
        return config_from_dict({})
    text = Path(path).read_text()   # missing file propagates as io-error
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(raw)
