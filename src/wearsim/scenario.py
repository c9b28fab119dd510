"""Scenario files: a strict config schema resolved into a runnable plan.

A scenario is a YAML mapping with up to five sections: session, motion,
placement, protocol, interference.  Every key is checked; anything the
schema does not know is rejected by name so typos never silently fall
back to a default.  Loading resolves presets and seeds eagerly, so a
``Scenario`` value is self-contained: two equal scenarios produce
byte-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

import yaml

from .motion import NoiseModel, TrajectorySpec, preset_scenario
from .protocol import (BLE_MAX_SENSORS, DEFAULT_INITIAL_CHANNEL, DEFAULT_P_FLOOR,
                       ConfigError, HopPolicy, TimingProfile)
from .radio import DATA_CHANNELS, BtDevice, Jammer, WifiAp, preset_interferers
from .skeleton import JOINTS, SensorPlacement, placement_preset

Interferer = Any  # WifiAp | BtDevice | Jammer

_SECTIONS = ("session", "motion", "placement", "protocol", "interference")
_TIMING_KEYS = tuple(f.name for f in fields(TimingProfile))
_HOP_KEYS = tuple(f.name for f in fields(HopPolicy))
# The noise seed follows the session seed, so it is not a key.
_NOISE_KEYS = tuple(f.name for f in fields(NoiseModel) if f.name != "seed")

_REQUIRED = object()
# Integers beyond a C ssize_t overflow deque sizes and float conversion.
INT_LIMIT = 2**63 - 1
# One day: presets build their knots at parse time, in proportion to duration.
MAX_DURATION_S = 86_400.0


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run plan: presets expanded, seed applied."""

    duration_s: float
    seed: int
    motion_preset: str
    trajectory: TrajectorySpec
    placement: SensorPlacement
    noise: NoiseModel
    protocol_kind: str
    timing: TimingProfile
    policy: HopPolicy
    initial_channel: int
    p_floor: float
    interferers: tuple[Interferer, ...]

    @property
    def roster(self) -> tuple[int, ...]:
        return tuple(sorted(self.placement.bones))


def _mapping(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return dict(value)


def _reject_unknown(raw: Mapping, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where} "
                          f"(allowed: {', '.join(allowed)})")


def _checked(value: Any, name: str, kind: type, minimum: float | None = None,
             maximum: float | None = None) -> int | float:
    """value as given, if it is an int (kind int) or a number (kind float)
    that is not a bool, lies within +-(2**63 - 1) when an int, is finite
    when a float, and lies within the bounds given."""
    if isinstance(value, bool) or not isinstance(value, (int,) if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if isinstance(value, int) and abs(value) > INT_LIMIT:
        raise ConfigError(f"{name} must lie within +-(2**63 - 1)")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {value}")
    return value


def _read(raw: Mapping, key: str, where: str, kind: type, default: Any,
          minimum: float | None, maximum: float | None) -> Any:
    """raw[key] checked by _checked, or default when the key is absent."""
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"{where}.{key} is required")
        return default
    return _checked(raw[key], f"{where}.{key}", kind, minimum, maximum)


def _number(raw: Mapping, key: str, where: str, default: Any = _REQUIRED, *,
            minimum: float | None = None, maximum: float | None = None) -> float:
    return float(_read(raw, key, where, float, default, minimum, maximum))


def _integer(raw: Mapping, key: str, where: str, default: Any = _REQUIRED, *,
             minimum: int | None = None) -> int:
    return _read(raw, key, where, int, default, minimum, None)


def _override(base, raw: Mapping, allowed: tuple[str, ...], where: str):
    """Apply a field-subset override onto a frozen dataclass of numbers."""
    _reject_unknown(raw, allowed, where)
    updates = {}
    for key in raw:
        current = getattr(base, key)
        if isinstance(current, int):
            updates[key] = _integer(raw, key, where, minimum=0)
        else:
            updates[key] = _number(raw, key, where, minimum=0.0)
    if not updates:
        return base
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _noise(value: Any, seed: int) -> NoiseModel:
    if value == "zero":
        return replace(NoiseModel.zero(), seed=seed)
    return _override(NoiseModel(seed=seed), _mapping(value, "motion.noise"),
                     _NOISE_KEYS, "motion.noise")


def _source(item: Mapping, index: int, seed: int) -> Interferer:
    where = f"interference.sources[{index}]"
    kind = item.get("type")
    src_seed = _integer(item, "seed", where, default=seed * 1000 + index, minimum=0)
    try:
        if kind == "wifi":
            _reject_unknown(item, ("type", "channel", "duty", "mean_burst_ms", "seed"), where)
            return WifiAp(_integer(item, "channel", where),
                          _number(item, "duty", where, minimum=0.0, maximum=1.0),
                          _number(item, "mean_burst_ms", where, WifiAp.mean_burst_ms,
                                  minimum=1e-3),
                          seed=src_seed, name=f"wifi:{index}")
        if kind == "bt":
            _reject_unknown(item, ("type", "event_interval_ms", "burst_us", "seed"), where)
            return BtDevice(_number(item, "event_interval_ms", where,
                                    BtDevice.event_interval_ms, minimum=1e-3),
                            _number(item, "burst_us", where, BtDevice.burst_us, minimum=1e-3),
                            seed=src_seed, name=f"bt:{index}")
        if kind == "jam":
            _reject_unknown(item, ("type", "channel", "start_s"), where)
            return Jammer(_integer(item, "channel", where),
                          _number(item, "start_s", where, Jammer.start_s, minimum=0.0),
                          name=f"jam:{index}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.type must be 'wifi', 'bt', or 'jam', got {kind!r}")


def _interference(value: Any, seed: int) -> tuple[Interferer, ...]:
    raw = _mapping(value, "interference")
    if not raw:
        return ()
    _reject_unknown(raw, ("preset", "sources"), "interference")
    if "preset" in raw and "sources" in raw:
        raise ConfigError("interference takes either a preset or a sources list, not both")
    if "preset" in raw:
        try:
            return tuple(preset_interferers(raw["preset"], seed))
        except ValueError as exc:
            raise ConfigError(f"interference.preset: {exc}") from None
    sources = raw["sources"]
    if not isinstance(sources, list):
        raise ConfigError("interference.sources must be a list")
    return tuple(_source(_mapping(item, f"interference.sources[{i}]"), i, seed)
                 for i, item in enumerate(sources))


def parse_scenario(cfg: Any, *, seed: int | None = None) -> Scenario:
    """Validate a parsed scenario mapping and resolve it to a plan.

    ``seed`` overrides session.seed when given (the --seed flag) and is
    checked by the same rule; every derived stream (noise, mounting
    offsets, interferers, protocol draws) follows the override.
    """
    cfg = _mapping(cfg, "scenario")
    _reject_unknown(cfg, _SECTIONS, "scenario")

    session = _mapping(cfg.get("session"), "session")
    _reject_unknown(session, ("duration_s", "seed"), "session")
    run_seed = (_checked(seed, "--seed", int, minimum=0) if seed is not None
                else _integer(session, "seed", "session", 0, minimum=0))

    motion = _mapping(cfg.get("motion"), "motion")
    _reject_unknown(motion, ("preset", "params", "noise"), "motion")
    preset = motion.get("preset")
    if not isinstance(preset, str):
        raise ConfigError("motion.preset is required and must be a string")
    raw_params = _mapping(motion.get("params"), "motion.params")
    params = {key: _number(raw_params, key, "motion.params", minimum=1e-3,
                           maximum=MAX_DURATION_S) if key in ("duration_s", "dwell_s")
              else _integer(raw_params, key, "motion.params") if key == "sensors"
              else _checked(raw_params[key], f"motion.params.{key}", float)
              for key in raw_params}
    try:
        trajectory, placement = preset_scenario(preset, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    noise = _noise(motion.get("noise"), run_seed)

    placement_cfg = _mapping(cfg.get("placement"), "placement")
    _reject_unknown(placement_cfg, ("preset",), "placement")
    if "preset" in placement_cfg:
        name = placement_cfg["preset"]
        if not isinstance(name, str):
            raise ConfigError("placement.preset must be a string")
        try:
            placement = placement_preset(name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for label in trajectory.joints:
            try:
                placement.joint_sensors(JOINTS[label])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    duration_s = _number(session, "duration_s", "session",
                         trajectory.duration_s, minimum=1e-3, maximum=MAX_DURATION_S)
    if duration_s != trajectory.duration_s:
        trajectory = replace(trajectory, duration_s=duration_s)
    # A reading at t turns its sensor by drift_deg_per_min * t / 60 deg, and
    # t runs up to duration_s: an infinite product would reach sin(inf).
    if not math.isfinite(noise.drift_deg_per_min * duration_s):
        raise ConfigError(f"motion.noise.drift_deg_per_min times duration_s {duration_s:g} "
                          f"overflows, got {noise.drift_deg_per_min!r}")

    proto = _mapping(cfg.get("protocol"), "protocol")
    _reject_unknown(proto, ("kind", "initial_channel", "p_floor", "timing", "hop"),
                    "protocol")
    kind = proto.get("kind", "cw")
    if kind not in ("cw", "ble-baseline"):
        raise ConfigError(f"protocol.kind must be 'cw' or 'ble-baseline', got {kind!r}")
    timing = _override(TimingProfile(), _mapping(proto.get("timing"), "protocol.timing"),
                       _TIMING_KEYS, "protocol.timing")
    policy = _override(HopPolicy(), _mapping(proto.get("hop"), "protocol.hop"),
                       _HOP_KEYS, "protocol.hop")
    initial_channel = _integer(proto, "initial_channel", "protocol",
                               DEFAULT_INITIAL_CHANNEL, minimum=0)
    if initial_channel not in DATA_CHANNELS:
        raise ConfigError(
            f"protocol.initial_channel {initial_channel} is not a data channel")
    p_floor = _number(proto, "p_floor", "protocol", DEFAULT_P_FLOOR,
                      minimum=0.0, maximum=0.999)
    if kind == "ble-baseline" and len(placement.bones) > BLE_MAX_SENSORS:
        raise ConfigError(
            f"ble-baseline supports at most {BLE_MAX_SENSORS} sensors; placement "
            f"{placement.name!r} has {len(placement.bones)}")

    interferers = _interference(cfg.get("interference"), run_seed)

    return Scenario(duration_s=duration_s, seed=run_seed, motion_preset=preset,
                    trajectory=trajectory, placement=placement, noise=noise,
                    protocol_kind=kind, timing=timing, policy=policy,
                    initial_channel=initial_channel, p_floor=p_floor,
                    interferers=interferers)


def load_scenario(path: str | Path, *, seed: int | None = None) -> Scenario:
    """Read and resolve a scenario file.

    YAML syntax errors propagate as yaml.YAMLError (a parse failure,
    not a config one); everything schema-related raises ConfigError.
    """
    cfg = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    return parse_scenario(cfg, seed=seed)
