"""Experiment configuration: JSON loading, centralized defaults, resolution.

The dataclass field annotations are the schema: they drive the JSON builder,
the type check that runs before any range check, and the ``resolved()`` echo.
"""
from __future__ import annotations

import contextvars
import dataclasses
import functools
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from pathlib import Path

from .errors import ConfigError
from .geometry import ASSOCIATION_MODES, Area
from .optics import FiberParams, Scheme, SchemeParams
from .power import PowerParams
from .wireless import (
    DIGITIZATION_BITS_PER_SAMPLE_PAIR,
    ChannelModel,
    OverheadModel,
)


def _default_fiber_grid() -> tuple[float, ...]:
    return tuple(round(0.25 * i, 6) for i in range(0, 101))  # 0..25 km


@dataclass(frozen=True)
class SweepParams:
    """Axes and knobs for the four sweep kinds; unused fields are ignored.

    The throughput sweep defaults to the case study's literal UDN reading
    (every RAP transmits toward its closest UE); the geometry module's
    default elsewhere stays ``ue_nearest``.
    """

    fiber_km: tuple[float, ...] = field(default_factory=_default_fiber_grid)
    frequencies_hz: tuple[float, ...] = (10e9, 20e9, 30e9)
    m_values: tuple[int, ...] = (16, 32, 64, 128, 256)
    association_mode: str = "rap_nearest"
    power_num_raps: int = 1
    power_p_tx_w: float = 1.0
    crossover_range_km: tuple[float, float] = (0.5, 25.0)
    array_elements: int = 8
    array_spacing_m: float | None = None  # None: half wavelength at band start
    steer_theta_deg: float = 30.0
    band_hz: tuple[float, float] = (10e9, 20e9)
    num_band_points: int = 5
    theta_grid_deg: tuple[float, float, float] = (-90.0, 90.0, 0.1)

    def __post_init__(self):
        for name in ("fiber_km", "frequencies_hz", "m_values"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if any(f <= 0 for f in self.frequencies_hz):
            raise ConfigError(f"frequencies_hz must be > 0, got {self.frequencies_hz!r}")
        if self.association_mode not in ASSOCIATION_MODES:
            raise ConfigError(f"association_mode must be one of {list(ASSOCIATION_MODES)}, "
                              f"got {self.association_mode!r}")
        if any(m < 1 for m in self.m_values):
            raise ConfigError(f"m_values must be integers >= 1, got {self.m_values!r}")
        if len(set(self.m_values)) != len(self.m_values):
            raise ConfigError(f"m_values has duplicates: {self.m_values!r}")
        if self.num_band_points < 1:
            raise ConfigError(f"num_band_points must be an integer >= 1, "
                              f"got {self.num_band_points!r}")
        if not 0 < self.band_hz[0] <= self.band_hz[1]:
            raise ConfigError(f"band_hz must satisfy 0 < start <= stop, got {self.band_hz!r}")
        start, stop, step = self.theta_grid_deg
        if step == 0 or (stop - start) * step < 0:
            raise ConfigError("theta_grid_deg step must be nonzero and lead from start to "
                              f"stop, got {self.theta_grid_deg!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Area = field(default_factory=Area)
    fiber: FiberParams = field(default_factory=FiberParams)
    schemes: tuple[Scheme, ...] = (Scheme.BBOF, Scheme.IFOF, Scheme.RFOF)
    scheme_params: SchemeParams = field(default_factory=SchemeParams)
    power: PowerParams = field(default_factory=PowerParams)
    channel: ChannelModel = field(default_factory=ChannelModel)
    overhead: OverheadModel = field(default_factory=OverheadModel)
    sweep: SweepParams = field(default_factory=SweepParams)
    digitization_bits_per_sample_pair: float = DIGITIZATION_BITS_PER_SAMPLE_PAIR
    budget_w: float = 2100.0
    monte_carlo_drops: int = 100
    base_seed: int = 1

    def __post_init__(self):
        if not _PRECHECKED.get():  # a JSON build checked each value on the way in
            _checked(self, ExperimentConfig, "")
        if not self.schemes:
            raise ConfigError("schemes list must be nonempty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError(
                f"schemes has duplicates: {[Scheme(s).value for s in self.schemes]}"
            )
        for name, least in (("monte_carlo_drops", 1), ("base_seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if self.budget_w <= 0:
            raise ConfigError(f"budget_w must be finite and > 0, got {self.budget_w!r}")

    def resolved(self) -> dict:
        """Every knob, defaults included, as plain JSON-ready values."""
        return _plain(self)

    def config_hash(self) -> str:
        return hash_resolved(self.resolved())


def hash_resolved(resolved: dict) -> str:
    """The 12-hex-digit digest of a ``resolved()`` echo."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


_FLOAT_MAX = sys.float_info.max
_PRECHECKED = contextvars.ContextVar("prechecked", default=False)  # building checked values
_NUMBERS = {int: ((int,), Integral, "an integer"), float: ((float, int), Real, "a number")}
_field_hints = functools.cache(typing.get_type_hints)  # field name -> evaluated annotation


def _check_numbers(values, hint, where: str, indexed: bool) -> None:
    """Hold each of ``values``, in one pass, to a config int (a non-bool
    Integral) or float (a non-bool finite Real)."""
    exact, kind, noun = _NUMBERS[hint]
    for i, v in enumerate(values):
        if type(v) not in exact and (isinstance(v, bool) or not isinstance(v, kind)):
            fault = f"must be {noun}"
        elif hint is float and not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            fault = "must be finite"
        else:
            continue
        raise ConfigError(f"{where}{f'[{i}]' if indexed else ''} {fault}, got {v!r}")


def _checked(value, hint, where: str):
    """``value`` held to the annotation ``hint``: lists become tuples, names become
    enum members and objects become groups; anything else is a ConfigError."""
    if hint in (int, float):
        _check_numbers((value,), hint, where, indexed=False)
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:  # homogeneous: tuple[X, ...] or tuple[X, X, ...]
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            count = f" of {size} items" if size else ""
            raise ConfigError(f"{where} must be a list{count}, got {value!r}")
        if args[0] in (int, float):
            _check_numbers(value, args[0], where, indexed=True)
            return tuple(value)
        return tuple(_checked(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if type(None) in args:  # X | None
        return None if value is None else _checked(value, args[0], where)
    if dataclasses.is_dataclass(hint):  # a group: a JSON object, or an instance to check
        hints = _field_hints(hint)
        if isinstance(value, hint):
            for name, field_hint in hints.items():
                _checked(getattr(value, name), field_hint, f"{where}.{name}".lstrip("."))
            return value
        place = f"config group {where!r}" if where else "the top-level config"
        if not isinstance(value, dict):
            raise ConfigError(f"{place} must be an object")
        unknown = set(value) - set(hints)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {place}")
        values = {  # every value is checked before the group's own range checks run
            key: _checked(v, hints[key], f"{where}.{key}".lstrip("."))
            for key, v in value.items()
        }
        token = _PRECHECKED.set(True)
        try:
            return hint(**values)
        finally:
            _PRECHECKED.reset(token)
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            names = [m.value for m in hint]
            raise ConfigError(f"{where} must be one of {names}, got {value!r}") from None
    if not isinstance(value, hint):
        raise ConfigError(f"{where} must be a {hint.__name__}, got {value!r}")
    return value


def _plain(value):
    """Dataclasses as dicts, tuples as lists, enum members as their values."""
    if dataclasses.is_dataclass(value):
        return {name: _plain(getattr(value, name)) for name in _field_hints(type(value))}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def config_from_dict(data: dict) -> ExperimentConfig:
    return _checked(data, ExperimentConfig, "")


def load_config(
    path: str | Path | None,
    seed: int | None = None,
    drops: int | None = None,
) -> ExperimentConfig:
    """Read a JSON config (all keys optional) and apply CLI overrides."""
    if path is None:
        data: dict = {}
    else:
        try:
            with open(path, "r") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("top-level config must be a JSON object")
    overrides = {"base_seed": seed, "monte_carlo_drops": drops}
    data.update((key, value) for key, value in overrides.items() if value is not None)
    return config_from_dict(data)
