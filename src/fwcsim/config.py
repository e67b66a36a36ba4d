"""Experiment configuration: JSON loading, centralized defaults, resolution.

The dataclass field annotations are the schema: they drive the JSON builder,
the type check that runs before any range check (also for the config and its
groups built in Python), and the ``resolved()`` echo.
"""
from __future__ import annotations

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

from .errors import ValidationError
from .geometry import ASSOCIATION_MODES, Area
from .optics import FiberParams, Scheme, SchemeParams
from .power import PowerParams
from .tables import _json_ready
from .wireless import (
    DIGITIZATION_BITS_PER_SAMPLE_PAIR,
    ChannelModel,
    OverheadModel,
)


@dataclass(frozen=True)
class SweepParams:
    """Axes and knobs for the four sweep kinds; every field is checked, and
    each kind ignores the fields of the others.

    The throughput sweep defaults to the case study's literal UDN reading
    (every RAP transmits toward its closest UE).
    """

    fiber_km: tuple[float, ...] = tuple(round(0.25 * i, 6) for i in range(101))  # 0..25 km
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
                raise ValidationError(f"{name} must be nonempty")
        if any(f <= 0 for f in self.frequencies_hz):
            raise ValidationError(f"frequencies_hz must be > 0, got {self.frequencies_hz!r}")
        if self.association_mode not in ASSOCIATION_MODES:
            raise ValidationError(f"association_mode must be one of {list(ASSOCIATION_MODES)}, "
                                  f"got {self.association_mode!r}")
        if any(m < 1 for m in self.m_values):
            raise ValidationError(f"m_values must be integers >= 1, got {self.m_values!r}")
        if len(set(self.m_values)) != len(self.m_values):
            raise ValidationError(f"m_values has duplicates: {self.m_values!r}")
        for name in ("power_num_raps", "array_elements", "num_band_points"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be an integer >= 1, "
                                      f"got {getattr(self, name)!r}")
        if any(km < 0 for km in self.fiber_km):
            raise ValidationError(f"fiber_km must be >= 0, got {self.fiber_km!r}")
        if self.power_p_tx_w < 0:
            raise ValidationError(f"power_p_tx_w must be >= 0, got {self.power_p_tx_w!r}")
        if not 0 <= self.crossover_range_km[0] < self.crossover_range_km[1]:
            raise ValidationError("crossover_range_km must satisfy 0 <= start < stop, "
                                  f"got {self.crossover_range_km!r}")
        if self.array_spacing_m is not None and self.array_spacing_m <= 0:
            raise ValidationError("array_spacing_m must be > 0 or null, "
                                  f"got {self.array_spacing_m!r}")
        if not -90.0 <= self.steer_theta_deg <= 90.0:
            raise ValidationError("steer_theta_deg must be in [-90, 90], "
                                  f"got {self.steer_theta_deg}")
        if not 0 < self.band_hz[0] <= self.band_hz[1]:
            raise ValidationError(f"band_hz must satisfy 0 < start <= stop, got {self.band_hz!r}")
        start, stop, step = self.theta_grid_deg
        if step == 0 or (stop - start) * step < 0:
            raise ValidationError("theta_grid_deg step must be nonzero and lead from start to "
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

    def __post_init__(self):  # the range checks, after the type checks
        if not self.schemes:
            raise ValidationError("schemes list must be nonempty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValidationError(f"schemes has duplicates: {[s.value for s in self.schemes]}")
        for name, least in (("monte_carlo_drops", 1), ("base_seed", 0)):
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be >= {least}")
        if self.budget_w <= 0:
            raise ValidationError(f"budget_w must be finite and > 0, got {self.budget_w!r}")
        if self.digitization_bits_per_sample_pair <= 0:
            raise ValidationError("digitization_bits_per_sample_pair must be > 0, "
                                  f"got {self.digitization_bits_per_sample_pair!r}")

    def resolved(self) -> dict:
        """Every knob, defaults included, as plain JSON-ready values."""
        return _json_ready(self)


def hash_resolved(resolved: dict) -> str:
    """The 12-hex-digit digest of a ``resolved()`` echo."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


_FLOAT_MAX = sys.float_info.max
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
        raise ValidationError(f"{where}{f'[{i}]' if indexed else ''} {fault}, got {v!r}")


def _checked(value, hint, where: str):
    """``value`` held to the annotation ``hint``: lists become tuples, names become
    enum members, objects become groups (whose ``__post_init__`` checks their
    values) and a group instance stays as it is; anything else is a
    ValidationError."""
    if hint in (int, float):
        _check_numbers((value,), hint, where, indexed=False)
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:  # homogeneous: tuple[X, ...] or tuple[X, X, ...]
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            count = f" of {size} items" if size else ""
            raise ValidationError(f"{where} must be a list{count}, got {value!r}")
        if args[0] in (int, float):
            _check_numbers(value, args[0], where, indexed=True)
            return tuple(value)
        return tuple(_checked(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if type(None) in args:  # X | None
        return None if value is None else _checked(value, args[0], where)
    if dataclasses.is_dataclass(hint):  # a group: an instance, or a JSON object
        if isinstance(value, hint):  # its own __post_init__ has checked it
            return value
        place = f"config group {where!r}" if where else "the top-level config"
        if not isinstance(value, dict):
            raise ValidationError(f"{place} must be an object")
        unknown = set(value) - set(_field_hints(hint))
        if unknown:
            raise ValidationError(f"unknown key(s) {sorted(unknown)} in {place}")
        return hint(**value)
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            names = [m.value for m in hint]
            raise ValidationError(f"{where} must be one of {names}, got {value!r}") from None
    if not isinstance(value, hint):
        raise ValidationError(f"{where} must be a {hint.__name__}, got {value!r}")
    return value


_GROUPS: dict[type, tuple] = {}  # group -> (own __post_init__, key, (name, hint, default)s)


def _typed_post_init(self) -> None:
    """The ``__post_init__`` of the config and its groups: each field held to its
    annotation, so a value of the wrong type is a ValidationError that names its
    key before any range check runs, then the group's own range checks. A value
    that is its field's declared default is taken as it is: the defaults are
    constants of their annotations' types."""
    range_checks, key, fields = _GROUPS[type(self)]
    for name, hint, default in fields:
        value = getattr(self, name)
        if value is not default:
            object.__setattr__(self, name, _checked(value, hint, f"{key}.{name}".lstrip(".")))
    range_checks(self)


for _key, _group in (("", ExperimentConfig), *_field_hints(ExperimentConfig).items()):
    if dataclasses.is_dataclass(_group):
        _GROUPS[_group] = _group.__post_init__, _key, tuple(
            (f.name, _field_hints(_group)[f.name], f.default) for f in dataclasses.fields(_group))
        _group.__post_init__ = _typed_post_init


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
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("top-level config must be a JSON object")
    overrides = {"base_seed": seed, "monte_carlo_drops": drops}
    data.update((key, value) for key, value in overrides.items() if value is not None)
    return config_from_dict(data)
