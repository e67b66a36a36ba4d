"""Experiment configuration: JSON loading, centralized defaults, resolution.

The dataclass field annotations are the schema: they drive the JSON builder,
the one pass that holds each value to its type and bound, such as
``Annotated[float, "in (0, 1]"]`` (also for a config built in Python), and the
``resolved()`` echo. A group's own ``__post_init__`` only relates items.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import reprlib
import sys
import typing
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import Annotated

from .errors import ValidationError
from .geometry import AssociationMode, Area
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

    fiber_km: tuple[Annotated[float, ">= 0"], ...] = tuple(0.25 * i for i in range(101))  # 0..25
    frequencies_hz: tuple[Annotated[float, "> 0"], ...] = (10e9, 20e9, 30e9)
    m_values: tuple[Annotated[int, ">= 1"], ...] = (16, 32, 64, 128, 256)
    association_mode: AssociationMode = "rap_nearest"
    power_num_raps: Annotated[int, ">= 1"] = 1
    power_p_tx_w: Annotated[float, ">= 0"] = 1.0
    crossover_range_km: tuple[Annotated[float, ">= 0"], Annotated[float, ">= 0"]] = (0.5, 25.0)
    array_elements: Annotated[int, ">= 1"] = 8
    array_spacing_m: Annotated[float, "> 0"] | None = None  # None: half wavelength at band start
    steer_theta_deg: Annotated[float, "in [-90, 90]"] = 30.0
    band_hz: tuple[Annotated[float, "> 0"], Annotated[float, "> 0"]] = (10e9, 20e9)
    num_band_points: Annotated[int, ">= 1"] = 5
    theta_grid_deg: tuple[float, float, float] = (-90.0, 90.0, 0.1)

    def __post_init__(self):
        for name in ("fiber_km", "frequencies_hz", "m_values"):
            _listed(getattr(self, name), f"sweep.{name}", distinct=name == "m_values")
        if not self.crossover_range_km[0] < self.crossover_range_km[1]:
            raise ValidationError("sweep.crossover_range_km must satisfy start < stop, "
                                  f"got {self.crossover_range_km!r}")
        if not self.band_hz[0] <= self.band_hz[1]:
            raise ValidationError("sweep.band_hz must satisfy start <= stop, "
                                  f"got {self.band_hz!r}")
        start, stop, step = self.theta_grid_deg
        if step == 0 or (stop - start) * math.copysign(1.0, step) < 0:
            raise ValidationError("sweep.theta_grid_deg step must be nonzero and lead from start "
                                  f"to stop, got {self.theta_grid_deg!r}")


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
    digitization_bits_per_sample_pair: Annotated[float, "> 0"] = (
        DIGITIZATION_BITS_PER_SAMPLE_PAIR)
    budget_w: Annotated[float, "> 0"] = 2100.0
    monte_carlo_drops: Annotated[int, ">= 1"] = 100
    base_seed: Annotated[int, ">= 0"] = 1

    def __post_init__(self):  # the checks that relate items, after each is held to its bound
        _listed(tuple(scheme.value for scheme in self.schemes), "schemes")

    def resolved(self) -> dict:
        """Every knob, defaults included, as plain JSON-ready values."""
        return _json_ready(self)


def hash_resolved(resolved: dict) -> str:
    """The 12-hex-digit digest of a ``resolved()`` echo."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _listed(values: tuple, where: str, distinct: bool = True) -> None:
    """``values`` nonempty and, if ``distinct``, free of repeats, one named by its index."""
    if not values:
        raise ValidationError(f"{where} must be nonempty")
    if distinct and len(set(values)) < len(values):
        i, v = next((i, v) for i, v in enumerate(values) if values.index(v) < i)
        raise ValidationError(f"{where}[{i}] must be distinct, got {_shown(v)} again")


_FLOAT_MAX = sys.float_info.max
_NUMBERS = {int: ((int,), Integral, "an integer"), float: ((float, int), Real, "a number")}
_shown = reprlib.repr  # a value in a message, a long list or string cut short
# field name -> evaluated annotation, ``Annotated`` bounds included
_field_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


@functools.cache
def _limits(bound: str) -> tuple[float, float]:
    """The least and the greatest number within a bound written "> a", ">= a" or
    "in [a, b)": an open end is the float next to it, inward."""
    if bound.startswith(">"):
        bound = f"in {'[' if bound[1] == '=' else '('}{bound.split()[1]}, inf]"
    low, high = map(float, bound[4:-1].split(","))
    return (low if bound[3] == "[" else math.nextafter(low, math.inf),
            high if bound[-1] == "]" else math.nextafter(high, -math.inf))


def _check_numbers(values, hint, where: str, indexed: bool) -> None:
    """Hold each of ``values``, in one pass, to a config int (a non-bool Integral)
    or float (a non-bool finite Real), then all of them, in one C-level min and
    max, to the bound of an ``Annotated`` hint; only a miss looks for its index."""
    base, (bound,) = getattr(hint, "__origin__", hint), getattr(hint, "__metadata__", (">= -inf",))
    exact, kind, noun = _NUMBERS[base]
    for i, v in enumerate(values):
        if type(v) not in exact and (isinstance(v, bool) or not isinstance(v, kind)):
            fault = f"must be {noun}"
        elif base is float and not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            fault = "must be finite"
        else:
            continue
        raise ValidationError(f"{where}{f'[{i}]' if indexed else ''} {fault}, got {_shown(v)}")
    low, high = _limits(bound)
    if values and not low <= min(values) <= max(values) <= high:
        i, v = next((i, v) for i, v in enumerate(values) if not low <= v <= high)
        raise ValidationError(f"{where}{f'[{i}]' if indexed else ''} must be {bound}, "
                              f"got {_shown(v)}")


def _checked(value, hint, where: str):
    """``value`` held to the annotation ``hint`` (a number, tuple, optional,
    group, ``Literal`` or ``Enum``), its type and any bound: lists become
    tuples, names become enum members, objects become groups (whose
    ``__post_init__`` checks their values) and a group instance stays as it is;
    anything else is a ValidationError."""
    if getattr(hint, "__origin__", hint) in _NUMBERS:  # int or float, bare or with a bound
        _check_numbers((value,), hint, where, indexed=False)
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:  # homogeneous: tuple[X, ...] or tuple[X, X, ...]
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            count = f" of {size} items" if size else ""
            raise ValidationError(f"{where} must be a list{count}, got {_shown(value)}")
        if getattr(args[0], "__origin__", args[0]) in _NUMBERS:
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
            raise ValidationError(f"unknown key(s) {_shown(sorted(unknown))} in {place}")
        return hint(**value)
    names = list(args) or [m.value for m in hint]  # a Literal or an Enum: one of a few names
    if value not in names:
        raise ValidationError(f"{where} must be one of {names}, got {_shown(value)}")
    return value if args else hint(value)


_GROUPS: dict[type, tuple] = {}  # group -> (own __post_init__, key, (name, hint, default)s)


def _typed_post_init(self) -> None:
    """The ``__post_init__`` of the config and its groups: each field held to its
    annotation, type and bound, then the group's own checks that relate items. A
    field's declared default is taken as it is: it holds to its annotation."""
    own_checks, key, fields = _GROUPS[type(self)]
    for name, hint, default in fields:
        value = getattr(self, name)
        if value is not default:
            object.__setattr__(self, name, _checked(value, hint, f"{key}.{name}".lstrip(".")))
    own_checks(self)


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
