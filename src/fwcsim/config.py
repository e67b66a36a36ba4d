"""Experiment configuration: JSON loading, centralized defaults, resolution."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

from .errors import ConfigError
from .geometry import Area
from .optics import FiberParams, Scheme, SchemeConfig
from .power import PowerParams
from .wireless import (
    DIGITIZATION_BITS_PER_SAMPLE_PAIR,
    ChannelModel,
    OverheadModel,
)


@dataclass(frozen=True)
class SchemeParams:
    """Radio constants shared by the scheme configs built per run.

    The 100 MHz case-study bandwidth puts the 2.5 Gb/s digitized fronthaul in
    its binding regime (one RAP can feed at most fiber_rate/30 bit/s of
    wireless traffic); see README "Calibration and defaults".
    """

    rf_carrier_hz: float = 20e9
    if_carrier_hz: float = 125e6
    wireless_bandwidth_hz: float = 100e6
    fiber_bit_rate_bps: float = 2.5e9
    fronthaul_snr0_db: float = 40.0

    def __post_init__(self):
        for name in ("rf_carrier_hz", "if_carrier_hz", "wireless_bandwidth_hz",
                     "fiber_bit_rate_bps"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class ChannelParams:
    pathloss_exponent: float = 3.5
    ref_loss_db: float = 40.0
    noise_figure_db: float = 9.0


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
        if not self.fiber_km:
            raise ConfigError("fiber_km must be nonempty")
        if not self.m_values:
            raise ConfigError("m_values must be nonempty")
        if any(isinstance(m, bool) or not isinstance(m, Integral) or m < 1
               for m in self.m_values):
            raise ConfigError(f"m_values must be integers >= 1, got {self.m_values!r}")
        if len(set(self.m_values)) != len(self.m_values):
            raise ConfigError(f"m_values has duplicates: {self.m_values!r}")
        points = self.num_band_points
        if isinstance(points, bool) or not isinstance(points, Integral) or points < 1:
            raise ConfigError(f"num_band_points must be an integer >= 1, got {points!r}")
        grid = self.theta_grid_deg
        if len(grid) != 3 or not all(math.isfinite(v) for v in grid):
            raise ConfigError(f"theta_grid_deg must be 3 finite numbers, got {grid!r}")
        start, stop, step = grid
        if step == 0 or (stop - start) * step < 0:
            raise ConfigError(
                f"theta_grid_deg step must be nonzero and lead from start to stop, "
                f"got {grid!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Area = field(default_factory=Area)
    fiber: FiberParams = field(default_factory=FiberParams)
    schemes: tuple[Scheme, ...] = (Scheme.BBOF, Scheme.IFOF, Scheme.RFOF)
    scheme_params: SchemeParams = field(default_factory=SchemeParams)
    power: PowerParams = field(default_factory=PowerParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    overhead: OverheadModel = field(default_factory=OverheadModel)
    sweep: SweepParams = field(default_factory=SweepParams)
    digitization_bits_per_sample_pair: float = DIGITIZATION_BITS_PER_SAMPLE_PAIR
    budget_w: float = 2100.0
    monte_carlo_drops: int = 100
    base_seed: int = 1
    workers: int = 1

    def __post_init__(self):
        if not self.schemes:
            raise ConfigError("schemes list must be nonempty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError(
                f"schemes has duplicates: {[Scheme(s).value for s in self.schemes]}"
            )
        for name in ("monte_carlo_drops", "base_seed", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.monte_carlo_drops < 1:
            raise ConfigError("monte_carlo_drops must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        if not math.isfinite(self.budget_w) or self.budget_w <= 0:
            raise ConfigError(f"budget_w must be finite and > 0, got {self.budget_w!r}")

    def scheme_config(self, scheme: Scheme) -> SchemeConfig:
        sp = self.scheme_params
        snr0 = math.inf if Scheme(scheme) is Scheme.BBOF else sp.fronthaul_snr0_db
        return SchemeConfig(
            scheme=Scheme(scheme),
            rf_carrier_hz=sp.rf_carrier_hz,
            if_carrier_hz=sp.if_carrier_hz,
            wireless_bandwidth_hz=sp.wireless_bandwidth_hz,
            fiber_bit_rate_bps=sp.fiber_bit_rate_bps,
            fronthaul_snr0_db=snr0,
        )

    def channel_model(self) -> ChannelModel:
        return ChannelModel.from_bandwidth(
            self.scheme_params.wireless_bandwidth_hz,
            noise_figure_db=self.channel.noise_figure_db,
            pathloss_exponent=self.channel.pathloss_exponent,
            ref_loss_db=self.channel.ref_loss_db,
        )

    def resolved(self) -> dict:
        """Every knob, defaults included, as plain JSON-ready values."""
        out = {group: dataclasses.asdict(getattr(self, group)) for group in _GROUP_TYPES}
        out.update((key, getattr(self, key)) for key in _SCALAR_KEYS)
        out["schemes"] = self.schemes
        return _jsonify(out)

    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Scheme):
        return value.value
    return value


_GROUP_TYPES = {
    "scenario": Area,
    "fiber": FiberParams,
    "scheme_params": SchemeParams,
    "power": PowerParams,
    "channel": ChannelParams,
    "overhead": OverheadModel,
    "sweep": SweepParams,
}
_SCALAR_KEYS = {
    "digitization_bits_per_sample_pair",
    "budget_w",
    "monte_carlo_drops",
    "base_seed",
    "workers",
}


def _build_group(cls, data: dict, group: str):
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in config group {group!r}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in config group {group!r}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    unknown = set(data) - set(_GROUP_TYPES) - _SCALAR_KEYS - {"schemes"}
    if unknown:
        raise ConfigError(f"unknown top-level config key(s) {sorted(unknown)}")
    kwargs = {}
    for group, cls in _GROUP_TYPES.items():
        if group in data:
            raw = data[group]
            if not isinstance(raw, dict):
                raise ConfigError(f"config group {group!r} must be an object")
            kwargs[group] = _build_group(cls, raw, group)
    if "schemes" in data:
        try:
            kwargs["schemes"] = tuple(Scheme(s) for s in data["schemes"])
        except ValueError as exc:
            raise ConfigError(f"bad scheme name: {exc}") from exc
    for key in _SCALAR_KEYS:
        if key in data:
            kwargs[key] = data[key]
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(
    path: str | Path | None,
    seed: int | None = None,
    drops: int | None = None,
    workers: int | None = None,
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
    cfg = config_from_dict(data)
    replacements = {}
    if seed is not None:
        replacements["base_seed"] = seed
    if drops is not None:
        replacements["monte_carlo_drops"] = drops
    if workers is not None:
        replacements["workers"] = workers
    if replacements:
        cfg = dataclasses.replace(cfg, **replacements)
    return cfg
