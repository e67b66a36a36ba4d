"""Analog optical-link impairments: attenuation, chromatic-dispersion RF power
fading, null/recovery planning, DCF sizing, and the lumped fronthaul SNR."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UndefinedModelError, ValidationError
from .units import SPEED_OF_LIGHT_M_S

# |cos|^2 at or below this counts as an exact fading null (infinite loss).
NULL_COS_SQ_FLOOR = 1e-24


class Scheme(str, Enum):
    """What travels on the fronthaul fiber: digital baseband, IF, or full RF."""

    BBOF = "bbof"
    IFOF = "ifof"
    RFOF = "rfof"


@dataclass(frozen=True)
class FiberParams:
    """Standard single-mode fiber constants; negative dispersion models DCF."""

    dispersion_ps_nm_km: float = 17.0
    wavelength_nm: float = 1553.6
    attenuation_db_per_km: float = 0.3
    length_km: float = 19.0

    def __post_init__(self):
        if not math.isfinite(self.dispersion_ps_nm_km):
            raise ValidationError("dispersion must be finite")
        if self.wavelength_nm <= 0:
            raise ValidationError(f"wavelength must be > 0, got {self.wavelength_nm}")
        if self.attenuation_db_per_km < 0:
            raise ValidationError("attenuation must be >= 0")
        if self.length_km < 0:
            raise ValidationError("length must be >= 0")


@dataclass(frozen=True)
class SchemeConfig:
    """Per-scheme radio and fiber-transport constants.

    ``fronthaul_snr0_db`` is the back-to-back analog link SNR before fiber
    losses; BBoF transports bits and must carry an infinite value.
    """

    scheme: Scheme
    rf_carrier_hz: float = 20e9
    if_carrier_hz: float = 125e6
    wireless_bandwidth_hz: float = 10e6
    fiber_bit_rate_bps: float = 2.5e9
    fronthaul_snr0_db: float = 40.0

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        for name in ("rf_carrier_hz", "if_carrier_hz", "wireless_bandwidth_hz", "fiber_bit_rate_bps"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if self.scheme is Scheme.BBOF and not math.isinf(self.fronthaul_snr0_db):
            raise ValidationError("BBoF is digital transport; fronthaul_snr0_db must be inf")

    @classmethod
    def bbof(cls, **kwargs) -> "SchemeConfig":
        kwargs.setdefault("fronthaul_snr0_db", math.inf)
        return cls(scheme=Scheme.BBOF, **kwargs)

    @classmethod
    def ifof(cls, **kwargs) -> "SchemeConfig":
        return cls(scheme=Scheme.IFOF, **kwargs)

    @classmethod
    def rfof(cls, **kwargs) -> "SchemeConfig":
        return cls(scheme=Scheme.RFOF, **kwargs)

    def analog_carrier_hz(self) -> float | None:
        """Frequency riding the fiber: RF for RFoF, IF for IFoF, none for BBoF."""
        if self.scheme is Scheme.RFOF:
            return self.rf_carrier_hz
        if self.scheme is Scheme.IFOF:
            return self.if_carrier_hz
        return None


def attenuation_db(fiber: FiberParams) -> float:
    """Fiber propagation loss alpha * L in dB."""
    return fiber.attenuation_db_per_km * fiber.length_km


def fiber_axis(lengths_km) -> np.ndarray:
    """The fiber lengths as one float array, held to FiberParams' length check."""
    axis = np.array(lengths_km, dtype=float)
    if (axis < 0).any():
        raise ValidationError("length must be >= 0")
    return axis


def fading_db_over(fiber: FiberParams, f_hz: float, lengths_km: np.ndarray) -> list[float]:
    """Dispersion-induced RF power fading of a double-sideband IM link at each
    length of the float array ``lengths_km``.

    loss_dB = -10*log10(cos^2(pi * D * L * lambda^2 * f^2 / c)), math.inf at
    an exact null: direct detection of both sidebands makes the carrier fade
    with the accumulated dispersion phase. The phase is one elementwise numpy
    pass in the scalar operation order; cos, the square and log10 run on
    Python floats, as numpy's do not promise the bits of ``math``'s. A phase
    past the float range is a ValidationError.
    """
    if f_hz <= 0:
        raise ValidationError(f"frequency must be > 0, got {f_hz}")
    d_si = fiber.dispersion_ps_nm_km * 1e-6  # s/m^2
    lam_si = fiber.wavelength_nm * 1e-9
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            phase = math.pi * d_si * (lengths_km * 1e3) * lam_si**2 * f_hz**2 / SPEED_OF_LIGHT_M_S
    except OverflowError:  # a squared factor past the float range
        phase = np.full(len(lengths_km), math.inf)
    if not np.isfinite(phase).all():
        km = lengths_km[~np.isfinite(phase)][0]
        raise ValidationError(f"dispersion phase is not finite at {km} km, {f_hz / 1e9:g} GHz")
    fading = []
    for cos in map(math.cos, phase.tolist()):
        cos_sq = cos**2
        fading.append(math.inf if cos_sq <= NULL_COS_SQ_FLOOR
                      else max(0.0, -10.0 * math.log10(cos_sq)))
    return fading


def dispersion_fading_db(fiber: FiberParams, f_hz: float) -> float:
    """``fading_db_over`` at the fiber's own length."""
    return fading_db_over(fiber, f_hz, fiber_axis([fiber.length_km]))[0]


def scheme_fading_db(scheme: SchemeConfig, fiber: FiberParams) -> float:
    """Fading at the scheme's analog carrier; BBoF sees none."""
    carrier = scheme.analog_carrier_hz()
    if carrier is None:
        return 0.0
    return dispersion_fading_db(fiber, carrier)


def _fading_period_km(fiber: FiberParams, f_hz: float, k_max: int) -> float:
    if f_hz <= 0:
        raise ValidationError(f"frequency must be > 0, got {f_hz}")
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    d_si = abs(fiber.dispersion_ps_nm_km) * 1e-6
    if d_si == 0.0:
        raise UndefinedModelError("zero dispersion: fading has no length structure")
    lam_si = fiber.wavelength_nm * 1e-9
    return SPEED_OF_LIGHT_M_S / (d_si * lam_si**2 * f_hz**2) / 1e3


def recovery_lengths(fiber: FiberParams, f_hz: float, k_max: int) -> list[float]:
    """Fiber lengths with zero fading: L_k = k*c/(D*lambda^2*f^2), k=1..k_max."""
    period = _fading_period_km(fiber, f_hz, k_max)
    return [k * period for k in range(1, k_max + 1)]


def null_lengths(fiber: FiberParams, f_hz: float, k_max: int) -> list[float]:
    """Fiber lengths with total fading: L = (2k-1)*c/(2*D*lambda^2*f^2)."""
    period = _fading_period_km(fiber, f_hz, k_max)
    return [(2 * k - 1) * period / 2.0 for k in range(1, k_max + 1)]


def dcf_compensation_length(
    dispersion_std_ps_nm_km: float, length_std_km: float, dispersion_dcf_ps_nm_km: float
) -> float:
    """DCF length that zeroes net accumulated dispersion: -D_std*L_std/D_dcf."""
    if dispersion_dcf_ps_nm_km >= 0:
        raise ValidationError("DCF dispersion must be negative")
    if dispersion_std_ps_nm_km <= 0:
        raise ValidationError("standard-fiber dispersion must be positive")
    if length_std_km < 0:
        raise ValidationError("fiber length must be >= 0")
    return -dispersion_std_ps_nm_km * length_std_km / dispersion_dcf_ps_nm_km


def fronthaul_snr_db(scheme: SchemeConfig, fiber: FiberParams) -> float:
    """Lumped analog-link SNR after fiber losses.

    BBoF returns +inf. IFoF/RFoF degrade the back-to-back SNR by attenuation
    plus carrier fading; a dispersion null returns -inf.
    """
    if scheme.scheme is Scheme.BBOF:
        return math.inf
    fading = scheme_fading_db(scheme, fiber)
    if math.isinf(fading):
        return -math.inf
    return scheme.fronthaul_snr0_db - attenuation_db(fiber) - fading
