"""Fronthaul schemes and their radio constants; analog optical-link impairments
over a fiber-length axis: dispersion fading and fronthaul SNR."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import ConfigError, ValidationError
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
class SchemeParams:
    """Radio constants of the three schemes: the config's ``scheme_params`` group.

    ``fronthaul_snr0_db`` is the back-to-back analog link SNR before fiber
    losses; BBoF transports bits and never reads it. The 100 MHz case-study
    bandwidth puts the 2.5 Gb/s digitized fronthaul in its binding regime (one
    RAP can feed at most fiber_rate/30 bit/s of wireless traffic); see README
    "Calibration and defaults".
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
            if value <= 0:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")

    def analog_carrier_hz(self, scheme: Scheme) -> float | None:
        """Frequency riding the fiber: RF for RFoF, IF for IFoF, none for BBoF."""
        scheme = Scheme(scheme)
        if scheme is Scheme.RFOF:
            return self.rf_carrier_hz
        if scheme is Scheme.IFOF:
            return self.if_carrier_hz
        return None


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
    pass in the scalar operation order. cos, the square (``c**2`` calls pow) and
    log10 run as maps of ``math``'s functions over the axis, as numpy's do not
    promise the bits of libm's; the null floor, -10*x and max(0, x) are IEEE
    steps and run in numpy. A phase past the float range is a ValidationError.
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
    cos_sq = np.fromiter(map(math.pow, map(math.cos, phase.tolist()), repeat(2.0)), float,
                         len(phase))
    logs = map(math.log10, np.maximum(cos_sq, NULL_COS_SQ_FLOOR).tolist())  # a null's is unused
    loss = -10.0 * np.fromiter(logs, float, len(phase))
    return np.where(cos_sq <= NULL_COS_SQ_FLOOR, math.inf,
                    np.where(loss > 0.0, loss, 0.0)).tolist()


def fronthaul_snr_db(scheme: Scheme, radio: SchemeParams, fiber: FiberParams,
                     lengths_km: np.ndarray) -> list[float]:
    """Lumped analog-link SNR after fiber losses at each length of the float
    array ``lengths_km``: BBoF gives +inf, a dispersion null -inf, and IFoF/RFoF
    otherwise the back-to-back SNR less attenuation alpha * L and the carrier's
    fading, elementwise in numpy in the scalar operation order."""
    if Scheme(scheme) is Scheme.BBOF:
        return [math.inf] * len(lengths_km)
    fading = np.array(fading_db_over(fiber, radio.analog_carrier_hz(scheme), lengths_km))
    with np.errstate(over="ignore"):  # alpha * L past the float range is inf, as on floats
        return (radio.fronthaul_snr0_db - fiber.attenuation_db_per_km * lengths_km
                - fading).tolist()
