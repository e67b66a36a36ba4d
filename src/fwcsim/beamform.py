"""Mixed digital-optical beamforming: array factors, phase-only and true
time-delay weights, beam-squint prediction, and fiber/air delay alignment."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .errors import DegenerateChannelError, NoRealBeamError, ValidationError
from .units import SPEED_OF_LIGHT_M_S

FIBER_GROUP_INDEX = 1.468  # standard single-mode silica
# Phase-coherent combining needs all arrivals inside one symbol interval.
SYMBOL_COHERENCE_S = 1e-9


def coherent_within_symbol(arrival_times_s, symbol_interval_s: float = SYMBOL_COHERENCE_S) -> bool:
    """Whether an arrival-time spread permits phase-coherent combining."""
    times = list(arrival_times_s)
    if not times:
        raise ValidationError("no arrival times given")
    return max(times) - min(times) <= symbol_interval_s


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Element positions, an (N, 2) array in meters, with a center frequency
    and operating band."""

    element_positions: np.ndarray
    center_freq_hz: float
    band_hz: tuple[float, float]

    def __post_init__(self):
        xy = np.array(self.element_positions, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2 or len(xy) < 1:
            raise ValidationError("array needs at least one (x, y) element position")
        xy.flags.writeable = False
        object.__setattr__(self, "element_positions", xy)
        f_lo, f_hi = self.band_hz
        if not 0 < f_lo <= self.center_freq_hz <= f_hi:
            raise ValidationError(
                f"band must satisfy 0 < f_lo <= f0 <= f_hi, got {self.band_hz} around "
                f"{self.center_freq_hz}"
            )

    @classmethod
    def ula(
        cls,
        num_elements: int,
        spacing_m: float,
        center_freq_hz: float,
        band_hz: tuple[float, float] | None = None,
    ) -> "ArrayGeometry":
        """Uniform linear array along x starting at the origin."""
        if num_elements < 1:
            raise ValidationError("num_elements must be >= 1")
        if spacing_m <= 0:
            raise ValidationError("spacing must be > 0")
        xs = np.arange(num_elements) * spacing_m
        positions = np.column_stack([xs, np.zeros(num_elements)])
        if band_hz is None:
            band_hz = (center_freq_hz, center_freq_hz)
        return cls(positions, center_freq_hz, band_hz)

    @property
    def num_elements(self) -> int:
        return len(self.element_positions)

    def projections(self, theta_rad: float) -> np.ndarray:
        """Element projections onto the unit direction u = (sin t, cos t)."""
        xy = self.element_positions
        return xy[:, 0] * math.sin(theta_rad) + xy[:, 1] * math.cos(theta_rad)


@dataclass(frozen=True)
class BeamformerSpec:
    """Complex weights plus true time delays, one pair per element."""

    weights: tuple[complex, ...]
    delays_s: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.delays_s) or len(self.weights) < 1:
            raise ValidationError("weights and delays must be equal-length and nonempty")
        if any(not math.isfinite(d) or d < 0 for d in self.delays_s):
            raise ValidationError("delays must be finite and >= 0")
        if any(not (math.isfinite(w.real) and math.isfinite(w.imag)) for w in self.weights):
            raise ValidationError("weights must be finite")


def steering_matrix(geom: ArrayGeometry, f_hz: float, thetas_rad: np.ndarray) -> np.ndarray:
    """exp(j*2*pi*f*(p_m . u)/c) over a grid of directions u = (sin theta, cos theta),
    shape (N, T).

    Built as cos and sin of the real phase, which has the bits of the complex
    exp and skips its complex arithmetic. numpy divides a complex array by a real scalar
    as a multiply by the reciprocal, so the phase is scaled by 1/c, not divided.
    """
    thetas = np.asarray(thetas_rad, dtype=float)
    u = np.stack([np.sin(thetas), np.cos(thetas)])  # (2, T)
    # The imaginary part of the complex phase, (0*0 + 2*pi*f*p) * (1/c): the
    # added +0.0 turns a -0.0 into +0.0 as that sum did.
    phase = geom.element_positions @ u  # (N, T) projections p_m . u
    phase *= 2 * math.pi * f_hz
    phase += 0.0
    phase *= 1.0 / SPEED_OF_LIGHT_M_S
    steering = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=steering.real)
    np.sin(phase, out=steering.imag)
    return steering


def array_factor_patterns(
    geom: ArrayGeometry,
    specs: Collection[BeamformerSpec],
    f_hz: float,
    thetas_rad: np.ndarray,
) -> list[np.ndarray]:
    """AF(theta) = sum_m w_m * exp(-j*2*pi*f*tau_m) * exp(j*2*pi*f*(p_m . u)/c)
    for each spec in ``specs``, over a grid of directions u = (sin theta, cos theta).

    The steering matrix depends only on the geometry, f and the grid, so every
    spec shares one. Each spec applies its feed vector in its own
    matrix-vector product; one stacked matrix product would not promise the
    same bits.
    """
    for spec in specs:
        if len(spec.weights) != geom.num_elements:
            raise ValidationError("spec length does not match element count")
    f_lo, f_hi = geom.band_hz
    if not f_lo <= f_hz <= f_hi:
        raise ValidationError(f"frequency {f_hz} outside band {geom.band_hz}")
    steering = steering_matrix(geom, f_hz, thetas_rad)
    patterns = []
    for spec in specs:
        w = np.asarray(spec.weights, dtype=complex)
        feed = w * np.exp(-2j * math.pi * f_hz * np.asarray(spec.delays_s))
        patterns.append(feed @ steering)
    return patterns


def phase_only_weights(geom: ArrayGeometry, theta0_rad: float) -> BeamformerSpec:
    """Narrowband steering: w_m = exp(-j*2*pi*f0*(p_m . u0)/c) at f0 = center_freq_hz."""
    f0_hz = geom.center_freq_hz
    proj = geom.projections(theta0_rad)
    weights = tuple(
        complex(cmath.exp(-2j * math.pi * f0_hz * p / SPEED_OF_LIGHT_M_S)) for p in proj
    )
    return BeamformerSpec(weights=weights, delays_s=(0.0,) * geom.num_elements)


def ttd_weights(geom: ArrayGeometry, theta0_rad: float) -> BeamformerSpec:
    """True time delays aligning all element emissions toward theta0.

    tau_m = (p_m . u0 - min projection)/c keeps the applied phase linear in
    frequency, so |AF(theta0, f)| = N across the whole band.
    """
    proj = geom.projections(theta0_rad)
    tau = (proj - proj.min()) / SPEED_OF_LIGHT_M_S
    return BeamformerSpec(
        weights=(complex(1.0),) * geom.num_elements,
        delays_s=tuple(max(0.0, float(t)) for t in tau),
    )


def beam_squint_direction(f_hz: float, f0_hz: float, theta0_rad: float) -> float:
    """ULA squint closed form: theta(f) = asin((f0/f) * sin(theta0))."""
    if f_hz <= 0 or f0_hz <= 0:
        raise ValidationError("frequencies must be > 0")
    arg = (f0_hz / f_hz) * math.sin(theta0_rad)
    if abs(arg) > 1.0:
        raise NoRealBeamError(
            f"(f0/f)*sin(theta0) = {arg:.4f} leaves no real steering direction"
        )
    return math.asin(arg)


def peak_directions(
    geom: ArrayGeometry,
    specs: Collection[BeamformerSpec],
    f_hz: float,
    theta_lo_rad: float = -math.pi / 2,
    theta_hi_rad: float = math.pi / 2,
    step_rad: float = math.radians(0.01),
) -> list[float]:
    """Grid-search argmax of |AF| over [theta_lo, theta_hi], one per spec.

    Grating lobes of equal height appear outside the mainlobe half-plane for
    wideband sweeps of half-wavelength arrays; restrict the window to the
    steering side when measuring squint.
    """
    if not theta_lo_rad < theta_hi_rad:
        raise ValidationError("empty search window")
    count = int(round((theta_hi_rad - theta_lo_rad) / step_rad)) + 1
    thetas = theta_lo_rad + step_rad * np.arange(count)
    return [
        float(thetas[int(np.argmax(np.abs(values)))])
        for values in array_factor_patterns(geom, specs, f_hz, thetas)
    ]


def sync_delays(
    air_m: Sequence[float],
    fiber_lengths_km: Sequence[float],
    group_index: float = FIBER_GROUP_INDEX,
) -> list[float]:
    """Optical delay-line settings equalizing fiber-plus-air path delays toward
    one UE, from its air distance to each RAP (a distance-matrix column).

    T_m = n_g*L_m/c + d_m/c; the returned delta_m = max T - T_m makes every
    compensated arrival time equal, with min delta = 0.
    """
    air_m = np.asarray(air_m, dtype=float).tolist()
    if not air_m or not all(0.0 <= d < math.inf for d in air_m):
        raise ValidationError("air distances must be nonempty, finite and >= 0")
    if len(fiber_lengths_km) != len(air_m):
        raise ValidationError("one fiber length per RAP required")
    if not all(0.0 <= lk < math.inf for lk in fiber_lengths_km):
        raise ValidationError("fiber lengths must be finite and >= 0")
    totals = [
        group_index * lk * 1e3 / SPEED_OF_LIGHT_M_S + d / SPEED_OF_LIGHT_M_S
        for d, lk in zip(air_m, fiber_lengths_km)
    ]
    t_max = max(totals)
    return [t_max - t for t in totals]


def mixed_beamformer(
    channel,
    air_m: Sequence[float],
    fronthaul_gains,
    fiber_lengths_km: Sequence[float],
    group_index: float = FIBER_GROUP_INDEX,
) -> BeamformerSpec:
    """Digital conjugate weights over the composite optical*wireless channel,
    with TTD delays compensating per-RAP fiber and air propagation.

    ``channel`` and ``air_m`` are the target UE's gain and distance columns.
    Weights are unit magnitude per RAP (a RAP with zero composite gain stays
    silent), so every RAP spends its own PA budget; the effective channel
    w_m * q_m is real and nonnegative.
    """
    channel = np.asarray(channel, dtype=complex)
    gains = np.asarray(fronthaul_gains, dtype=complex)
    if gains.shape != channel.shape or channel.ndim != 1:
        raise ValidationError("one fronthaul gain per RAP required")
    composite = gains * channel
    mags = np.abs(composite)
    if not np.any(mags > 0):
        raise DegenerateChannelError("all composite gains are zero")
    weights = np.where(mags > 0, np.conj(composite) / np.where(mags > 0, mags, 1.0), 0.0)
    delays = sync_delays(air_m, fiber_lengths_km, group_index=group_index)
    return BeamformerSpec(
        weights=tuple(complex(w) for w in weights), delays_s=tuple(delays)
    )
