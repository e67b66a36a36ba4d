"""Mixed digital-optical beamforming: array factors, phase-only and true
time-delay weights, and beam-squint prediction."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .errors import NoRealBeamError, ValidationError
from .units import SPEED_OF_LIGHT_M_S


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
        band_hz: tuple[float, float],
    ) -> "ArrayGeometry":
        """Uniform linear array along x starting at the origin."""
        if num_elements < 1:
            raise ValidationError("num_elements must be >= 1")
        if spacing_m <= 0:
            raise ValidationError("spacing must be > 0")
        xs = np.arange(num_elements) * spacing_m
        positions = np.column_stack([xs, np.zeros(num_elements)])
        return cls(positions, center_freq_hz, band_hz)

    @property
    def num_elements(self) -> int:
        return len(self.element_positions)


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


def _projections(geom: ArrayGeometry, thetas_rad: np.ndarray) -> np.ndarray:
    """Element projections p_m . u over a grid of directions u = (sin theta, cos theta),
    shape (N, T): one matrix product over the whole grid. A product over some of
    its columns would not promise the same bits."""
    thetas = np.asarray(thetas_rad, dtype=float)
    return geom.element_positions @ np.stack([np.sin(thetas), np.cos(thetas)])


def _phase(proj: np.ndarray, f_hz: float, out: np.ndarray | None = None) -> np.ndarray:
    """2*pi*f*(p_m . u)/c from the projections ``proj``, elementwise, so any columns
    of ``proj`` give those columns' bits. numpy divides a complex array by a real
    scalar as a multiply by the reciprocal, so the phase is scaled by 1/c, not
    divided."""
    # The imaginary part of the complex phase, (0*0 + 2*pi*f*p) * (1/c): the
    # added +0.0 turns a -0.0 into +0.0 as that sum did.
    phase = np.multiply(proj, 2 * math.pi * f_hz, out=out)
    phase += 0.0
    phase *= 1.0 / SPEED_OF_LIGHT_M_S
    return phase


def _unit_phasors(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cos + j*sin of a real phase: the bits of the complex exp without its complex
    arithmetic. Each element's bits depend on its own phase alone."""
    phasors = np.empty(phase.shape, dtype=complex) if out is None else out
    np.cos(phase, out=phasors.real)
    np.sin(phase, out=phasors.imag)
    return phasors


def _feeds(geom: ArrayGeometry, specs: Collection[BeamformerSpec], f_hz: float) -> list:
    """w_m * exp(-j*2*pi*f*tau_m) per spec, checked against the array and its band."""
    for spec in specs:
        if len(spec.weights) != geom.num_elements:
            raise ValidationError("spec length does not match element count")
    f_lo, f_hi = geom.band_hz
    if not f_lo <= f_hz <= f_hi:
        raise ValidationError(f"frequency {f_hz} outside band {geom.band_hz}")
    return [np.asarray(spec.weights, dtype=complex)
            * np.exp(-2j * math.pi * f_hz * np.asarray(spec.delays_s)) for spec in specs]


def _band_feeds(geom: ArrayGeometry, specs: Collection[BeamformerSpec],
                freqs_hz: Sequence[float]) -> list[tuple[float, list]]:
    """(f, the feeds of every spec at f) per band point, all checked before any is used."""
    return [(f_hz, _feeds(geom, specs, f_hz)) for f_hz in map(float, freqs_hz)]


def array_factor_patterns(
    geom: ArrayGeometry,
    specs: Collection[BeamformerSpec],
    freqs_hz: Sequence[float],
    thetas_rad: np.ndarray,
) -> list[list[np.ndarray]]:
    """AF(theta) = sum_m w_m * exp(-j*2*pi*f*tau_m) * exp(j*2*pi*f*(p_m . u)/c)
    over a grid of directions u = (sin theta, cos theta): per band frequency in
    ``freqs_hz``, one pattern per spec in ``specs``.

    The projections p_m . u are computed once per call. Per frequency they are
    scaled into one phase buffer, and cos and sin fill one steering buffer that
    every spec shares. Each spec applies its feed vector in its own
    matrix-vector product; one stacked matrix product would not promise the
    same bits.
    """
    band = _band_feeds(geom, specs, freqs_hz)
    proj = _projections(geom, thetas_rad)
    phase, steering = np.empty_like(proj), np.empty(proj.shape, dtype=complex)
    patterns = []
    for f_hz, feeds in band:
        _unit_phasors(_phase(proj, f_hz, out=phase), out=steering)
        patterns.append([feed @ steering for feed in feeds])
    return patterns


def phase_only_weights(geom: ArrayGeometry, theta0_rad: float) -> BeamformerSpec:
    """Narrowband steering: w_m = exp(-j*2*pi*f0*(p_m . u0)/c) at f0 = center_freq_hz."""
    f0_hz = geom.center_freq_hz
    proj = _projections(geom, [theta0_rad])[:, 0]
    weights = tuple(
        complex(cmath.exp(-2j * math.pi * f0_hz * p / SPEED_OF_LIGHT_M_S)) for p in proj
    )
    return BeamformerSpec(weights=weights, delays_s=(0.0,) * geom.num_elements)


def ttd_weights(geom: ArrayGeometry, theta0_rad: float) -> BeamformerSpec:
    """True time delays aligning all element emissions toward theta0.

    tau_m = (p_m . u0 - min projection)/c keeps the applied phase linear in
    frequency, so |AF(theta0, f)| = N across the whole band.
    """
    proj = _projections(geom, [theta0_rad])[:, 0]
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


def angle_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... for as long as it does not pass stop; the 1e-9
    slack keeps a stop that the step reaches up to rounding."""
    if not (math.isfinite(step) and step != 0 and 0 <= (stop - start) / step < math.inf):
        raise ValidationError(f"angle step {step} must be finite, nonzero and lead from "
                              f"{start} to {stop}")
    return start + step * np.arange(math.floor((stop - start) / step + 1e-9) + 1)


_COARSE_STRIDE = 32  # grid steps between the coarse-pass angles of the peak search
PEAK_STEP_RAD = math.radians(0.01)  # the peak search's default grid step


def peak_directions(
    geom: ArrayGeometry,
    specs: Collection[BeamformerSpec],
    freqs_hz: Sequence[float],
    theta_lo_rad: float = -math.pi / 2,
    theta_hi_rad: float = math.pi / 2,
    step_rad: float = PEAK_STEP_RAD,
    toward_rad: float = -math.inf,
) -> list[list[float]]:
    """Grid-search argmax of |AF| over [theta_lo, theta_hi]: per band frequency in
    ``freqs_hz``, one angle per spec; a tie breaks to the angle nearest
    ``toward_rad`` (by default the lowest).

    The grid, its coarse-pass bookkeeping and the projections of both grids are
    computed once per call. Per frequency, a coarse pass bounds where the peak
    can be, and only those angles get their cos and sin. The product and |AF|
    stay full width, on one steering buffer whose other columns are zero, so
    each angle has the bits of the full search, ties included (README,
    "Beam-pattern engine").

    Grating lobes of equal height appear outside the mainlobe half-plane for
    wideband sweeps of half-wavelength arrays; restrict the window to the
    steering side when measuring squint.
    """
    if not theta_lo_rad < theta_hi_rad:
        raise ValidationError("empty search window")
    thetas = angle_grid(theta_lo_rad, theta_hi_rad, step_rad)
    band = _band_feeds(geom, specs, freqs_hz)
    at = np.append(np.arange(0, len(thetas) - 1, _COARSE_STRIDE), len(thetas) - 1)
    nearer = np.searchsorted((at[:-1] + at[1:]) / 2, np.arange(len(thetas)))
    reach = np.abs(thetas - thetas[at[nearer]])  # to the nearer coarse angle
    xy = geom.element_positions
    # |AF| = |sum_m feed_m exp(jk(p_m - q) . u)| for any q, so its slope in theta
    # is at most k sum_m |feed_m| |p_m - q|. Phase, trig, product and abs each err
    # far below the margin.
    radii, far = np.hypot(*(xy - xy.mean(axis=0)).T), np.hypot(*xy.T).max()
    fine, coarse = _projections(geom, thetas), _projections(geom, thetas[at])
    steering = np.zeros((len(xy), len(thetas)), dtype=complex)
    candidate = np.zeros(len(thetas), bool)
    peaks = []
    for f_hz, feeds in band:
        steering[:, candidate] = 0.0  # the previous band point's columns
        candidate = np.zeros(len(thetas), bool)
        k = 2 * math.pi * f_hz / SPEED_OF_LIGHT_M_S
        coarse_steering = _unit_phasors(_phase(coarse, f_hz))
        for feed in feeds:
            mags, weight = np.abs(feed @ coarse_steering), np.abs(feed)
            slope, margin = k * (weight @ radii), 1e-9 * (len(xy) + k * far) * weight.sum()
            candidate |= mags[nearer] + slope * reach + 2 * margin >= mags.max()
        steering[:, candidate] = _unit_phasors(_phase(fine[:, candidate], f_hz))
        mags = [np.where(candidate, np.abs(feed @ steering), -np.inf) for feed in feeds]
        ties = [thetas[m == m.max()] for m in mags]
        peaks.append([float(t[np.argmin(np.abs(t - toward_rad))]) for t in ties])
    return peaks
