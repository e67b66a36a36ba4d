"""Wireless access layer: Rayleigh channel draws, UDN and cell-free SINR
components, fronthaul-noise coupling, and overhead-scaled sum throughput."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .units import db_to_linear, thermal_noise_w

CHANNEL_RNG_STREAM = 1
MIN_PATH_DISTANCE_M = 1.0  # clamp below the pathloss reference distance

# BBoF fronthaul digitization: 30 bits per complex sample pair at 2 samples/Hz.
DIGITIZATION_BITS_PER_SAMPLE_PAIR = 30.0


@dataclass(frozen=True)
class ChannelModel:
    """Log-distance pathloss with Rayleigh small-scale fading; the config's
    ``channel`` group."""

    pathloss_exponent: float = 3.5
    ref_loss_db: float = 40.0  # at 1 m
    noise_figure_db: float = 9.0  # UE receiver, over thermal noise

    def __post_init__(self):
        if self.pathloss_exponent <= 2.0:
            raise ValidationError(
                f"channel.pathloss_exponent must exceed 2, got {self.pathloss_exponent}"
            )
        if not 0.0 < db_to_linear(-self.ref_loss_db) < math.inf:
            raise ValidationError(
                f"channel.ref_loss_db must keep the 1 m gain within the float range, "
                f"got {self.ref_loss_db!r}"
            )

    def noise_power_w(self, bandwidth_hz: float) -> float:
        """Receiver noise power over ``bandwidth_hz``; finite and > 0."""
        noise = thermal_noise_w(bandwidth_hz, self.noise_figure_db)
        if not 0.0 < noise < math.inf:
            raise ValidationError(
                f"channel.noise_figure_db {self.noise_figure_db!r} gives a noise power of "
                f"{noise!r} W over {bandwidth_hz!r} Hz; it must be finite and > 0"
            )
        return noise

    def pathloss_gain(self, distance_m):
        """Average power gain beta(d) = 10^(-ref/10) * d^(-n), d clamped at 1 m."""
        d = np.maximum(np.asarray(distance_m, dtype=float), MIN_PATH_DISTANCE_M)
        return 10.0 ** (-self.ref_loss_db / 10.0) * d ** (-self.pathloss_exponent)


def draw_channels(dist: np.ndarray, model: ChannelModel, drop_seed: int) -> np.ndarray:
    """Complex gains g_mj = sqrt(beta_mj) * h_mj with h ~ CN(0, 1), shape (M, J),
    from the (M, J) RAP-to-UE distances; deterministic per seed."""
    rng = np.random.default_rng([drop_seed, CHANNEL_RNG_STREAM])
    beta = model.pathloss_gain(dist)
    shape = beta.shape
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    return np.sqrt(beta) * h


def udn_sinr_components(
    p2: np.ndarray, serve: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE (signal, interference) power coefficients per watt of p_tx, from
    the power gains |g|^2 and the ``udn_association`` masks."""
    if serve.shape != p2.shape:
        raise ValidationError("association does not match the channel dimensions")
    signal = np.where(serve, p2, 0.0).sum(axis=0)
    interference = np.where(active[:, None] & ~serve, p2, 0.0).sum(axis=0)
    return signal, interference


def sinr_from_components(
    signal: np.ndarray, interference: np.ndarray, p_tx_w: float, noise_power_w: float
) -> np.ndarray:
    """SINR = p*s / (p*i + N) from per-watt signal and interference coefficients."""
    if p_tx_w < 0:
        raise ValidationError("transmit power must be >= 0")
    return p_tx_w * signal / (p_tx_w * interference + noise_power_w)


def cellfree_sinr_components(gains: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE (signal, interference) coefficients per watt of per-RAP power,
    from the complex gains and their power gains |g|^2.

    Conjugate beamforming with perfect CSI; RAP m scales each UE's conjugate
    by sqrt(eta_m) with eta_m = p / sum_j |g_mj|^2, so every RAP spends
    exactly its per-RAP budget.
    """
    denom = p2.sum(axis=1)
    if np.any(denom == 0.0):
        raise ValidationError(
            "a RAP has zero gain to every UE: the pathloss underflows; lower "
            "channel.pathloss_exponent, channel.ref_loss_db or the scenario area"
        )
    sqrt_eta = 1.0 / np.sqrt(denom)
    weights = np.conj(gains)
    weights *= sqrt_eta[:, None]  # in place: no second (M, J) complex temporary
    cross = gains.T @ weights  # (J, J)
    amp = np.real(np.diag(cross))
    signal = amp**2
    inter_sq = np.abs(cross) ** 2
    np.fill_diagonal(inter_sq, 0.0)
    interference = inter_sq.sum(axis=1)
    return signal, interference


def combine_fronthaul_noise(
    sinr_wireless: float | np.ndarray, fronthaul_snr: float | np.ndarray
) -> float | np.ndarray:
    """Harmonic combination 1 / (1/sinr + 1/snr_fronthaul), both linear.

    Works elementwise on broadcastable arrays; two scalars give a float.
    An infinite fronthaul SNR passes the SINR through, an infinite SINR
    passes the fronthaul SNR through (the first rule wins when both are
    infinite), and otherwise a zero term gives exactly 0.
    """
    s = np.asarray(sinr_wireless, dtype=float)
    fh = np.asarray(fronthaul_snr, dtype=float)
    if np.any(s < 0) or np.any(fh < 0):
        raise ValidationError("SINR terms must be >= 0")
    with np.errstate(all="ignore"):
        out = 1.0 / (1.0 / s + 1.0 / fh)
    out = np.where((s == 0.0) | (fh == 0.0), 0.0, out)
    out = np.where(np.isinf(s), fh, out)
    out = np.where(np.isinf(fh), s, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OverheadModel:
    """Pilot overhead growing with the UE count over a coherence block."""

    coherence_block_symbols: float = 200.0
    max_fraction: float = 0.95

    def __post_init__(self):
        if self.coherence_block_symbols <= 0:
            raise ValidationError(
                f"coherence_block_symbols must be > 0, got {self.coherence_block_symbols}"
            )
        if not 0.0 <= self.max_fraction < 1.0:
            raise ValidationError(f"max_fraction must be in [0, 1), got {self.max_fraction}")

    def fraction(self, num_ues: int) -> float:
        return min(num_ues / self.coherence_block_symbols, self.max_fraction)


def bbof_per_rap_cap_bps(
    fiber_bit_rate_bps: float,
    digitization_factor: float = DIGITIZATION_BITS_PER_SAMPLE_PAIR,
) -> float:
    """Wireless rate one digitized fronthaul can feed through a single RAP."""
    if fiber_bit_rate_bps <= 0 or digitization_factor <= 0:
        raise ValidationError("fiber bit rate and digitization factor must be > 0")
    return fiber_bit_rate_bps / digitization_factor


def sum_throughput(
    sinrs: Sequence[float] | np.ndarray,
    bandwidth_hz: float,
    num_raps: int,
    overhead: OverheadModel,
    per_rap_cap_bps: float | None = None,
) -> float | np.ndarray:
    """Overhead-scaled network sum rate sum_j B*(1 - ov)*log2(1 + SINR_j).

    ``sinrs`` holds one SINR per UE along its last axis: a (J,) sequence
    gives a float, a (drops, J) array one total per row; the overhead
    fraction is that of J UEs. ``per_rap_cap_bps`` clips each total at
    num_raps times the cap (the BBoF digitization limit).
    """
    sinr_arr = np.asarray(sinrs, dtype=float)
    if np.any(sinr_arr < 0):
        raise ValidationError("SINRs must be >= 0")
    if bandwidth_hz <= 0:
        raise ValidationError("bandwidth must be > 0")
    fraction = overhead.fraction(sinr_arr.shape[-1])
    per_ue = np.log2(1.0 + sinr_arr)
    tiny = (per_ue == 0.0) & (sinr_arr > 0.0)  # 1 + s rounds to 1: take the slope s / ln 2
    if tiny.any():
        per_ue[tiny] = sinr_arr[tiny] / math.log(2.0)
    total = (1.0 - fraction) * bandwidth_hz * per_ue.sum(axis=-1)
    if per_rap_cap_bps is not None:
        total = np.minimum(total, num_raps * per_rap_cap_bps)
    return float(total) if total.ndim == 0 else total
