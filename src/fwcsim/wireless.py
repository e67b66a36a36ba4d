"""Wireless access layer: Rayleigh channel draws, UDN and cell-free SINR
components, fronthaul-noise coupling, and overhead-scaled sum throughput."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Sequence

import numpy as np

from .errors import ValidationError
from .tables import _one_blas_thread
from .units import BOLTZMANN_J_K, ROOM_TEMPERATURE_K, db_to_linear

CHANNEL_RNG_STREAM = 1
MIN_PATH_DISTANCE_M = 1.0  # clamp below the pathloss reference distance

# BBoF fronthaul digitization: 30 bits per complex sample pair at 2 samples/Hz.
DIGITIZATION_BITS_PER_SAMPLE_PAIR = 30.0


@dataclass(frozen=True)
class ChannelModel:
    """Log-distance pathloss with Rayleigh small-scale fading; the config's
    ``channel`` group."""

    pathloss_exponent: Annotated[float, "> 2"] = 3.5
    ref_loss_db: float = 40.0  # at 1 m
    noise_figure_db: float = 9.0  # UE receiver, over thermal noise

    def __post_init__(self):
        if not 0.0 < db_to_linear(-self.ref_loss_db) < math.inf:
            raise ValidationError(
                f"channel.ref_loss_db must keep the 1 m gain within the float range, "
                f"got {self.ref_loss_db!r}"
            )

    def noise_power_w(self, bandwidth_hz: float) -> float:
        """Receiver noise power k*T*B over ``bandwidth_hz``, scaled by the noise
        figure; finite and > 0."""
        noise = (BOLTZMANN_J_K * ROOM_TEMPERATURE_K * bandwidth_hz
                 * db_to_linear(self.noise_figure_db))
        if not 0.0 < noise < math.inf:
            raise ValidationError(
                f"channel.noise_figure_db {self.noise_figure_db!r} gives a noise power of "
                f"{noise!r} W over {bandwidth_hz!r} Hz; it must be finite and > 0"
            )
        return noise

    def pathloss_gain(self, distance_m, out: np.ndarray | None = None):
        """Average power gain beta(d) = 10^(-ref/10) * d^(-n), d clamped at 1 m;
        computed in place in ``out`` when given (it may be ``distance_m``)."""
        d = np.maximum(np.asarray(distance_m, dtype=float), MIN_PATH_DISTANCE_M, out=out)
        return np.multiply(10.0 ** (-self.ref_loss_db / 10.0),
                           np.power(d, -self.pathloss_exponent, out=out), out=out)


def channel_stream(seed: int, count: int) -> tuple[np.ndarray, np.random.Generator]:
    """The first ``count`` standard normals of seed's channel stream, each
    scaled by 1/sqrt(2), and the generator positioned just past them.

    An (M, J) draw of the seed takes the real parts of its h from stream
    entries ``[0:MJ]`` and the imaginary parts from ``[MJ:2MJ]``, so the draws
    of one seed read nested prefixes of one stream.
    """
    rng = np.random.default_rng([seed, CHANNEL_RNG_STREAM])
    normals = rng.standard_normal(count)
    normals *= 1.0 / math.sqrt(2.0)
    return normals, rng


def draw_channels(dist: np.ndarray, model: ChannelModel, drop_seed: int,
                  out: tuple[np.ndarray, np.ndarray] | None = None,
                  stream: tuple[np.ndarray, np.random.Generator] | None = None) -> np.ndarray:
    """Complex gains g_mj = sqrt(beta_mj) * h_mj with h ~ CN(0, 1), shape (M, J),
    from the (M, J) RAP-to-UE distances; deterministic per seed.

    ``out`` = (gains, block): the (M, J) complex result and a (2, M, J) float
    block that holds the amplitudes sqrt(beta) in ``block[0]`` (which may be
    ``dist``, then overwritten) and, where needed, normal draws in ``block[1]``.
    ``stream`` is the seed's ``channel_stream``: the draw reads its prefix
    and takes the entries past it from its generator, so at most one draw per
    stream may read past the prefix.
    """
    gains, (amp, normal) = (None, (None, None)) if out is None else out
    prefix, rng = channel_stream(drop_seed, 0) if stream is None else stream
    amp = np.sqrt(model.pathloss_gain(dist, out=amp), out=amp)
    gains = np.empty(amp.shape, dtype=complex) if gains is None else gains
    size = amp.size
    # amp * ((re + 1j*im) / sqrt(2)) part by part, with the bits of the complex operations
    for start, part in ((0, gains.real), (size, gains.imag)):
        h = prefix[start:start + size]
        if len(h) < size:  # the stream's remainder: the generator continues where h ends
            normal = np.empty(amp.shape) if normal is None else normal
            flat = normal.reshape(-1)
            flat[:len(h)] = h
            rest = rng.standard_normal(size - len(h), out=flat[len(h):])
            rest *= 1.0 / math.sqrt(2.0)
            h = flat
        np.multiply(amp, h.reshape(amp.shape), out=part)
    return gains


def power_gains(gains: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The power gains |g|^2 that both architectures read, with the bits of
    ``np.abs(gains) ** 2``; computed in place in the float array ``out`` when given."""
    return np.square(np.abs(gains, out=out), out=out)


def udn_sinr_components(p2: np.ndarray, serve: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE (signal, interference) power coefficients per watt of p_tx, from
    the power gains |g|^2 and the ``udn_association`` serve mask; every RAP
    that serves some UE interferes with the UEs it does not serve."""
    signal = np.add.reduce(p2, axis=0, where=serve, initial=0.0)
    interference = np.add.reduce(p2, axis=0, where=serve.any(axis=1)[:, None] & ~serve,
                                 initial=0.0)
    return signal, interference


def sinr_from_components(
    signal: np.ndarray, interference: np.ndarray, p_tx_w: float, noise_power_w: float
) -> np.ndarray:
    """SINR = p*s / (p*i + N) from per-watt signal and interference coefficients."""
    return p_tx_w * signal / (p_tx_w * interference + noise_power_w)


def cellfree_sinr_components(
    gains: np.ndarray, p2: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE (signal, interference) coefficients per watt of per-RAP power,
    from the complex gains and their power gains |g|^2.

    Conjugate beamforming with perfect CSI; RAP m scales each UE's conjugate
    by sqrt(eta_m) with eta_m = p / sum_j |g_mj|^2, so every RAP spends
    exactly its per-RAP budget. ``out`` = (weights, gram, gram_sq): (M, J)
    complex, (J, J) complex and (J, J) float arrays for the weights, the Gram
    product and its |.|^2; ``weights`` may share memory with ``p2``.
    """
    weights, cross, inter_sq = (None, None, None) if out is None else out
    denom = p2.sum(axis=1)
    if np.any(denom == 0.0):
        raise ValidationError(
            "a RAP has zero gain to every UE: the pathloss underflows; lower "
            "channel.pathloss_exponent, channel.ref_loss_db or the scenario area"
        )
    sqrt_eta = 1.0 / np.sqrt(denom)
    weights = np.conj(gains, out=weights)  # p2 is not read past this line
    weights *= sqrt_eta[:, None]  # in place: no second (M, J) complex temporary
    with _one_blas_thread():  # the Gram product's last bits follow the thread count
        cross = np.matmul(gains.T, weights, out=cross)  # (J, J)
    amp = np.real(np.diag(cross))
    signal = amp**2
    inter_sq = np.square(np.abs(cross, out=inter_sq), out=inter_sq)
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
    with np.errstate(all="ignore"):
        out = 1.0 / (1.0 / s + 1.0 / fh)
    out = np.where((s == 0.0) | (fh == 0.0), 0.0, out)
    out = np.where(np.isinf(s), fh, out)
    out = np.where(np.isinf(fh), s, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OverheadModel:
    """Pilot overhead growing with the UE count over a coherence block."""

    coherence_block_symbols: Annotated[float, "> 0"] = 200.0
    max_fraction: Annotated[float, "in [0, 1)"] = 0.95

    def __post_init__(self):
        """The hook of the config's type and bound checks; no field relates to another."""

    def fraction(self, num_ues: int) -> float:
        return min(num_ues / self.coherence_block_symbols, self.max_fraction)


def bbof_per_rap_cap_bps(
    fiber_bit_rate_bps: float,
    digitization_factor: float = DIGITIZATION_BITS_PER_SAMPLE_PAIR,
) -> float:
    """Wireless rate one digitized fronthaul can feed through a single RAP."""
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
    fraction = overhead.fraction(sinr_arr.shape[-1])
    per_ue = np.log2(1.0 + sinr_arr)
    tiny = (per_ue == 0.0) & (sinr_arr > 0.0)  # 1 + s rounds to 1: take the slope s / ln 2
    if tiny.any():
        per_ue[tiny] = sinr_arr[tiny] / math.log(2.0)
    total = (1.0 - fraction) * bandwidth_hz * per_ue.sum(axis=-1)
    if per_rap_cap_bps is not None:
        total = np.minimum(total, num_raps * per_rap_cap_bps)
    return float(total) if total.ndim == 0 else total
