"""Experiment runners: dispersion, power, throughput, and beam-pattern sweeps.

Every runner is deterministic for a fixed config: Monte Carlo drop i uses seed
base_seed + i at every M, and drops reduce in index order.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .beamform import (
    PEAK_STEP_RAD,
    ArrayGeometry,
    angle_grid,
    array_factor_patterns,
    beam_squint_direction,
    peak_directions,
    phase_only_weights,
    ttd_weights,
)
from .config import ExperimentConfig, hash_resolved
from .errors import InfeasibleBudgetError, NullSentinelError, ValidationError
from .geometry import distance_matrix, generate_layout, layout_stream, udn_association
from .optics import Scheme, SchemeParams, fading_db_over, fronthaul_snr_db
from .power import crossover_length, power_over, solve_tx_power
from .tables import Repeat, ResultTable, _rows_in_two
from .units import SPEED_OF_LIGHT_M_S, db_to_linear
from .wireless import (
    bbof_per_rap_cap_bps,
    cellfree_sinr_components,
    channel_stream,
    combine_fronthaul_noise,
    draw_channels,
    power_gains,
    sinr_from_components,
    sum_throughput,
    udn_sinr_components,
)

DISPERSION_COLUMNS = ("scheme", "f_hz", "fiber_km", "fading_db")
POWER_COLUMNS = (
    "scheme", "f_rf_hz", "fiber_km", "p_tx_w", "cu_w", "rap_w", "fiber_comp_w", "total_w"
)
CROSSOVER_COLUMNS = ("scheme_a", "scheme_b", "f_rf_hz", "crossover_km", "found")
THROUGHPUT_COLUMNS = (
    "arch", "scheme", "M", "J", "drops", "p_tx_w", "mean_sumrate_bps", "ci95_bps"
)
BEAM_COLUMNS = ("mode", "f_hz", "theta_deg", "af_mag", "af_phase_rad")

# Size bounds (README, "Size bounds"): a config whose largest arrays or CSV row
# count pass these fails before any allocation.
MAX_ARRAY_BYTES = 2**30
MAX_CSV_ROWS = 2_000_000

# Drop work, drops x the sum over the sweep's M of M*J + DROP_FIXED_WORK, from
# which the drops split across two processes (``_drop_components``).
# DROP_FIXED_WORK is the cost of one drop at one M that does not grow with M*J,
# about 0.2 ms of Python, in M*J units. The fork, its page faults and the
# reaping cost several ms. On a 2-vCPU VM (in-process sweeps at one BLAS thread,
# median of 11-15 alternations) the split lost or tied up to 141k (M = 256, 4
# drops: 11.3 -> 12.5 ms; M = 64, 20 drops: 7.9 -> 9.7 ms) and won at every
# shape tried from 175k up (M = 130, 16 drops: 17.3 -> 14.4 ms; M = 64, 80
# drops: 66.1 -> 42.4 ms; M = 512, 2 drops: 37.7 -> 26.3 ms).
SPLIT_DROP_WORK = 200_000
DROP_FIXED_WORK = 2_500

# Beam work, band points x N x T, from which the band splits (``run_beam_pattern``).
# Cold runs on a 2-vCPU VM, one BLAS thread, median of 9: the split lost or tied up
# to 461k (12 x 8 x 1,801: 17.8 -> 24.2 ms; 2 x 64 x 3,601: 23.3 -> 24.2 ms) and won
# from 576k (4 x 8 x 18,001: 34.6 -> 30.5 ms; 21 x 64 x 3,601: 219.8 -> 142.5 ms).
SPLIT_BEAM_WORK = 500_000


def _admit(key: str, what: str, size: float, bound: int, unit: str) -> None:
    """ValidationError naming ``key`` when ``size`` passes ``bound``. The size
    prints whole and rounded up, so an estimate past the bound never reads as it."""
    if size > bound:
        shown = math.ceil(size) if math.isfinite(size) else size
        raise ValidationError(f"{key} asks for {what} of {shown} {unit}, over the "
                              f"size bound of {bound} {unit}")


def _ue_counts(m_values) -> dict[int, int]:
    """J = M/2 UEs (at least one) per RAP count M, in sweep order."""
    return {m: max(1, round(0.5 * m)) for m in m_values}


def _admit_throughput(cfg: ExperimentConfig, j_of_m: dict[int, int]) -> None:
    """The size bounds on the drop buffers and the largest M's channel draw, and
    on the per-drop components. (The CSV, 2 x schemes x M rows, cannot pass its
    bound before the largest M's buffers pass theirs.)"""
    m_max, j_max = max(j_of_m.items())
    _admit("sweep.m_values", "drop buffers", 48 * m_max * j_max + 24 * j_max**2,
           MAX_ARRAY_BYTES, "bytes")
    _admit("monte_carlo_drops", "drop components",
           32 * cfg.monte_carlo_drops * sum(j_of_m.values()), MAX_ARRAY_BYTES, "bytes")


def _admit_beam(cfg: ExperimentConfig) -> float:
    """The element spacing, after the size bounds on the peak search's projections
    and steering over its 90-degree grid, the pattern grid's projections, phase
    and steering, and the CSV rows, and a check that the largest phase before
    the division by c, 2*pi*f_hi*(N - 1)*spacing, is finite."""
    start, stop, step = cfg.sweep.theta_grid_deg
    angles, n = (stop - start) / step + 1.0, cfg.sweep.array_elements  # up to rounding
    _admit("sweep.array_elements", "peak-search arrays",
           24 * n * (math.pi / 2 / PEAK_STEP_RAD + 1), MAX_ARRAY_BYTES, "bytes")
    _admit("sweep.theta_grid_deg", "pattern arrays", 32 * n * angles, MAX_ARRAY_BYTES, "bytes")
    _admit("sweep.theta_grid_deg and sweep.num_band_points", "a CSV",
           2 * cfg.sweep.num_band_points * angles, MAX_CSV_ROWS, "rows")
    (f_lo, f_hi), spacing = cfg.sweep.band_hz, cfg.sweep.array_spacing_m
    key = "sweep.array_spacing_m"
    if spacing is None:  # lambda / 2 at the band start
        spacing, key = SPEED_OF_LIGHT_M_S / f_lo / 2.0, "sweep.band_hz"
    if not math.isfinite(2 * math.pi * f_hi * ((n - 1) * spacing)):
        raise ValidationError(f"{key} gives an element spacing of {spacing:.4g} m, so the "
                              f"{n}-element array's largest phase at {f_hi:.4g} Hz is not finite")
    return spacing


def _admit_planning(cfg: ExperimentConfig) -> None:
    """The size bounds on one curve's arrays over the fiber axis, 256 bytes per
    length (``power_over`` peaks at 73 for RFoF, a one-curve power sweep with its
    config echo at 89), and on the CSV rows, one per curve and length."""
    lengths = len(cfg.sweep.fiber_km)
    curves = sum(len(cfg.sweep.frequencies_hz) if s is Scheme.RFOF else 1 for s in cfg.schemes)
    _admit("sweep.fiber_km", "per-curve arrays", 256 * lengths, MAX_ARRAY_BYTES, "bytes")
    _admit("sweep.fiber_km and sweep.frequencies_hz", "a CSV", curves * lengths,
           MAX_CSV_ROWS, "rows")


def _base_metadata(cfg: ExperimentConfig, kind: str) -> dict:
    resolved = cfg.resolved()
    return {"kind": kind, "config_hash": hash_resolved(resolved), "config": resolved}


def _curves(cfg: ExperimentConfig):
    """One (scheme, radio constants) pair per planning curve: BBoF, IFoF, and
    RFoF per carrier."""
    for scheme in cfg.schemes:
        if scheme is Scheme.RFOF:
            for f_hz in cfg.sweep.frequencies_hz:
                yield scheme, dataclasses.replace(cfg.scheme_params, rf_carrier_hz=float(f_hz))
        else:
            yield scheme, cfg.scheme_params


def _unless_null(column: np.ndarray, fading: np.ndarray, allow_null: bool, scheme: Scheme,
                 radio: SchemeParams, km: np.ndarray) -> np.ndarray:
    """``column``, unless it holds an overflow (an infinite value where ``fading``
    is finite) or, while nulls are not allowed, a dispersion null sentinel; the
    error names the first length that holds either."""
    failed = (column == math.inf) & ((fading != math.inf) | (not allow_null))
    if failed.any():
        i = failed.argmax()
        if fading[i] != math.inf:
            raise ValidationError(f"{scheme.value} total power is not finite at {float(km[i])} km")
        raise NullSentinelError(
            f"dispersion null at {float(km[i])} km for {scheme.value} at "
            f"{radio.analog_carrier_hz(scheme) / 1e9:g} GHz; "
            "pass --allow-null to emit the sentinel"
        )
    return column


def run_dispersion_sweep(cfg: ExperimentConfig, allow_null: bool = False) -> ResultTable:
    """Fading-vs-length curves per scheme; RFoF gets one curve per frequency."""
    _admit_planning(cfg)
    table = ResultTable(DISPERSION_COLUMNS, metadata=_base_metadata(cfg, "dispersion_sweep"))
    # One array object: every curve shares its formatted text.
    lengths = np.array(cfg.sweep.fiber_km, dtype=float)
    for scheme, radio in _curves(cfg):
        carrier = radio.analog_carrier_hz(scheme)
        if carrier is None:  # BBoF sees no fading
            fading, carrier = Repeat(0.0), 0.0
        else:
            fading = fading_db_over(cfg.fiber, carrier, lengths)
            fading = _unless_null(fading, fading, allow_null, scheme, radio, lengths)
        table.extend_columns(Repeat(scheme.value), Repeat(carrier), lengths, fading)
    return table


def run_power_sweep(cfg: ExperimentConfig, allow_null: bool = False) -> ResultTable:
    """System power vs fiber length per scheme, plus RFoF/BBoF crossovers."""
    _admit_planning(cfg)
    table = ResultTable(POWER_COLUMNS, metadata=_base_metadata(cfg, "power_sweep"))
    m = cfg.sweep.power_num_raps
    p_tx = cfg.sweep.power_p_tx_w
    lengths = np.array(cfg.sweep.fiber_km, dtype=float)
    for scheme, radio in _curves(cfg):
        cu, rap, fading, comp, _, total = power_over(scheme, radio, m, p_tx, cfg.fiber,
                                                     cfg.power, lengths)
        if radio.analog_carrier_hz(scheme) is None:  # BBoF needs no compensation
            comp = Repeat(0.0)
        table.extend_columns(
            Repeat(scheme.value), Repeat(radio.rf_carrier_hz), lengths, Repeat(p_tx),
            Repeat(cu), Repeat(rap), comp,
            _unless_null(total, fading, allow_null, scheme, radio, lengths),
        )

    crossovers = table.metadata["crossovers"] = []
    if Scheme.RFOF in cfg.schemes and Scheme.BBOF in cfg.schemes:
        companion = table.companions["crossovers"] = ResultTable(CROSSOVER_COLUMNS)
        for radio in (radio for scheme, radio in _curves(cfg) if scheme is Scheme.RFOF):
            f_hz = radio.rf_carrier_hz
            found = crossover_length(radio, cfg.fiber, m, p_tx, cfg.sweep.crossover_range_km,
                                     cfg.power)
            crossovers.append(
                {"scheme_a": "rfof", "scheme_b": "bbof", "f_rf_hz": f_hz, "crossover_km": found}
            )
            companion.append("rfof", "bbof", f_hz, "" if found is None else found,
                             found is not None)
    return table


def _drop_buffers(j_of_m: dict[int, int]) -> dict[int, tuple[np.ndarray, ...]]:
    """Per M, what each drop fills in place: the (M, J) weights, whose bytes
    first hold (2, M, J) floats; the gains; the (J, J) Gram product and its
    |.|^2. Every M's buffers are contiguous views of the leading bytes of flat
    storage sized for the largest M, whose J is the largest (J never falls as
    M grows)."""
    m_max, j_max = max(j_of_m.items())
    storage = (np.empty(m_max * j_max, complex), np.empty(m_max * j_max, complex),
               np.empty(j_max * j_max, complex), np.empty(j_max * j_max))
    return {m: tuple(flat[:math.prod(shape)].reshape(shape) for flat, shape in
                     zip(storage, ((m, j), (m, j), (j, j), (j, j))))
            for m, j in j_of_m.items()}


def _throughput_drop(cfg: ExperimentConfig, drop_seed: int, streams: tuple,
                     buffers: tuple[np.ndarray, ...]):
    """Power-normalized SINR components shared by every scheme at this drop;
    ``streams`` holds the seed's ``layout_stream`` and ``channel_stream``."""
    layout, channel = streams
    weights, gains, gram, gram_sq = buffers
    block = weights.view(float).reshape(2, *gains.shape)
    dist = distance_matrix(*generate_layout(cfg.scenario, *gains.shape, drop_seed, layout),
                           out=block)
    serve = udn_association(dist, cfg.sweep.association_mode)
    draw_channels(dist, cfg.channel, drop_seed, out=(gains, block), stream=channel)
    p2 = power_gains(gains, out=block[0])
    return {
        "udn": udn_sinr_components(p2, serve),
        "cellfree": cellfree_sinr_components(gains, p2, out=(weights, gram, gram_sq)),
    }


def _drop_components(cfg: ExperimentConfig, j_of_m: dict[int, int]) -> dict[tuple, np.ndarray]:
    """Per (arch, M), the per-watt signal and interference of every drop, a
    (2, drops, J) view of one (drops, arch, 2, sum of J) array; it depends on no
    scheme, fiber or budget value.

    Drops run seed by seed: each seed draws its layout and channel streams
    once, and every M reads its draws from their prefixes. The largest M
    draws the channel entries past the kept prefix itself. The seeds run through
    ``tables._rows_in_two``, so a helper may run those from drops // 2 on; every
    seed has its own streams.
    """
    drops = cfg.monte_carlo_drops
    largest = max(j_of_m)
    views = _drop_buffers(j_of_m)
    prefix = max((2 * m * j for m, j in j_of_m.items() if m != largest), default=0)
    cells = np.empty((drops, 2, 2, sum(j_of_m.values())))
    ends = np.cumsum([0, *j_of_m.values()]).tolist()
    components = {(arch, m): cells[:, a, :, lo:hi].transpose(1, 0, 2)
                  for a, arch in enumerate(("udn", "cellfree"))
                  for m, lo, hi in zip(j_of_m, ends, ends[1:])}

    def fill(lo, hi):
        for i in range(lo, hi):
            seed = cfg.base_seed + i
            streams = (layout_stream(seed, largest + j_of_m[largest]),
                       channel_stream(seed, prefix))
            for m, buffers in views.items():
                for arch, parts in _throughput_drop(cfg, seed, streams, buffers).items():
                    components[(arch, m)][:, i] = parts

    work = drops * sum(m * j + DROP_FIXED_WORK for m, j in j_of_m.items())
    _rows_in_two(fill, cells, work >= SPLIT_DROP_WORK)
    return components


def run_throughput_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Budget-constrained mean sum throughput vs RAP count, per arch and scheme.

    A (scheme, M) point whose fixed power already exceeds the budget cannot
    operate and contributes zero-throughput rows; the sweep fails only when no
    point is feasible at all, before any drop runs. Each row reads its p_tx
    from the meta ``solver`` record; SINR, fronthaul combining and the sum
    rate run once per (arch, scheme, M), over every drop's components.
    """
    j_of_m = _ue_counts(cfg.sweep.m_values)
    _admit_throughput(cfg, j_of_m)
    table = ResultTable(THROUGHPUT_COLUMNS, metadata=_base_metadata(cfg, "throughput_sweep"))
    radio = cfg.scheme_params
    noise_w = cfg.channel.noise_power_w(radio.wireless_bandwidth_hz)
    drops = cfg.monte_carlo_drops
    fiber_km = np.array([cfg.fiber.length_km], dtype=float)
    fh_snr_db = table.metadata["fronthaul_snr_db"] = {
        s.value: float(fronthaul_snr_db(s, radio, cfg.fiber, fiber_km)[0]) for s in cfg.schemes}

    solver = table.metadata["solver"] = {s.value: {} for s in cfg.schemes}
    for s in cfg.schemes:
        for m in cfg.sweep.m_values:
            (p_tx,), (feasible,) = solve_tx_power(s, radio, m, cfg.fiber, cfg.budget_w,
                                                  cfg.power, fiber_km)
            solver[s.value][str(m)] = {"p_tx_w": float(p_tx), "feasible": bool(feasible)}
    if not any(point["feasible"] for per_m in solver.values() for point in per_m.values()):
        raise InfeasibleBudgetError(
            f"budget {cfg.budget_w} W infeasible for every scheme and RAP count"
        )
    bbof_cap = bbof_per_rap_cap_bps(radio.fiber_bit_rate_bps,  # the digitization limit per RAP
                                    cfg.digitization_bits_per_sample_pair)

    components = _drop_components(cfg, j_of_m)
    for arch in ("udn", "cellfree"):
        for s in cfg.schemes:
            for m in cfg.sweep.m_values:
                p_tx = solver[s.value][str(m)]["p_tx_w"]
                sinr = sinr_from_components(*components[(arch, m)], p_tx, noise_w)
                per_drop = sum_throughput(
                    combine_fronthaul_noise(sinr, db_to_linear(fh_snr_db[s.value])),
                    radio.wireless_bandwidth_hz, m, cfg.overhead,
                    per_rap_cap_bps=bbof_cap if radio.analog_carrier_hz(s) is None else None,
                )
                ci95 = (float(1.96 * per_drop.std(ddof=1) / math.sqrt(drops))
                        if drops > 1 else 0.0)
                table.append(arch, s.value, m, j_of_m[m], drops, p_tx,
                             float(per_drop.mean()), ci95)
    return table


def run_beam_pattern(cfg: ExperimentConfig) -> ResultTable:
    """|AF| over a (frequency, angle) grid for phase-only and TTD steering. The
    band points run through ``tables._rows_in_two``: at one BLAS thread, and from
    SPLIT_BEAM_WORK with a helper that runs the band points from n // 2 on."""
    spacing = _admit_beam(cfg)
    sweep = cfg.sweep
    f_lo, f_hi = sweep.band_hz
    geom = ArrayGeometry.ula(sweep.array_elements, spacing)
    theta0 = math.radians(sweep.steer_theta_deg)
    specs = {"phase_only": phase_only_weights(geom, theta0, f_lo),
             "ttd": ttd_weights(geom, theta0)}
    freqs = np.linspace(f_lo, f_hi, sweep.num_band_points).tolist()
    thetas_deg = angle_grid(*sweep.theta_grid_deg)
    # Peak trajectory, searched on the steering side to dodge grating lobes.
    window = (0.0, math.pi / 2) if theta0 >= 0 else (-math.pi / 2, 0.0)
    t = len(thetas_deg)

    def fill(lo, hi):
        """Per band point and mode, the |AF| column, the phase column and the peak."""
        band = freqs[lo:hi]
        patterns = array_factor_patterns(geom, specs.values(), band, np.radians(thetas_deg))
        peaks = peak_directions(geom, specs.values(), band, *window, toward_rad=theta0)
        # hypot has the bits of the scalar abs(); np.abs takes a SIMD path that does not.
        cells[lo:hi] = [[np.concatenate([np.hypot(v.real, v.imag), np.angle(v), [peak]])
                         for v, peak in zip(*point)] for point in zip(patterns, peaks)]

    cells = np.empty((len(freqs), len(specs), 2 * t + 1))
    _rows_in_two(fill, cells, len(freqs) * sweep.array_elements * t >= SPLIT_BEAM_WORK)

    table = ResultTable(BEAM_COLUMNS, metadata=_base_metadata(cfg, "beam_pattern"))
    peak_rows = []
    for k, mode in enumerate(specs):
        for f_hz, cell in zip(freqs, cells[:, k]):
            table.extend_columns(Repeat(mode), Repeat(f_hz), thetas_deg, cell[:t], cell[t:-1])
            # Every band point has f >= f_lo, so the squint has a real direction.
            predicted = (math.degrees(beam_squint_direction(f_hz, f_lo, theta0))
                         if mode == "phase_only" else None)
            peak_rows.append({"mode": mode, "f_hz": f_hz, "peak_deg": math.degrees(cell[-1]),
                              "squint_prediction_deg": predicted})
    table.metadata["peaks"] = peak_rows
    return table
