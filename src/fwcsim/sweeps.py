"""Experiment runners: dispersion, power, throughput, and beam-pattern sweeps.

Every runner is deterministic for a fixed config: Monte Carlo drop i uses seed
base_seed + i, and drops run and reduce in index order.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .beamform import (
    ArrayGeometry,
    array_factor_patterns,
    beam_squint_direction,
    peak_directions,
    phase_only_weights,
    ttd_weights,
)
from .config import ExperimentConfig, hash_resolved
from .errors import InfeasibleBudgetError, NoRealBeamError, NullSentinelError, ValidationError
from .geometry import distance_matrix, generate_layout, udn_association
from .optics import Scheme, SchemeParams, fading_db_over, fiber_axis, fronthaul_snr_db
from .power import crossover_length, power_over, solve_tx_power
from .tables import Repeat, ResultTable
from .units import SPEED_OF_LIGHT_M_S, db_to_linear
from .wireless import (
    bbof_per_rap_cap_bps,
    cellfree_sinr_components,
    combine_fronthaul_noise,
    draw_channels,
    sinr_from_components,
    sum_throughput,
    udn_sinr_components,
)

DISPERSION_COLUMNS = ("scheme", "f_hz", "fiber_km", "fading_db")
POWER_COLUMNS = (
    "scheme", "f_rf_hz", "fiber_km", "p_tx_w", "cu_w", "rap_w", "fiber_comp_w", "total_w"
)
THROUGHPUT_COLUMNS = (
    "arch", "scheme", "M", "J", "drops", "p_tx_w", "mean_sumrate_bps", "ci95_bps"
)
BEAM_COLUMNS = ("mode", "f_hz", "theta_deg", "af_mag", "af_phase_rad")


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


def _unless_null(column: list, fading: list, allow_null: bool, scheme: Scheme,
                 radio: SchemeParams, km: list) -> list:
    """``column``, unless it holds an overflow (an infinite value where ``fading``
    is finite) or, while nulls are not allowed, a dispersion null sentinel."""
    for i in range(len(column)) if math.inf in column else ():
        if column[i] == math.inf and fading[i] != math.inf:
            raise ValidationError(f"{scheme.value} total power is not finite at {km[i]} km")
        if column[i] == math.inf and not allow_null:
            raise NullSentinelError(
                f"dispersion null at {km[i]} km for {scheme.value} at "
                f"{radio.analog_carrier_hz(scheme) / 1e9:g} GHz; "
                "pass --allow-null to emit the sentinel"
            )
    return column


def run_dispersion_sweep(cfg: ExperimentConfig, allow_null: bool = False) -> ResultTable:
    """Fading-vs-length curves per scheme; RFoF gets one curve per frequency."""
    table = ResultTable("dispersion_sweep", DISPERSION_COLUMNS,
                        metadata=_base_metadata(cfg, "dispersion_sweep"))
    lengths = fiber_axis(cfg.sweep.fiber_km)
    km = lengths.tolist()  # one list object: every curve shares its formatted text
    for scheme, radio in _curves(cfg):
        carrier = radio.analog_carrier_hz(scheme)
        if carrier is None:  # BBoF sees no fading
            fading, carrier = Repeat(0.0), 0.0
        else:
            fading = fading_db_over(cfg.fiber, carrier, lengths)
            _unless_null(fading, fading, allow_null, scheme, radio, km)
        table.extend_columns(Repeat(scheme.value), Repeat(carrier), km, fading)
    return table


def run_power_sweep(cfg: ExperimentConfig, allow_null: bool = False) -> ResultTable:
    """System power vs fiber length per scheme, plus RFoF/BBoF crossovers."""
    table = ResultTable("power_sweep", POWER_COLUMNS,
                        metadata=_base_metadata(cfg, "power_sweep"))
    m = cfg.sweep.power_num_raps
    p_tx = cfg.sweep.power_p_tx_w
    lengths = fiber_axis(cfg.sweep.fiber_km)
    km = lengths.tolist()
    for scheme, radio in _curves(cfg):
        cu, rap, fading, comp, _, total = power_over(scheme, radio, m, p_tx, cfg.fiber,
                                                     cfg.power, lengths)
        table.extend_columns(
            Repeat(scheme.value), Repeat(radio.rf_carrier_hz), km, Repeat(p_tx), Repeat(cu),
            Repeat(rap), comp, _unless_null(total, fading, allow_null, scheme, radio, km),
        )

    crossovers = []
    if Scheme.RFOF in cfg.schemes and Scheme.BBOF in cfg.schemes:
        for f_hz in cfg.sweep.frequencies_hz:
            found = crossover_length(
                Scheme.RFOF, Scheme.BBOF,
                dataclasses.replace(cfg.scheme_params, rf_carrier_hz=float(f_hz)),
                cfg.fiber, m, p_tx, cfg.sweep.crossover_range_km, cfg.power,
            )
            crossovers.append(
                {"scheme_a": "rfof", "scheme_b": "bbof", "f_rf_hz": float(f_hz),
                 "crossover_km": found}
            )
    table.metadata["crossovers"] = crossovers
    return table


def _throughput_drop(cfg: ExperimentConfig, m: int, j: int, drop_seed: int):
    """Power-normalized SINR components shared by every scheme at this drop."""
    dist = distance_matrix(*generate_layout(cfg.scenario, m, j, drop_seed))
    gains = draw_channels(dist, cfg.channel, drop_seed)
    p2 = np.abs(gains) ** 2
    return {
        "udn": udn_sinr_components(p2, *udn_association(dist, cfg.sweep.association_mode)),
        "cellfree": cellfree_sinr_components(gains, p2),
    }


def run_throughput_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Budget-constrained mean sum throughput vs RAP count, per arch and scheme.

    A (scheme, M) point whose fixed power already exceeds the budget cannot
    operate and contributes zero-throughput rows; the sweep fails only when no
    point is feasible at all. Each drop yields per-UE (signal, interference)
    vectors; they are stacked into (drops, J) arrays so that SINR, fronthaul
    combining and the sum rate run once per (arch, scheme, M).
    """
    table = ResultTable("throughput_sweep", THROUGHPUT_COLUMNS,
                        metadata=_base_metadata(cfg, "throughput_sweep"))
    radio = cfg.scheme_params
    noise_w = cfg.channel.noise_power_w(radio.wireless_bandwidth_hz)
    drops = cfg.monte_carlo_drops
    fh_snr_db = {s: fronthaul_snr_db(s, radio, cfg.fiber) for s in cfg.schemes}

    p_tx: dict[tuple[Scheme, int], float] = {}
    feasible: dict[tuple[Scheme, int], bool] = {}
    for s in cfg.schemes:
        for m in cfg.sweep.m_values:
            try:
                p_tx[(s, m)] = solve_tx_power(s, radio, m, cfg.fiber, cfg.budget_w, cfg.power)
                feasible[(s, m)] = True
            except InfeasibleBudgetError:
                p_tx[(s, m)] = 0.0
                feasible[(s, m)] = False
    if not any(feasible.values()):
        raise InfeasibleBudgetError(
            f"budget {cfg.budget_w} W infeasible for every scheme and RAP count"
        )
    caps = {  # the BBoF digitization limit per RAP
        s: bbof_per_rap_cap_bps(radio.fiber_bit_rate_bps, cfg.digitization_bits_per_sample_pair)
        if s is Scheme.BBOF else None for s in cfg.schemes
    }

    rates: dict[tuple[str, Scheme, int], np.ndarray] = {}
    j_of_m: dict[int, int] = {}
    for m in cfg.sweep.m_values:
        j = max(1, round(0.5 * m))
        j_of_m[m] = j
        drop_components = [
            _throughput_drop(cfg, m, j, cfg.base_seed + i) for i in range(drops)
        ]

        for arch in ("udn", "cellfree"):
            signal = np.stack([comps[arch][0] for comps in drop_components])
            interference = np.stack([comps[arch][1] for comps in drop_components])
            for s in cfg.schemes:
                sinr = sinr_from_components(signal, interference, p_tx[(s, m)], noise_w)
                rates[(arch, s, m)] = sum_throughput(
                    combine_fronthaul_noise(sinr, db_to_linear(fh_snr_db[s])),
                    radio.wireless_bandwidth_hz, m, cfg.overhead, per_rap_cap_bps=caps[s],
                )

    for arch in ("udn", "cellfree"):
        for s in cfg.schemes:
            for m in cfg.sweep.m_values:
                per_drop = rates[(arch, s, m)]
                mean = float(per_drop.mean())
                ci95 = (
                    float(1.96 * per_drop.std(ddof=1) / math.sqrt(drops))
                    if drops > 1
                    else 0.0
                )
                table.append(
                    arch, s.value, m, j_of_m[m], drops, p_tx[(s, m)], mean, ci95
                )

    table.metadata["solver"] = {
        s.value: {
            str(m): {"p_tx_w": p_tx[(s, m)], "feasible": feasible[(s, m)]}
            for m in cfg.sweep.m_values
        }
        for s in cfg.schemes
    }
    table.metadata["fronthaul_snr_db"] = {s.value: fh_snr_db[s] for s in cfg.schemes}
    return table


def run_beam_pattern(cfg: ExperimentConfig) -> ResultTable:
    """|AF| over a (frequency, angle) grid for phase-only and TTD steering."""
    sweep = cfg.sweep
    f_lo, f_hi = sweep.band_hz
    spacing = sweep.array_spacing_m
    if spacing is None:
        spacing = SPEED_OF_LIGHT_M_S / f_lo / 2.0
    geom = ArrayGeometry.ula(sweep.array_elements, spacing, f_lo, band_hz=(f_lo, f_hi))
    theta0 = math.radians(sweep.steer_theta_deg)
    specs = {
        "phase_only": phase_only_weights(geom, theta0),
        "ttd": ttd_weights(geom, theta0),
    }
    freqs = np.linspace(f_lo, f_hi, sweep.num_band_points)
    lo_deg, hi_deg, step_deg = sweep.theta_grid_deg
    count = int(round((hi_deg - lo_deg) / step_deg)) + 1
    thetas_deg = lo_deg + step_deg * np.arange(count)
    thetas_rad = np.radians(thetas_deg)

    table = ResultTable("beam_pattern", BEAM_COLUMNS,
                        metadata=_base_metadata(cfg, "beam_pattern"))
    # Peak trajectory, searched on the steering side to dodge grating lobes.
    window = (0.0, math.pi / 2) if theta0 >= 0 else (-math.pi / 2, 0.0)
    per_mode = {mode: [] for mode in specs}  # (f_hz, pattern, peak) per frequency
    for f_hz in freqs.tolist():
        patterns = array_factor_patterns(geom, specs.values(), f_hz, thetas_rad)
        peaks = peak_directions(geom, specs.values(), f_hz, *window)
        for mode, values, measured in zip(specs, patterns, peaks):
            per_mode[mode].append((f_hz, values, measured))

    theta_col = thetas_deg.tolist()
    peak_rows = []
    for mode, results in per_mode.items():
        for f_hz, values, measured in results:
            # hypot has the bits of the scalar abs(); np.abs takes a SIMD path that does not.
            table.extend_columns(
                Repeat(mode), Repeat(f_hz), theta_col,
                np.hypot(values.real, values.imag).tolist(), np.angle(values).tolist(),
            )
            try:
                predicted = math.degrees(beam_squint_direction(f_hz, f_lo, theta0))
            except NoRealBeamError:
                predicted = None
            peak_rows.append(
                {"mode": mode, "f_hz": f_hz,
                 "peak_deg": math.degrees(measured),
                 "squint_prediction_deg": predicted if mode == "phase_only" else None}
            )
    table.metadata["peaks"] = peak_rows
    return table
