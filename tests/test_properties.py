"""Model invariants as properties over random inputs.

The power solver inverts the system power model, and fronthaul noise only
ever degrades the wireless SINR. Through the sweep runners: a cleaner
fronthaul or a larger budget never lowers the throughput, a longer fiber
never raises an IFoF row and never moves a BBoF row, RFoF fading repeats
with the dispersion period, a true-time-delay beam stays on its steering
angle across the band, and a phase-only beam follows the squint closed form.
"""
import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fwcsim.config import config_from_dict
from fwcsim.errors import InfeasibleBudgetError
from fwcsim.optics import FiberParams, Scheme, SchemeParams
from fwcsim.power import PowerParams, solve_tx_power
from fwcsim.sweeps import run_beam_pattern, run_dispersion_sweep, run_throughput_sweep
from fwcsim.units import SPEED_OF_LIGHT_M_S
from fwcsim.wireless import combine_fronthaul_noise
from test_optics import fading_period_km
from test_power import power_at

wattage = st.floats(0.0, 100.0)
power_params = st.builds(
    PowerParams,
    p_bbu_w=wattage, p_ifm_w=wattage, p_duc_w=wattage, p_dpd_w=wattage, p_dac_w=wattage,
    p_rfu_w=wattage, p_cm_w=wattage, p_eo_w=wattage, p_oe_w=wattage,
    pa_eff_bbof=st.floats(0.01, 1.0), pa_eff_ifof=st.floats(0.01, 1.0),
    pa_eff_rfof=st.floats(0.01, 1.0), feeder_loss=st.floats(0.0, 0.9),
    supply_loss_frac=st.floats(0.0, 0.5), cooling_frac=st.floats(0.0, 0.5),
)
schemes = st.sampled_from(list(Scheme))
radios = st.builds(SchemeParams, rf_carrier_hz=st.floats(1e8, 60e9),
                   if_carrier_hz=st.floats(1e6, 1e9))


@settings(max_examples=200, deadline=None)
@given(schemes, radios, st.integers(1, 1024), st.floats(0.0, 25.0), power_params,
       st.floats(0.0, 1e6))
def test_solved_tx_power_spends_the_budget(scheme, radio, num_raps, length_km, params,
                                           headroom):
    fiber = dataclasses.replace(FiberParams(), length_km=length_km)
    fixed = power_at(scheme, radio, num_raps, 0.0, fiber, params)[-1]
    assume(math.isfinite(fixed))  # a dispersion null has no feasible budget
    budget = fixed + headroom
    (p_tx,), (feasible,) = solve_tx_power(scheme, radio, num_raps, fiber, budget, params,
                                          np.array([length_km], dtype=float))
    assert feasible == True and p_tx >= 0.0
    total = power_at(scheme, radio, num_raps, p_tx, fiber, params)[-1]
    assert math.isclose(total, budget, rel_tol=1e-12, abs_tol=1e-9)


snr_terms = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 1e300))


snr_pairs = st.integers(1, 16).flatmap(
    lambda n: st.tuples(arrays(float, n, elements=snr_terms), arrays(float, n, elements=snr_terms))
)


@settings(max_examples=150, deadline=None)
@given(snr_pairs)
def test_combining_never_raises_the_sinr(terms):
    sinr, fronthaul = terms
    combined = combine_fronthaul_noise(sinr, fronthaul)
    # 1/(1/s + 1/fh) with fh >> s rounds through 1/(1/s), which may land one
    # unit in the last place above s; it never lands further.
    assert np.all(combined <= np.nextafter(sinr, math.inf))
    assert np.all(combined <= np.nextafter(fronthaul, math.inf))
    assert np.all(combined[np.isinf(fronthaul)] == sinr[np.isinf(fronthaul)])


@settings(max_examples=15, deadline=None)
@given(st.floats(-20.0, 80.0), st.floats(0.0, 60.0), st.integers(0, 1000),
       st.sampled_from(["ue_nearest", "rap_nearest"]))
def test_throughput_never_drops_as_fronthaul_snr_rises(snr0_db, rise_db, seed, mode):
    def sweep(snr_db):
        cfg = config_from_dict({
            "scheme_params": {"fronthaul_snr0_db": snr_db},
            "sweep": {"m_values": [4, 16], "association_mode": mode},
            "budget_w": 1e5,
            "monte_carlo_drops": 3,
            "base_seed": seed,
        })
        return run_throughput_sweep(cfg).rows

    low, high = sweep(snr0_db), sweep(snr0_db + rise_db)
    assert [row[:6] for row in low] == [row[:6] for row in high]
    for before, after in zip(low, high):
        assert after[6] >= before[6], (before, after)


def throughput_table(sweep=(), **config):
    """A throughput sweep at M = 4 and 16 over three drops, or None when no
    point is feasible."""
    try:
        return run_throughput_sweep(config_from_dict(
            {"sweep": {"m_values": [4, 16], **dict(sweep)}, "monte_carlo_drops": 3, **config}))
    except InfeasibleBudgetError:
        return None


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.floats(1.7, 4.0).map(lambda e: 10.0**e), st.floats(1.0, 20.0), st.floats(0.0, 40.0),
       st.integers(0, 1000), st.sampled_from(["ue_nearest", "rap_nearest"]))
def test_throughput_never_drops_as_the_budget_rises(budget_w, rise, length_km, seed, mode):
    """A larger budget keeps every feasible point feasible and never lowers
    its transmit power or its throughput."""
    def sweep(budget):
        return throughput_table(budget_w=budget, base_seed=seed, fiber={"length_km": length_km},
                                sweep={"association_mode": mode})

    low, high = sweep(budget_w), sweep(budget_w * rise)
    if high is None:
        assert low is None
        return
    if low is None:
        return
    for scheme, points in low.metadata["solver"].items():
        for m, point in points.items():
            assert high.metadata["solver"][scheme][m]["feasible"] >= point["feasible"]
    assert [row[:5] for row in low.rows] == [row[:5] for row in high.rows]
    for before, after in zip(low.rows, high.rows):
        assert after[5] >= before[5] and after[6] >= before[6], (before, after)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(2.3, 5.0).map(lambda e: 10.0**e),
       st.integers(0, 1000))
def test_ifof_throughput_never_rises_with_fiber_length(a_km, b_km, budget_w, seed):
    """More fiber means more attenuation and dispersion on the IF carrier and
    more compensation power, so an IFoF row never rises with the length."""
    def sweep(length_km):
        return throughput_table(schemes=["ifof"], budget_w=budget_w, base_seed=seed,
                                fiber={"length_km": length_km})

    short, long = sweep(min(a_km, b_km)), sweep(max(a_km, b_km))
    if short is None:
        assert long is None
        return
    if long is None:
        return
    assert [row[:5] for row in short.rows] == [row[:5] for row in long.rows]
    for before, after in zip(short.rows, long.rows):
        assert after[6] <= before[6], (before, after)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.integers(0, 1000),
       st.sampled_from(["ue_nearest", "rap_nearest"]))
def test_bbof_throughput_does_not_depend_on_fiber_length(a_km, b_km, seed, mode):
    """BBoF carries bits: the fiber's attenuation and dispersion reach neither
    its fronthaul SNR nor its power, so its rows keep their bits at any length."""
    def sweep(length_km):
        table = throughput_table(schemes=["bbof"], budget_w=1e5, base_seed=seed,
                                 fiber={"length_km": length_km},
                                 sweep={"association_mode": mode})
        return [tuple(map(repr, row)) for row in table.rows]

    assert sweep(a_km) == sweep(b_km)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(1e9, 40e9), st.floats(0.0, 50.0))
def test_rfof_fading_repeats_with_the_dispersion_period(f_hz, length_km):
    """cos^2 of the dispersion phase repeats each c/(|D| lambda^2 f^2): the
    dispersion sweep's RFoF fading is the same one, two and three periods on."""
    period = fading_period_km(FiberParams(), f_hz)
    table = run_dispersion_sweep(config_from_dict({
        "schemes": ["rfof"],
        "sweep": {"frequencies_hz": [f_hz],
                  "fiber_km": [length_km + k * period for k in range(4)]},
    }), allow_null=True)
    first, *later = [row[3] for row in table.rows]
    assume(first < 30.0)  # near a null the fading is too steep to compare
    for k, fading in enumerate(later, 1):
        assert math.isclose(fading, first, abs_tol=1e-6), (k, fading, first)


@st.composite
def beam_sweeps(draw):
    """A beam-pattern sweep config whose element spacing puts no grating lobe
    in the visible window at any band point: d < c / (f_hi * (1 + |sin theta0|))."""
    f_lo = draw(st.floats(1e9, 40e9))
    f_hi = f_lo * draw(st.floats(1.0, 3.0))
    theta0_deg = draw(st.floats(0.0, 85.0)) * draw(st.sampled_from([1, -1]))
    bound = SPEED_OF_LIGHT_M_S / (f_hi * (1 + abs(math.sin(math.radians(theta0_deg)))))
    return {"sweep": {
        "array_elements": draw(st.integers(2, 48)),
        "array_spacing_m": bound * draw(st.floats(0.05, 1.0, exclude_max=True)),
        "band_hz": [f_lo, f_hi],
        "num_band_points": draw(st.integers(1, 5)),
        "steer_theta_deg": theta0_deg,
        "theta_grid_deg": [-90.0, 90.0, 5.0],
    }}


PEAK_HALF_STEP_DEG = 0.005  # half the peak search's 0.01 degree grid step
BEAM_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@BEAM_PROPERTY
@given(beam_sweeps())
def test_ttd_peak_holds_on_the_steering_angle_across_the_band(data):
    """True time delays keep the measured peak at one grid angle at every band
    point, the one nearest the steering angle."""
    peaks = run_beam_pattern(config_from_dict(data)).metadata["peaks"]
    ttd = {p["peak_deg"] for p in peaks if p["mode"] == "ttd"}
    assert len(ttd) == 1, ttd
    assert abs(ttd.pop() - data["sweep"]["steer_theta_deg"]) <= PEAK_HALF_STEP_DEG


@BEAM_PROPERTY
@given(beam_sweeps())
def test_phase_only_peak_follows_the_squint_closed_form(data):
    """Phase-only weights steer only at the band start; at every band point the
    measured peak sits on asin((f0/f) sin theta0)."""
    peaks = run_beam_pattern(config_from_dict(data)).metadata["peaks"]
    for p in peaks:
        if p["mode"] == "phase_only":
            assert abs(p["peak_deg"] - p["squint_prediction_deg"]) <= PEAK_HALF_STEP_DEG, p
