"""Model invariants as properties over random inputs.

The power solver inverts the system power model, fronthaul noise only ever
degrades the wireless SINR, and a cleaner fronthaul never lowers the sweep
throughput.
"""
import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fwcsim.config import config_from_dict
from fwcsim.optics import FiberParams, Scheme, SchemeParams, fiber_axis
from fwcsim.power import PowerParams, solve_tx_power
from fwcsim.sweeps import run_throughput_sweep
from fwcsim.wireless import combine_fronthaul_noise
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
                                          fiber_axis([length_km]))
    assert feasible is True and p_tx >= 0.0
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
