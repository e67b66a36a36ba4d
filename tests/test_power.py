import dataclasses
import math

import numpy as np
import pytest

from fwcsim.errors import InfeasibleBudgetError, ValidationError
from fwcsim.optics import FiberParams, Scheme, SchemeConfig, null_lengths
from fwcsim.power import (
    PowerParams,
    crossover_length,
    pa_input_power,
    solve_tx_power,
    system_power,
)

PARAMS = PowerParams()
FIBER = FiberParams()
BBOF = SchemeConfig.bbof()
IFOF = SchemeConfig.ifof()
RFOF = SchemeConfig.rfof()


def test_pa_input_power():
    assert pa_input_power(0.0, Scheme.BBOF, PARAMS) == 0.0
    assert pa_input_power(1.0, Scheme.BBOF, PARAMS) == pytest.approx(8.0)
    assert pa_input_power(1.0, Scheme.RFOF, PARAMS) == pytest.approx(13.3333, abs=1e-3)
    with pytest.raises(ValidationError):
        pa_input_power(-1.0, Scheme.BBOF, PARAMS)


def test_placement_node_wattages():
    assert system_power(BBOF, 1, 1.0, FIBER, PARAMS).per_rap_watts == pytest.approx(22.0)
    assert system_power(RFOF, 1, 1.0, FIBER, PARAMS).per_rap_watts == pytest.approx(
        14.3333, abs=1e-3
    )
    assert system_power(IFOF, 1, 0.0, FIBER, PARAMS).cu_watts == pytest.approx(66.0)
    assert system_power(BBOF, 1, 0.0, FIBER, PARAMS).cu_watts == pytest.approx(59.0)
    assert system_power(RFOF, 1, 0.0, FIBER, PARAMS).cu_watts == pytest.approx(66.0)


def test_rap_wattage_ordering():
    bbof = system_power(BBOF, 1, 1.0, FIBER, PARAMS).per_rap_watts
    ifof = system_power(IFOF, 1, 1.0, FIBER, PARAMS).per_rap_watts
    rfof = system_power(RFOF, 1, 1.0, FIBER, PARAMS).per_rap_watts
    assert bbof > ifof > rfof


def fiber_comp_watts(scheme, fiber, params):
    """Drive power offsetting the analog link loss of one RAP."""
    return system_power(scheme, 1, 0.0, fiber, params).fiber_comp_watts


def test_fiber_comp_watts():
    assert fiber_comp_watts(BBOF, FIBER, PARAMS) == 0.0
    # 7.1 dB of pure attenuation with an explicit 1.5 W drive reference
    flat = FiberParams(dispersion_ps_nm_km=0.0, attenuation_db_per_km=0.71, length_km=10.0)
    params = dataclasses.replace(PARAMS, p_link0_w=1.5)
    assert fiber_comp_watts(RFOF, flat, params) == pytest.approx(7.6929, abs=1e-3)
    null_fiber = dataclasses.replace(FIBER, length_km=null_lengths(FIBER, 20e9, 1)[0])
    assert math.isinf(fiber_comp_watts(RFOF, null_fiber, PARAMS))


def test_system_power_hand_sum():
    # 1.35 * (59 + 22) with Table-I defaults
    total = system_power(BBOF, 1, 1.0, FIBER, PARAMS).total_watts
    assert total == pytest.approx(109.35)


def test_breakdown_identity():
    for scheme, m in ((BBOF, 7), (IFOF, 3), (RFOF, 12)):
        b = system_power(scheme, m, 0.8, FIBER, PARAMS)
        functional = b.cu_watts + m * (b.per_rap_watts + b.fiber_comp_watts)
        assert b.total_watts == pytest.approx(PARAMS.overhead_multiplier * functional, rel=1e-12)
        assert b.overhead_watts == pytest.approx(0.35 * functional, rel=1e-12)
        assert min(b.cu_watts, b.per_rap_watts, b.fiber_comp_watts, b.overhead_watts) >= 0.0


def test_bbof_total_invariant_in_length():
    totals = [
        system_power(BBOF, 10, 1.0, dataclasses.replace(FIBER, length_km=l), PARAMS).total_watts
        for l in np.arange(0.0, 25.1, 0.5)
    ]
    assert len(set(totals)) == 1  # bit-identical, variance exactly zero


def test_ifof_total_strictly_increasing_in_length():
    totals = [
        system_power(IFOF, 10, 1.0, dataclasses.replace(FIBER, length_km=l), PARAMS).total_watts
        for l in np.arange(0.0, 25.1, 0.5)
    ]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_monotone_in_p_tx_and_m():
    t1 = system_power(RFOF, 10, 0.5, FIBER, PARAMS).total_watts
    t2 = system_power(RFOF, 10, 1.5, FIBER, PARAMS).total_watts
    t3 = system_power(RFOF, 20, 0.5, FIBER, PARAMS).total_watts
    assert t2 > t1 and t3 > t1


def test_solve_tx_power_bbof_case_study():
    # independent algebraic rearrangement of the affine model
    m, budget = 100, 2100.0
    expected = ((budget / 1.35 - 59.0) / m - 14.0) / 8.0
    assert solve_tx_power(BBOF, m, FIBER, budget, PARAMS) == pytest.approx(expected, abs=1e-9)


def test_solve_tx_power_edge_cases():
    fixed = system_power(RFOF, 8, 0.0, FIBER, PARAMS).total_watts
    assert solve_tx_power(RFOF, 8, FIBER, fixed, PARAMS) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InfeasibleBudgetError):
        solve_tx_power(RFOF, 8, FIBER, fixed - 1.0, PARAMS)
    null_fiber = dataclasses.replace(FIBER, length_km=null_lengths(FIBER, 20e9, 1)[0])
    with pytest.raises(InfeasibleBudgetError):
        solve_tx_power(RFOF, 8, null_fiber, 1e9, PARAMS)


def test_solve_round_trip():
    rng = np.random.default_rng(42)
    for scheme in (BBOF, IFOF, RFOF):
        for _ in range(100):
            m = int(rng.integers(1, 200))
            fiber = dataclasses.replace(FIBER, length_km=float(rng.uniform(0.0, 8.0)))
            fixed = system_power(scheme, m, 0.0, fiber, PARAMS).total_watts
            budget = fixed + float(rng.uniform(0.01, 5000.0))
            p = solve_tx_power(scheme, m, fiber, budget, PARAMS)
            total = system_power(scheme, m, p, fiber, PARAMS).total_watts
            assert abs(total - budget) <= 1e-6


def test_crossover_identical_schemes():
    assert crossover_length(BBOF, BBOF, FIBER, 1, 1.0, (0.5, 25.0), PARAMS) is None


def test_crossover_calibrated_defaults():
    c10 = crossover_length(RFOF, BBOF, FIBER, 1, 1.0, (0.5, 25.0), PARAMS, rf_carrier_hz=10e9)
    c20 = crossover_length(RFOF, BBOF, FIBER, 1, 1.0, (0.5, 25.0), PARAMS, rf_carrier_hz=20e9)
    assert c10 is not None and c20 is not None
    assert 10.0 <= c10 <= 17.0
    assert 4.0 <= c20 <= 8.0
    assert c20 < c10


def test_crossover_none_when_out_of_range():
    c = crossover_length(RFOF, BBOF, FIBER, 1, 1.0, (0.5, 5.0), PARAMS, rf_carrier_hz=10e9)
    assert c is None


def test_power_params_validation():
    with pytest.raises(ValidationError):
        PowerParams(pa_eff_bbof=0.0)
    with pytest.raises(ValidationError):
        PowerParams(feeder_loss=1.0)
    with pytest.raises(ValidationError):
        PowerParams(p_bbu_w=-1.0)
