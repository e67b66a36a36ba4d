import dataclasses
import math

import numpy as np
import pytest

from fwcsim.errors import ValidationError
from fwcsim.optics import FiberParams, Scheme, SchemeParams, fiber_axis
from fwcsim.power import (
    PowerParams,
    crossover_length,
    pa_input_power,
    power_over,
    solve_tx_power,
)

from test_optics import null_lengths

PARAMS = PowerParams()
FIBER = FiberParams()
RADIO = SchemeParams()
BBOF, IFOF, RFOF = Scheme.BBOF, Scheme.IFOF, Scheme.RFOF


def power_at(scheme, radio, num_raps, p_tx_w, fiber, params):
    """``power_over`` at the fiber's own length, as scalars:
    (cu, rap, fading_db, comp, overhead, total) watts."""
    cu, rap, *columns = power_over(scheme, radio, num_raps, p_tx_w, fiber, params,
                                   fiber_axis([fiber.length_km]))
    return (cu, rap, *(column[0] for column in columns))


def test_pa_input_power():
    assert pa_input_power(0.0, Scheme.BBOF, PARAMS) == 0.0
    assert pa_input_power(1.0, Scheme.BBOF, PARAMS) == pytest.approx(8.0)
    assert pa_input_power(1.0, Scheme.RFOF, PARAMS) == pytest.approx(13.3333, abs=1e-3)
    with pytest.raises(ValidationError):
        pa_input_power(-1.0, Scheme.BBOF, PARAMS)


def test_placement_node_wattages():
    assert power_at(BBOF, RADIO, 1, 1.0, FIBER, PARAMS)[1] == pytest.approx(22.0)
    assert power_at(RFOF, RADIO, 1, 1.0, FIBER, PARAMS)[1] == pytest.approx(14.3333, abs=1e-3)
    assert power_at(IFOF, RADIO, 1, 0.0, FIBER, PARAMS)[0] == pytest.approx(66.0)
    assert power_at(BBOF, RADIO, 1, 0.0, FIBER, PARAMS)[0] == pytest.approx(59.0)
    assert power_at(RFOF, RADIO, 1, 0.0, FIBER, PARAMS)[0] == pytest.approx(66.0)


def test_rap_wattage_ordering():
    bbof = power_at(BBOF, RADIO, 1, 1.0, FIBER, PARAMS)[1]
    ifof = power_at(IFOF, RADIO, 1, 1.0, FIBER, PARAMS)[1]
    rfof = power_at(RFOF, RADIO, 1, 1.0, FIBER, PARAMS)[1]
    assert bbof > ifof > rfof


def fiber_comp_watts(scheme, fiber, params):
    """Drive power offsetting the analog link loss of one RAP."""
    return power_at(scheme, RADIO, 1, 0.0, fiber, params)[3]


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
    total = power_at(BBOF, RADIO, 1, 1.0, FIBER, PARAMS)[-1]
    assert total == pytest.approx(109.35)


def test_breakdown_identity():
    for scheme, m in ((BBOF, 7), (IFOF, 3), (RFOF, 12)):
        cu, rap, _, comp, overhead, total = power_at(scheme, RADIO, m, 0.8, FIBER, PARAMS)
        functional = cu + m * (rap + comp)
        assert total == pytest.approx(PARAMS.overhead_multiplier * functional, rel=1e-12)
        assert overhead == pytest.approx(0.35 * functional, rel=1e-12)
        assert min(cu, rap, comp, overhead) >= 0.0


def test_bbof_total_invariant_in_length():
    totals = [
        power_at(BBOF, RADIO, 10, 1.0, dataclasses.replace(FIBER, length_km=l), PARAMS)[-1]
        for l in np.arange(0.0, 25.1, 0.5)
    ]
    assert len(set(totals)) == 1  # bit-identical, variance exactly zero


def test_ifof_total_strictly_increasing_in_length():
    totals = [
        power_at(IFOF, RADIO, 10, 1.0, dataclasses.replace(FIBER, length_km=l), PARAMS)[-1]
        for l in np.arange(0.0, 25.1, 0.5)
    ]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_monotone_in_p_tx_and_m():
    t1 = power_at(RFOF, RADIO, 10, 0.5, FIBER, PARAMS)[-1]
    t2 = power_at(RFOF, RADIO, 10, 1.5, FIBER, PARAMS)[-1]
    t3 = power_at(RFOF, RADIO, 20, 0.5, FIBER, PARAMS)[-1]
    assert t2 > t1 and t3 > t1


def test_solve_tx_power_bbof_case_study():
    # independent algebraic rearrangement of the affine model; BBoF ignores the length
    m, budget = 100, 2100.0
    expected = ((budget / 1.35 - 59.0) / m - 14.0) / 8.0
    got, feasible = solve_tx_power(BBOF, RADIO, m, FIBER, budget, PARAMS,
                                   fiber_axis([0.0, 19.0, 1e3]))
    assert got == pytest.approx([expected] * 3, abs=1e-9) and feasible == [True] * 3


def test_solve_tx_power_edge_cases():
    fixed = power_at(RFOF, RADIO, 8, 0.0, FIBER, PARAMS)[-1]
    null = null_lengths(FIBER, 20e9, 1)[0]
    axis = fiber_axis([19.0, null])
    p_tx, feasible = solve_tx_power(RFOF, RADIO, 8, FIBER, fixed, PARAMS, axis)
    assert p_tx[0] == pytest.approx(0.0, abs=1e-9) and feasible[0] is True
    # a dispersion null has infinite fixed power: infeasible at any budget
    assert p_tx[1] == 0.0 and feasible[1] is False
    assert solve_tx_power(RFOF, RADIO, 8, FIBER, 1e300, PARAMS, fiber_axis([null])) == (
        [0.0], [False])
    # below the fixed power, beyond the solver tolerance
    p_tx, feasible = solve_tx_power(RFOF, RADIO, 8, FIBER, fixed - 1.0, PARAMS, axis)
    assert p_tx == [0.0, 0.0] and feasible[0] is False and feasible[1] is False
    # within the tolerance: feasible at 0 W
    p_tx, feasible = solve_tx_power(RFOF, RADIO, 8, FIBER, fixed - 5e-10, PARAMS, axis[:1])
    assert p_tx == [0.0] and feasible == [True]
    assert solve_tx_power(RFOF, RADIO, 8, FIBER, fixed, PARAMS, fiber_axis([])) == ([], [])
    # a link loss past the float range at zero drive power: 0 * inf makes the fixed power NaN
    lossy = FiberParams(attenuation_db_per_km=1000.0)
    no_drive = dataclasses.replace(PARAMS, p_link0_w=0.0)
    assert math.isnan(power_over(RFOF, RADIO, 8, 0.0, lossy, no_drive, fiber_axis([5.0]))[-1][0])
    assert solve_tx_power(RFOF, RADIO, 8, lossy, 1e300, no_drive, fiber_axis([5.0])) == (
        [0.0], [False])


def test_solve_round_trip():
    rng = np.random.default_rng(42)
    for scheme in (BBOF, IFOF, RFOF):
        for _ in range(100):
            m = int(rng.integers(1, 200))
            fiber = dataclasses.replace(FIBER, length_km=float(rng.uniform(0.0, 8.0)))
            fixed = power_at(scheme, RADIO, m, 0.0, fiber, PARAMS)[-1]
            budget = fixed + float(rng.uniform(0.01, 5000.0))
            (p,), (feasible,) = solve_tx_power(scheme, RADIO, m, fiber, budget, PARAMS,
                                               fiber_axis([fiber.length_km]))
            total = power_at(scheme, RADIO, m, p, fiber, PARAMS)[-1]
            assert feasible is True and abs(total - budget) <= 1e-6


def test_crossover_identical_schemes():
    assert crossover_length(BBOF, BBOF, RADIO, FIBER, 1, 1.0, (0.5, 25.0), PARAMS) is None


def test_crossover_calibrated_defaults():
    c10 = crossover_length(RFOF, BBOF, SchemeParams(rf_carrier_hz=10e9), FIBER, 1, 1.0,
                           (0.5, 25.0), PARAMS)
    c20 = crossover_length(RFOF, BBOF, SchemeParams(rf_carrier_hz=20e9), FIBER, 1, 1.0,
                           (0.5, 25.0), PARAMS)
    assert c10 is not None and c20 is not None
    assert 10.0 <= c10 <= 17.0
    assert 4.0 <= c20 <= 8.0
    assert c20 < c10


def test_crossover_none_when_out_of_range():
    c = crossover_length(RFOF, BBOF, SchemeParams(rf_carrier_hz=10e9), FIBER, 1, 1.0,
                         (0.5, 5.0), PARAMS)
    assert c is None


def test_power_params_validation():
    with pytest.raises(ValidationError):
        PowerParams(pa_eff_bbof=0.0)
    with pytest.raises(ValidationError):
        PowerParams(feeder_loss=1.0)
    with pytest.raises(ValidationError):
        PowerParams(p_bbu_w=-1.0)
