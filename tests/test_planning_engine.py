"""Bit-identity properties of the column-store table and the array fiber axis.

``ResultTable`` keeps column blocks and formats each distinct column once,
and the planning sweeps compute each curve's fading, compensation and total
columns over the whole fiber axis in one pass. Each must reproduce, bit for
bit, the row-wise writer and the per-length scalar model it replaced (copied
below as references), so the planning CSV and meta bytes cannot move.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwcsim.optics import (
    FiberParams,
    Scheme,
    SchemeParams,
    fading_db_over,
    fiber_axis,
    null_lengths,
)
from fwcsim.power import (
    PLACEMENT,
    PowerParams,
    crossover_length,
    power_over,
)
from fwcsim.tables import Repeat, ResultTable
from fwcsim.units import SPEED_OF_LIGHT_M_S, db_to_linear


def reference_format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def reference_csv(columns, rows) -> bytes:
    """The row-wise writer that formatted every cell of every row."""
    fast = {float: float.__repr__, str: str, int: int.__repr__}.get
    lines = [",".join(columns)]
    lines.extend(
        ",".join([fast(type(v), reference_format_cell)(v) for v in row]) for row in rows
    )
    return ("\n".join(lines) + "\n").encode()


cells = st.one_of(
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, "", "rfof", None]),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-10**6, 10**6).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(alphabet="abc_-. ", max_size=5),
)
# A column of one exact type takes the writer's one-map path.
uniform_cells = st.one_of(st.floats(allow_nan=True), st.integers(-10**6, 10**6),
                          st.text(alphabet="xyz", max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_write_csv_matches_rowwise_writer(tmp_path_factory, data):
    width = data.draw(st.integers(1, 5), label="columns")
    axis = data.draw(st.lists(cells, max_size=6), label="axis")  # shared by several blocks
    table = ResultTable("mixed", tuple(f"c{i}" for i in range(width)))
    rows = []
    for _ in range(data.draw(st.integers(0, 5), label="blocks")):
        n = data.draw(st.sampled_from([len(axis), 0, 1, 3]), label="rows")
        entries, expanded = [], []
        for _ in range(width):
            kind = data.draw(st.sampled_from(["repeat", "mixed", "uniform", "axis"]))
            if kind == "axis" and n == len(axis):
                entry = column = axis
            elif kind in ("repeat", "axis"):
                value = data.draw(cells)
                entry, column = Repeat(value), [value] * n
            else:
                column = data.draw(st.lists(cells if kind == "mixed" else uniform_cells,
                                            min_size=n, max_size=n))
                entry = column
            entries.append(entry)
            expanded.append(column)
        if all(isinstance(e, Repeat) for e in entries):
            entries[0] = expanded[0]  # a block needs one sequence to set its row count
        table.extend_columns(*entries)
        rows.extend(zip(*expanded))
    out = tmp_path_factory.mktemp("csv") / "mixed.csv"
    table.write_csv(out)
    assert out.read_bytes() == reference_csv(table.columns, rows)
    assert [tuple(map(repr, r)) for r in table.rows] == [tuple(map(repr, r)) for r in rows]


def test_extend_columns_rejects_blocks_without_one_row_count():
    table = ResultTable("t", ("x", "y"))
    with pytest.raises(ValueError):
        table.extend_columns(Repeat("a"), Repeat(1.0))
    with pytest.raises(ValueError):
        table.extend_columns(["a", "b"], [1.0])
    table.extend_columns(Repeat("a"), [1.0, 2.0])
    assert table.rows == [("a", 1.0), ("a", 2.0)]


# The scalar model as it stood before the fiber axis became an array.
def reference_fading_db(fiber, f_hz):
    d_si = fiber.dispersion_ps_nm_km * 1e-6
    lam_si = fiber.wavelength_nm * 1e-9
    length_si = fiber.length_km * 1e3
    phase = math.pi * d_si * length_si * lam_si**2 * f_hz**2 / SPEED_OF_LIGHT_M_S
    cos_sq = math.cos(phase) ** 2
    if cos_sq <= 1e-24:
        return math.inf
    return max(0.0, -10.0 * math.log10(cos_sq))


def reference_scheme_fading_db(scheme, radio, fiber):
    carrier = radio.analog_carrier_hz(scheme)
    return 0.0 if carrier is None else reference_fading_db(fiber, carrier)


def reference_db_to_linear(value_db):
    if value_db == -math.inf:
        return 0.0
    if value_db == math.inf:
        return math.inf
    return 10.0 ** (value_db / 10.0)


def reference_system_power(scheme, radio, num_raps, p_tx_w, fiber, params):
    """(cu, rap, comp, overhead, total) of the scalar model."""
    cu_fields, rap_fields, eff = PLACEMENT[scheme]
    cu = sum(getattr(params, name) for name in cu_fields)
    rap = sum(getattr(params, name) for name in rap_fields) + p_tx_w / (
        getattr(params, eff) * (1.0 - params.feeder_loss))
    if scheme is Scheme.BBOF:
        comp = 0.0
    else:
        fading = reference_scheme_fading_db(scheme, radio, fiber)
        comp = math.inf if math.isinf(fading) else params.p_link0_w * reference_db_to_linear(
            fiber.attenuation_db_per_km * fiber.length_km + fading)
    functional = cu + num_raps * (rap + comp)
    overhead = (params.overhead_multiplier - 1.0) * functional
    return cu, rap, comp, overhead, functional + overhead


def same_bits(got, want) -> bool:
    """Equal including the sign of zero and the exact type; NaN equals NaN."""
    return type(got) is type(want) and (repr(got) == repr(want))


wattage = st.one_of(st.floats(0.0, 100.0), st.integers(0, 100))
fraction = st.one_of(st.just(0.0), st.just(0), st.floats(0.0, 0.5))
power_params = st.builds(
    PowerParams,
    p_bbu_w=wattage, p_ifm_w=wattage, p_duc_w=wattage, p_dpd_w=wattage, p_dac_w=wattage,
    p_rfu_w=wattage, p_cm_w=wattage, p_eo_w=wattage, p_oe_w=wattage,
    pa_eff_bbof=st.floats(0.01, 1.0), pa_eff_ifof=st.floats(0.01, 1.0),
    pa_eff_rfof=st.floats(0.01, 1.0), feeder_loss=st.floats(0.0, 0.9),
    supply_loss_frac=fraction, cooling_frac=fraction,
    p_link0_w=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.integers(0, 2)),
)
fibers = st.builds(
    FiberParams,
    dispersion_ps_nm_km=st.one_of(st.sampled_from([17.0, -0.0, 0.0, -100.0]),
                                  st.floats(-200.0, 200.0)),
    wavelength_nm=st.floats(800.0, 1700.0),
    attenuation_db_per_km=st.one_of(st.just(0), st.floats(0.0, 2.0)),
)
schemes = st.sampled_from(list(Scheme))
radios = st.builds(
    lambda carrier: SchemeParams(rf_carrier_hz=carrier, if_carrier_hz=carrier / 80),
    st.one_of(st.floats(1e8, 60e9), st.integers(10**8, 6 * 10**10)),
)
lengths = st.lists(st.one_of(st.floats(0.0, 1000.0), st.sampled_from([0.0, -0.0, 0]),
                             st.integers(0, 1000)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(schemes, radios, fibers, lengths, st.integers(1, 4), power_params,
       st.integers(1, 1024), st.one_of(st.floats(0.0, 50.0), st.integers(0, 50)))
def test_array_power_columns_match_scalar_model(scheme, radio, fiber, km, null_k, params,
                                                num_raps, p_tx):
    carrier = radio.analog_carrier_hz(scheme)
    if carrier is not None and abs(fiber.dispersion_ps_nm_km) > 1e-3:
        # exact nulls (infinite loss), short enough that the old 10 ** (dB / 10) stays finite
        km = km + [x for x in null_lengths(fiber, carrier, null_k) if x <= 1000.0]
    axis = fiber_axis(km)
    cu, rap, fading_col, comp, overhead, total = power_over(scheme, radio, num_raps, p_tx,
                                                            fiber, params, axis)
    fading = [0.0] * len(km) if carrier is None else fading_db_over(fiber, carrier, axis)
    for i, length in enumerate(km):
        fib = dataclasses.replace(fiber, length_km=length)
        want = reference_system_power(scheme, radio, num_raps, p_tx, fib, params)
        assert same_bits(fading[i], reference_scheme_fading_db(scheme, radio, fib))
        assert same_bits(fading_col[i], fading[i])
        assert same_bits(cu, want[0]) and same_bits(rap, want[1])
        assert same_bits(comp[i], want[2])
        if math.isnan(want[4]) and math.isinf(comp[i]) and params.overhead_multiplier == 1.0:
            want = (*want[:3], 0.0, math.inf)  # the old 0 * inf overhead made the total NaN
        assert same_bits(overhead[i], want[3]) and same_bits(total[i], want[4])
        one = power_over(scheme, radio, num_raps, p_tx, fib, params, fiber_axis([length]))
        assert all(same_bits(got[0], want) for got, want in zip(
            one[3:], (comp[i], overhead[i], total[i])))


def reference_crossover(scheme_a, scheme_b, radio, fiber, num_raps, p_tx_w, length_range_km,
                        params):
    """The length-by-length scan and bisection over the scalar model."""
    lo, hi = length_range_km
    num_scan = 512

    def diff(length_km):
        fib = dataclasses.replace(fiber, length_km=length_km)
        total_a = reference_system_power(scheme_a, radio, num_raps, p_tx_w, fib, params)[4]
        total_b = reference_system_power(scheme_b, radio, num_raps, p_tx_w, fib, params)[4]
        if math.isinf(total_a) and math.isinf(total_b):
            return 0.0
        if math.isinf(total_a):
            return math.inf
        if math.isinf(total_b):
            return -math.inf
        return total_a - total_b

    step = (hi - lo) / (num_scan - 1)
    prev_l, prev_d = lo, diff(lo)
    if prev_d > 0:
        return lo
    for i in range(1, num_scan):
        cur_l = lo + i * step
        cur_d = diff(cur_l)
        if cur_d > 0:
            break
        prev_l, prev_d = cur_l, cur_d
    else:
        return None
    lo_l, hi_l = prev_l, cur_l
    for _ in range(80):
        mid = 0.5 * (lo_l + hi_l)
        if diff(mid) > 0:
            hi_l = mid
        else:
            lo_l = mid
        if hi_l - lo_l < 1e-9:
            break
    return 0.5 * (lo_l + hi_l)


# Lossy fibers near the catalogue wattages: most ranges hold a crossing to bisect.
lossy_fibers = st.builds(FiberParams, dispersion_ps_nm_km=st.floats(-200.0, 200.0),
                         attenuation_db_per_km=st.floats(0.1, 2.0))
crossover_params = st.builds(
    PowerParams, p_link0_w=st.floats(0.01, 1.0), pa_eff_rfof=st.floats(0.05, 0.5),
    pa_eff_bbof=st.floats(0.05, 0.5), supply_loss_frac=st.floats(0.01, 0.5),
    p_bbu_w=st.one_of(st.just(58), st.floats(0.0, 100.0)),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(lossy_fibers, fibers), st.one_of(crossover_params, power_params.filter(
           lambda p: p.overhead_multiplier > 1.0)),  # zero overhead: the old NaN at nulls
       st.integers(1, 64), st.floats(0.0, 5.0), st.floats(5e9, 40e9),
       st.tuples(st.one_of(st.integers(0, 5), st.floats(0.0, 5.0)), st.floats(6.0, 60.0)))
def test_crossover_scan_matches_scalar_scan(fiber, params, num_raps, p_tx, f_hz, span):
    radio = SchemeParams(rf_carrier_hz=f_hz)
    args = (Scheme.RFOF, Scheme.BBOF, radio, fiber, num_raps, p_tx, span, params)
    assert same_bits(crossover_length(*args), reference_crossover(*args))


def test_db_to_linear_past_the_float_range_is_inf():
    assert db_to_linear(3090.0) == math.inf
    assert db_to_linear(math.inf) == math.inf and db_to_linear(-math.inf) == 0.0
    assert db_to_linear(3.0) == 10.0 ** 0.3
    fiber = FiberParams(attenuation_db_per_km=1000.0)
    comp = power_over(Scheme.RFOF, SchemeParams(), 1, 1.0, fiber, PowerParams(),
                      fiber_axis([1.0, 5.0]))[3]
    assert math.isfinite(comp[0]) and comp[1] == math.inf
    short = dataclasses.replace(fiber, length_km=1.0)
    one = power_over(Scheme.RFOF, SchemeParams(), 1, 0.0, short, PowerParams(),
                     fiber_axis([short.length_km]))
    assert one[3][0] == comp[0]


def test_fiber_axis_keeps_the_length_check():
    assert fiber_axis([0, 1.5, -0.0]).tolist() == [0.0, 1.5, -0.0]
    with pytest.raises(ValueError, match="length must be >= 0"):
        fiber_axis([1.0, -1e-300])
