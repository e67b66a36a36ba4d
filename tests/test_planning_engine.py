"""Bit-identity properties of the column-store table and the array fiber axis.

``ResultTable`` keeps column blocks and formats each distinct column once,
and the planning sweeps compute each curve's fading, compensation and total
columns over the whole fiber axis in one pass. Each must reproduce, bit for
bit, the row-wise writer and the per-length scalar model it replaced (copied
below as references), so the planning CSV and meta bytes cannot move.
"""
import dataclasses
import json
import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fwcsim.config import ExperimentConfig, config_from_dict
from fwcsim.errors import ValidationError
from fwcsim.optics import (
    FiberParams,
    Scheme,
    SchemeParams,
    fading_db_over,
    fronthaul_snr_db,
)
from fwcsim.power import (
    PLACEMENT,
    PowerParams,
    crossover_length,
    pa_input_power,
    power_over,
    solve_tx_power,
)
from fwcsim.sweeps import (
    run_beam_pattern,
    run_dispersion_sweep,
    run_power_sweep,
    run_throughput_sweep,
)
from fwcsim import tables
from fwcsim.tables import Repeat, ResultTable, _column_text, _float_text, _json_ready
from fwcsim.units import SPEED_OF_LIGHT_M_S, db_to_linear

from bulk_repr_check import mismatches, structured_floats
from test_optics import null_lengths


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
    table = ResultTable(tuple(f"c{i}" for i in range(width)))
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


float_cells = st.floats(allow_nan=True, allow_infinity=True)


def array_view(data, n, dtype=float):
    """An ndarray of ``n`` cells: a whole array, a strided or reversed view, a
    column of a 2-D array, or a row of one, as the beam pattern stores them."""
    kind = data.draw(st.sampled_from(["whole", "strided", "reversed", "column", "row"]))
    values = data.draw(st.lists(float_cells if dtype is float else st.integers(-9, 9),
                                min_size=2 * n + 1, max_size=2 * n + 1))
    base = np.array(values, dtype=dtype)
    return {"whole": base[:n], "strided": base[1::2], "reversed": base[::-1][:n],
            "column": base[:2 * n].reshape(n, 2)[:, 1], "row": base[:2 * n].reshape(2, n)[1]}[kind]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_array_columns_write_and_read_as_their_lists(tmp_path_factory, data):
    """A table whose columns are ndarrays (views included, mixed with lists,
    ``Repeat``s and an array axis that several blocks share) writes the bytes
    and gives the rows of the same table with each array's ``tolist()``, and
    its array cells come back as exact Python floats and ints."""
    width = data.draw(st.integers(1, 4), label="columns")
    axis = array_view(data, data.draw(st.integers(0, 5), label="axis rows"))
    axis_list = axis.tolist()  # one list object, shared as the array is
    arrays = ResultTable(tuple(f"c{i}" for i in range(width)))
    lists = ResultTable(arrays.columns)
    for _ in range(data.draw(st.integers(0, 4), label="blocks")):
        n = data.draw(st.sampled_from([len(axis), 0, 1, 3]), label="rows")
        entries, listed = [], []
        for _ in range(width):
            kind = data.draw(st.sampled_from(["float array", "int array", "list", "repeat",
                                              "axis"]))
            if kind == "axis" and n == len(axis):
                entry, as_list = axis, axis_list
            elif kind.endswith("array"):
                entry = array_view(data, n, float if kind == "float array" else np.int64)
                as_list = entry.tolist()
            elif kind == "list":
                entry = as_list = data.draw(st.lists(cells, min_size=n, max_size=n))
            else:
                entry = as_list = Repeat(data.draw(cells))
            entries.append(entry)
            listed.append(as_list)
        if all(isinstance(e, Repeat) for e in entries):
            entries[0] = listed[0] = [entries[0].value] * n
        arrays.extend_columns(*entries)
        lists.extend_columns(*listed)
    out = tmp_path_factory.mktemp("arrays")
    arrays.write_csv(out / "arrays.csv")
    lists.write_csv(out / "lists.csv")
    assert (out / "arrays.csv").read_bytes() == (out / "lists.csv").read_bytes()
    assert [tuple(map(repr, r)) for r in arrays.rows] == [tuple(map(repr, r)) for r in lists.rows]
    rows, done = arrays.rows, 0
    for n, entries in arrays.blocks:
        for j, entry in enumerate(entries):
            if isinstance(entry, np.ndarray):
                want = float if entry.dtype == float else int
                assert all(type(row[j]) is want for row in rows[done:done + n])
        done += n


def test_extend_columns_rejects_blocks_without_one_row_count():
    table = ResultTable(("x", "y"))
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


def as_lists(result):
    """A model function's result with each of its arrays as a list."""
    if isinstance(result, np.ndarray):
        return result.tolist()
    return tuple(map(as_lists, result)) if isinstance(result, tuple) else result


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
    dispersion_ps_nm_km=st.one_of(st.sampled_from([17.0, -0.0, 0.0, -100.0, 5e-324]),
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
    # exact nulls (infinite loss), short enough that the old 10 ** (dB / 10) stays finite
    km = km + [x for x in null_lengths(fiber, carrier, null_k) if x <= 1000.0]
    axis = np.array(km, dtype=float)
    cu, rap, *columns = power_over(scheme, radio, num_raps, p_tx, fiber, params, axis)
    fading_col, comp, overhead, total = (column.tolist() for column in columns)
    fading = [0.0] * len(km) if carrier is None else fading_db_over(fiber, carrier, axis).tolist()
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
        one = power_over(scheme, radio, num_raps, p_tx, fib, params, np.array([length]))
        assert all(same_bits(got.tolist()[0], want) for got, want in zip(
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
    args = (radio, fiber, num_raps, p_tx, span, params)
    assert same_bits(crossover_length(*args), reference_crossover(Scheme.RFOF, Scheme.BBOF, *args))


@settings(max_examples=200, deadline=None)
@given(radios, fibers, lengths, st.floats(0.0, 1e300), power_params, st.integers(1, 1024),
       st.one_of(st.floats(0.0, 1.7976931348623157e308), st.sampled_from([1e300, 1e308])))
def test_bbof_total_is_one_number_at_every_length(radio, fiber, km, at_km, params, num_raps,
                                                  p_tx):
    # crossover_length reads BBoF's total once, at one length, for its whole range;
    # p_tx past the float range makes that total inf.
    def bbof_totals(km):
        return power_over(Scheme.BBOF, radio, num_raps, p_tx, fiber, params,
                          np.array(km, dtype=float))[-1].tolist()

    (one,) = bbof_totals([at_km])
    assert all(same_bits(total, one) for total in bbof_totals(km))


@settings(max_examples=200, deadline=None)
@given(st.one_of(lossy_fibers, fibers), st.one_of(crossover_params, power_params),
       st.floats(0.0, 1.0), st.integers(1, 64), st.floats(0.0, 5.0), st.floats(5e9, 40e9),
       st.tuples(st.one_of(st.integers(0, 5), st.floats(0.0, 5.0)), st.floats(6.0, 60.0)))
def test_crossover_never_lengthens_as_the_link_drive_rises(fiber, params, rise, num_raps, p_tx,
                                                           f_hz, span):
    # RFoF's total does not fall as p_link0_w rises and BBoF's does not read it,
    # so every scan and bisection mask can only gain lengths.
    low, high = (
        crossover_length(SchemeParams(rf_carrier_hz=f_hz), fiber, num_raps, p_tx, span, p)
        for p in (params, dataclasses.replace(params, p_link0_w=params.p_link0_w + rise))
    )
    if low is not None:
        assert high is not None and high <= low


# The one-length fronthaul SNR and budget solver as they stood before the
# length axis: each read ``FiberParams.length_km``, and the solver raised
# InfeasibleBudgetError (read here as infeasible at 0 W).
def previous_fronthaul_snr_db(scheme, radio, fiber):
    if Scheme(scheme) is Scheme.BBOF:
        return math.inf
    fading = fading_db_over(fiber, radio.analog_carrier_hz(scheme),
                            np.array([fiber.length_km], dtype=float)).tolist()[0]
    if math.isinf(fading):
        return -math.inf
    return radio.fronthaul_snr0_db - fiber.attenuation_db_per_km * fiber.length_km - fading


def previous_solve_tx_power(scheme, radio, num_raps, fiber, budget_w, params):
    fixed = power_over(scheme, radio, num_raps, 0.0, fiber, params,
                       np.array([fiber.length_km], dtype=float))[-1].tolist()[0]
    if not math.isfinite(fixed) or budget_w < fixed - 1e-9:
        return 0.0, False
    slope = (params.overhead_multiplier * num_raps
             / params.pa_to_antenna_efficiency(scheme))
    return max(0.0, (budget_w - fixed) / slope), True


# Offsets from a fixed power: inside the solver's 1e-9 W tolerance, on its
# edge, past it, and anywhere within 100 W.
budget_offsets = st.one_of(st.sampled_from([-5e-10, -1e-10, 0.0, -2e-9, 1e-9]),
                           st.floats(-100.0, 100.0))


@settings(max_examples=300, deadline=None)
@given(schemes, radios, fibers, lengths, st.integers(1, 4), power_params, st.integers(1, 1024),
       st.data())
def test_length_axis_snr_and_solver_match_one_length_calls(scheme, radio, fiber, km, null_k,
                                                           params, num_raps, data):
    """Each element of ``fronthaul_snr_db`` and ``solve_tx_power`` over an axis
    with exact nulls is, bit for bit, the one-length call and the scalar form it
    replaced, at budgets on both sides of some length's fixed power."""
    km = km + [x for x in null_lengths(fiber, radio.analog_carrier_hz(scheme), null_k)
               if x <= 1e300]  # the phase of a longer null passes the float range
    axis = np.array(km, dtype=float)
    fixed = [f for f in power_over(scheme, radio, num_raps, 0.0, fiber, params, axis)[-1]
             if math.isfinite(f)]
    budgets = st.one_of(st.integers(1, 10**4), st.floats(0.0, 1e6))
    if fixed:
        budgets = st.builds(float.__add__, st.sampled_from(fixed), budget_offsets) | budgets
    budget = data.draw(budgets)
    snr = fronthaul_snr_db(scheme, radio, fiber, axis).tolist()
    p_tx, feasible = as_lists(solve_tx_power(scheme, radio, num_raps, fiber, budget, params, axis))
    assert len(snr) == len(p_tx) == len(feasible) == len(km)
    for i, length in enumerate(km):
        one = np.array([length], dtype=float)
        fib = dataclasses.replace(fiber, length_km=length)
        assert same_bits(snr[i], fronthaul_snr_db(scheme, radio, fiber, one).tolist()[0])
        assert same_bits(snr[i], previous_fronthaul_snr_db(scheme, radio, fib))
        (p_one,), (ok_one,) = as_lists(
            solve_tx_power(scheme, radio, num_raps, fiber, budget, params, one))
        assert same_bits(p_tx[i], p_one) and feasible[i] is ok_one
        p_old, ok_old = previous_solve_tx_power(scheme, radio, num_raps, fib, budget, params)
        assert same_bits(p_tx[i], p_old) and feasible[i] is ok_old


def test_db_to_linear_past_the_float_range_is_inf():
    assert db_to_linear(3090.0) == math.inf
    assert db_to_linear(math.inf) == math.inf and db_to_linear(-math.inf) == 0.0
    assert db_to_linear(3.0) == 10.0 ** 0.3
    fiber = FiberParams(attenuation_db_per_km=1000.0)
    comp = power_over(Scheme.RFOF, SchemeParams(), 1, 1.0, fiber, PowerParams(),
                      np.array([1.0, 5.0], dtype=float))[3]
    assert math.isfinite(comp[0]) and comp[1] == math.inf
    short = dataclasses.replace(fiber, length_km=1.0)
    one = power_over(Scheme.RFOF, SchemeParams(), 1, 0.0, short, PowerParams(),
                     np.array([short.length_km], dtype=float))
    assert one[3][0] == comp[0]


# The per-element code that the libm maps replaced, copied as it stood: each
# libm call (cos, c**2, log10, 10.0 ** x) ran once per length in a Python loop.
def previous_fading_db_over(fiber, f_hz, lengths_km):
    if f_hz <= 0:
        raise ValidationError(f"frequency must be > 0, got {f_hz}")
    d_si = fiber.dispersion_ps_nm_km * 1e-6
    lam_si = fiber.wavelength_nm * 1e-9
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            phase = math.pi * d_si * (lengths_km * 1e3) * lam_si**2 * f_hz**2 / SPEED_OF_LIGHT_M_S
    except OverflowError:
        phase = np.full(len(lengths_km), math.inf)
    if not np.isfinite(phase).all():
        km = lengths_km[~np.isfinite(phase)][0]
        raise ValidationError(f"dispersion phase is not finite at {km} km, {f_hz / 1e9:g} GHz")
    fading = []
    for cos in map(math.cos, phase.tolist()):
        cos_sq = cos**2
        fading.append(math.inf if cos_sq <= 1e-24
                      else max(0.0, -10.0 * math.log10(cos_sq)))
    return fading


def previous_power_over(scheme, radio, num_raps, p_tx_w, fiber, params, lengths_km):
    cu_fields, rap_fields, _ = PLACEMENT[scheme]
    cu = sum(getattr(params, name) for name in cu_fields)
    rap = sum(getattr(params, name) for name in rap_fields) + pa_input_power(
        p_tx_w, scheme, params)
    overhead_frac = params.overhead_multiplier - 1.0
    with np.errstate(over="ignore"):
        if scheme is Scheme.BBOF:
            fading = comp = [0.0] * len(lengths_km)
        else:
            fading = previous_fading_db_over(fiber, radio.analog_carrier_hz(scheme), lengths_km)
            loss_db = (fiber.attenuation_db_per_km * lengths_km + fading).tolist()
            comp = [math.inf if fade == math.inf else params.p_link0_w * db_to_linear(loss)
                    for fade, loss in zip(fading, loss_db)]
        with np.errstate(invalid="ignore"):  # p_link0 = 0 at an overflow: 0 * inf
            functional = float(cu) + float(num_raps) * (rap + np.array(comp))
        overhead = overhead_frac * functional if overhead_frac else np.zeros(len(comp))
        total = functional + overhead
    return cu, rap, fading, comp, overhead.tolist(), total.tolist()


def outcome(fn, *args):
    """``fn(*args)`` with its arrays as lists, or the type and message of the error
    it raised."""
    try:
        return as_lists(fn(*args))
    except ValidationError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """Equal error, or equal nested results down to the bits of each float."""
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
        return
    assert repr(got) == repr(want)


# Axes with 0, exact nulls (infinite loss), one element, and lengths whose
# attenuation passes the float range of 10 ** (dB / 10) or of the phase;
# dispersions whose fading period passes the float range have no nulls.
edge_fibers = st.builds(
    FiberParams,
    dispersion_ps_nm_km=st.one_of(st.sampled_from([17.0, -17.0, -0.0, 0.0, -5e-324, 1e-300]),
                                  st.floats(-200.0, 200.0)),
    wavelength_nm=st.one_of(st.just(1553.6), st.floats(800.0, 1700.0)),
    attenuation_db_per_km=st.one_of(st.sampled_from([0, 0.3, 1000.0, 1e300]),
                                    st.floats(0.0, 2.0)),
)
edge_lengths = st.lists(st.one_of(st.sampled_from([0.0, 0, 5.0, 19.0, 1e6, 1e306]),
                                  st.floats(0.0, 1000.0)), min_size=1, max_size=10)


@settings(max_examples=300, deadline=None)
@given(schemes, radios, edge_fibers, edge_lengths, st.integers(1, 3), st.booleans(),
       power_params, st.integers(1, 64), st.one_of(st.floats(0.0, 50.0), st.integers(0, 5)))
def test_libm_maps_match_per_element_loops(scheme, radio, fiber, km, null_k, one, params,
                                           num_raps, p_tx):
    """``fading_db_over`` and ``power_over`` give the per-element loops' bits, or
    raise the same ValidationError, on every axis: zero, nulls, negative
    dispersion, a one-element axis as ``solve_tx_power`` passes, and losses
    whose power of ten or phase passes the float range."""
    carrier = radio.analog_carrier_hz(scheme)
    km = km + null_lengths(fiber, carrier, null_k)
    axis = np.array(km[:1] if one else km, dtype=float)
    if carrier is not None:
        assert_same_outcome(outcome(fading_db_over, fiber, carrier, axis),
                            outcome(previous_fading_db_over, fiber, carrier, axis))
    args = (scheme, radio, num_raps, p_tx, fiber, params, axis)
    assert_same_outcome(outcome(power_over, *args), outcome(previous_power_over, *args))


def test_libm_maps_match_per_element_loops_on_a_planning_grid():
    """A 5001-point axis at seven carriers: tens of thousands of points, enough
    to show a substitute that differs in the last place on a small share of
    inputs (x*x for x**2 differs on about 0.1 %)."""
    axis = np.array([round(0.005 * i, 6) for i in range(5001)], dtype=float)
    fiber, params = FiberParams(), PowerParams()
    for f_hz in np.linspace(10e9, 40e9, 7).tolist():
        radio = SchemeParams(rf_carrier_hz=f_hz)
        assert repr(fading_db_over(fiber, f_hz, axis).tolist()) == repr(
            previous_fading_db_over(fiber, f_hz, axis))
        args = (Scheme.RFOF, radio, 1, 1.0, fiber, params, axis)
        assert repr(as_lists(power_over(*args))) == repr(previous_power_over(*args))


def test_power_of_ten_past_the_float_range_is_inf_in_the_map():
    """db_to_linear, mapped over the axis, gives inf at the lengths whose power
    of ten passes the float range, and the others keep their bits."""
    fiber = FiberParams(attenuation_db_per_km=1000.0)
    axis = np.array([0.0, 1.0, 4.0, 19.0], dtype=float)
    args = (Scheme.IFOF, SchemeParams(), 2, 1.0, fiber, PowerParams(), axis)
    got, want = as_lists(power_over(*args)), previous_power_over(*args)
    assert repr(got) == repr(want)
    assert got[3][2:] == [math.inf, math.inf] and math.isfinite(got[3][1])


# The table writer and the two JSON walkers (meta and config echo) as they
# stood before their whole-column paths.
def previous_column_text(column):
    exact = {float: float.__repr__, str: str, int: int.__repr__}
    kinds = set(map(type, column))
    if len(kinds) == 1 and (fmt := exact.get(kinds.pop())):
        return list(map(fmt, column))
    return [exact.get(type(v), reference_format_cell)(v) for v in column]


def previous_json_safe(value):
    if isinstance(value, dict):
        return {k: previous_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [previous_json_safe(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def previous_plain(value):
    if dataclasses.is_dataclass(value):
        return {f.name: previous_plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [previous_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value


echo_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**20, 10**20),
    st.booleans(), st.none(), st.text(alphabet="ab", max_size=2), st.sampled_from(list(Scheme)),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-5, 5).map(np.int64), st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
)
# Number columns next to mixed ones, nested in lists, tuples, dicts and
# config groups.
number_columns = st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                    st.integers(-10**6, 10**6)), max_size=6)
echo_values = st.recursive(
    st.one_of(echo_scalars, number_columns, number_columns.map(tuple),
              st.builds(FiberParams, length_km=st.floats(0.0, 50.0))),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(alphabet="xy", max_size=2), inner,
                                            max_size=3)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(number_columns, st.lists(st.floats(allow_nan=True, allow_infinity=True)
                                          .map(np.float64), max_size=6),
                 st.lists(echo_scalars, max_size=6), st.lists(cells, max_size=6)))
def test_column_text_matches_per_cell_formatting(column):
    assert previous_column_text(column) == _column_text(column)


def reference_json_walk(value):
    """The one JSON walker's rules, element by element: a dataclass as a dict by
    field, a dict as a dict, a list or tuple as a list, an enum member as its
    value, an infinite float (numpy's included) as "inf" or "-inf"."""
    if dataclasses.is_dataclass(value):
        return {f.name: reference_json_walk(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: reference_json_walk(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_json_walk(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and value in (math.inf, -math.inf):
        return "inf" if value > 0 else "-inf"
    return value


@settings(max_examples=300, deadline=None)
@given(echo_values)
def test_json_safe_and_plain_match_element_walks(value):
    """Every echo value, from an empty column to mixed float/int/bool/
    np.float64/str/enum ones with NaN and infinities, walks to the element
    walk's result, types and float bits included."""
    assert repr(_json_ready(value)) == repr(reference_json_walk(value))
    assert (json.dumps(_json_ready(value), default=repr)
            == json.dumps(reference_json_walk(value), default=repr))


def assert_one_walk_is_the_two(value):
    """On config echoes and runner metadata, the one walker gives what the
    meta writer's walk of the echo walk gave."""
    walked = _json_ready(value)
    assert repr(walked) == repr(reference_json_walk(value))
    assert repr(walked) == repr(previous_json_safe(previous_plain(value)))


def test_echo_walkers_on_the_default_config():
    cfg = ExperimentConfig()
    resolved = cfg.resolved()
    assert repr(resolved) == repr(previous_plain(cfg))
    assert_one_walk_is_the_two(cfg)
    assert_one_walk_is_the_two(resolved)


SMALL_RUNS = {
    "sweep": {"fiber_km": [0.0, 9.13278785218495], "frequencies_hz": [10e9, 20e9],
              "m_values": [4], "num_band_points": 2, "theta_grid_deg": [-90.0, 90.0, 15.0]},
    "fiber": {"length_km": 9.13278785218495},  # the 20 GHz null: RFoF's SNR is -inf
    "scheme_params": {"rf_carrier_hz": 20e9},
    "monte_carlo_drops": 2,
}


@pytest.mark.parametrize("run", [
    lambda cfg: run_dispersion_sweep(cfg, allow_null=True),
    lambda cfg: run_power_sweep(cfg, allow_null=True),
    run_throughput_sweep,
    run_beam_pattern,
], ids=["dispersion", "power", "throughput", "beam"])
def test_echo_walkers_on_runner_metadata(run):
    cfg = config_from_dict(SMALL_RUNS)
    metadata = run(cfg).metadata
    assert_one_walk_is_the_two(cfg)
    assert_one_walk_is_the_two(metadata)


# The bulk formatter of float64 array columns (``tables._float_text``) against
# ``float.__repr__``; tests/bulk_repr_check.py runs the same check on 10**7
# values in CI.
bulk_path = pytest.mark.skipif(not tables._BULK_REPR,
                               reason="no x87 long double: float64 arrays take the repr map")


@bulk_path
@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 5000), elements=st.floats(), fill=st.floats()))
def test_bulk_float_text_is_repr(values):
    """Any width, across the chunk size too; subnormals, -0.0, inf and nan included."""
    assert _float_text(values) == list(map(float.__repr__, values.tolist()))


@bulk_path
def test_bulk_float_text_is_repr_on_the_structured_sample():
    values = structured_floats()
    assert len(values) >= 10**5
    assert mismatches(values) == []


@bulk_path
def test_bulk_float_text_of_views_is_that_of_their_copies():
    """A row of the beam engine's cells, a strided column, a reversed view and a
    ``_row_range`` cut format as their contiguous copies do."""
    scale = 10.0 ** np.arange(-6, 9, 3)[:, None, None]
    cells = np.random.default_rng(7).standard_normal((5, 2, 2 * 301 + 1)) * scale
    table = ResultTable(("x", "y"))
    table.extend_columns(cells[2, 1, :301], Repeat(1.0))
    (_, (cut, _)), = tables._row_range(table.blocks, 40, 250)
    for view in (cells[2, 1, :301], cells[2, 1, 301:-1], cells[:, 0, 7], cells[3, 0, ::-3], cut):
        assert view.base is not None
        assert _column_text(view) == _column_text(view.copy())
        assert _column_text(view) == list(map(float.__repr__, view.tolist()))


@pytest.mark.parametrize("run", [run_dispersion_sweep, run_power_sweep, run_beam_pattern],
                         ids=["dispersion", "power", "beam"])
def test_planning_files_do_not_depend_on_the_bulk_path(tmp_path, monkeypatch, run):
    """With the platform gate off, every float64 column takes the repr map: the
    CSV, meta and companion bytes are those of the bulk path."""
    cfg = config_from_dict({"sweep": {
        "fiber_km": [round(0.05 * i, 6) for i in range(401)], "frequencies_hz": [10e9, 25e9],
        "num_band_points": 3, "array_elements": 8, "theta_grid_deg": [-90.0, 90.0, 0.25]}})
    for gate in (True, False):
        monkeypatch.setattr(tables, "_BULK_REPR", gate)
        (tmp_path / str(gate)).mkdir()
        run(cfg).write(tmp_path / str(gate) / "out.csv")
    bulk, mapped = (sorted((tmp_path / str(g)).iterdir()) for g in (True, False))
    assert [p.name for p in bulk] == [p.name for p in mapped] and len(bulk) >= 2
    for a, b in zip(bulk, mapped):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_power_sweep_writes_bbof_compensation_as_a_repeat():
    """BBoF needs no compensation: its block holds one repeated 0.0, as the
    dispersion sweep's BBoF fading does, so the writer formats no column of
    zeros; the analog curves hold float64 arrays."""
    table = run_power_sweep(config_from_dict({"sweep": {"fiber_km": [0.0, 5.0, 19.0]}}))
    comp = table.columns.index("fiber_comp_w")
    entries = {cells[0].value: cells[comp] for _, cells in table.blocks}
    bbof = entries.pop("bbof")
    assert isinstance(bbof, Repeat) and repr(bbof.value) == "0.0"
    assert sorted(entries) == ["ifof", "rfof"]
    assert all(entry.dtype == np.float64 for entry in entries.values())
