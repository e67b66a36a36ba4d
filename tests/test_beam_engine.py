"""Bit-identity properties of the array-native beam-pattern engine.

The steering matrix is built from cos and sin, shared by both steering
modes and by the peak search, and the CSV rows come from whole-array
magnitude and phase columns. Each piece must reproduce, bit for bit, the
per-spec and per-element code it replaced (copied below as references),
so the beam-pattern CSV and meta bytes cannot move.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwcsim.beamform import (
    ArrayGeometry,
    array_factor_patterns,
    peak_directions,
    phase_only_weights,
    steering_matrix,
    ttd_weights,
)
from fwcsim.config import config_from_dict
from fwcsim.sweeps import run_beam_pattern
from fwcsim.tables import ResultTable, format_cell
from fwcsim.units import SPEED_OF_LIGHT_M_S

PROPERTY = settings(max_examples=40, deadline=None)


def bits(x) -> np.ndarray:
    return np.asarray(x).view(np.uint64)


def reference_pattern(geom, spec, f_hz, thetas_rad):
    """The array factor as computed before the shared steering matrix."""
    thetas = np.asarray(thetas_rad, dtype=float)
    u = np.stack([np.sin(thetas), np.cos(thetas)])  # (2, T)
    proj = geom.element_positions @ u  # (N, T)
    w = np.asarray(spec.weights, dtype=complex)
    feed = w * np.exp(-2j * math.pi * f_hz * np.asarray(spec.delays_s))
    return feed @ np.exp(2j * math.pi * f_hz * proj / SPEED_OF_LIGHT_M_S)


def reference_peak(geom, spec, f_hz, theta_lo_rad, theta_hi_rad, step_rad):
    """Grid-search argmax of |AF|, one spec at a time, as before."""
    count = int(round((theta_hi_rad - theta_lo_rad) / step_rad)) + 1
    thetas = theta_lo_rad + step_rad * np.arange(count)
    mags = np.abs(reference_pattern(geom, spec, f_hz, thetas))
    return float(thetas[int(np.argmax(mags))])


def reference_beam_rows(cfg):
    """The per-element row loop of the beam-pattern sweep, and its peaks."""
    sweep = cfg.sweep
    f_lo, f_hi = sweep.band_hz
    spacing = sweep.array_spacing_m
    if spacing is None:
        spacing = SPEED_OF_LIGHT_M_S / f_lo / 2.0
    geom = ArrayGeometry.ula(sweep.array_elements, spacing, f_lo, band_hz=(f_lo, f_hi))
    theta0 = math.radians(sweep.steer_theta_deg)
    specs = {"phase_only": phase_only_weights(geom, theta0), "ttd": ttd_weights(geom, theta0)}
    freqs = np.linspace(f_lo, f_hi, sweep.num_band_points)
    lo_deg, hi_deg, step_deg = sweep.theta_grid_deg
    count = int(round((hi_deg - lo_deg) / step_deg)) + 1
    thetas_deg = lo_deg + step_deg * np.arange(count)
    thetas_rad = np.radians(thetas_deg)
    rows = []
    for mode, spec in specs.items():
        for f_hz in freqs:
            values = reference_pattern(geom, spec, float(f_hz), thetas_rad)
            for theta_deg, af in zip(thetas_deg, values):
                rows.append((mode, float(f_hz), float(theta_deg), float(abs(af)),
                             float(np.angle(af))))
    window = (0.0, math.pi / 2) if theta0 >= 0 else (-math.pi / 2, 0.0)
    peaks = [
        reference_peak(geom, spec, float(f_hz), *window, math.radians(0.01))
        for spec in specs.values() for f_hz in freqs
    ]
    return rows, peaks


@st.composite
def arrays_and_grids(draw):
    """A ULA, or an arbitrary planar array, with a frequency in its band and
    a grid of directions reaching past +-90 degrees."""
    n = draw(st.integers(1, 64))
    f_lo = draw(st.floats(1e9, 1e11))
    f_hi = f_lo * draw(st.floats(1.0, 4.0))
    f_hz = min(f_hi, f_lo + (f_hi - f_lo) * draw(st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        spacing = draw(st.floats(1e-4, 0.2))
        geom = ArrayGeometry.ula(n, spacing, f_lo, band_hz=(f_lo, f_hi))
    else:
        xy = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                           min_size=n, max_size=n))
        geom = ArrayGeometry(np.array(xy), f_lo, (f_lo, f_hi))
    thetas = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=80)))
    theta0 = draw(st.floats(-math.pi / 2, math.pi / 2))
    return geom, f_hz, thetas, theta0


@PROPERTY
@given(arrays_and_grids())
def test_steering_matrix_matches_complex_exp_bits(case):
    geom, f_hz, thetas, _ = case
    u = np.stack([np.sin(thetas), np.cos(thetas)])
    proj = geom.element_positions @ u
    expected = np.exp(2j * math.pi * f_hz * proj / SPEED_OF_LIGHT_M_S)
    got = steering_matrix(geom, f_hz, thetas)
    assert got.shape == expected.shape
    assert np.array_equal(bits(got), bits(expected))


@PROPERTY
@given(arrays_and_grids())
def test_pattern_matches_reference_bits(case):
    geom, f_hz, thetas, theta0 = case
    for spec in (phase_only_weights(geom, theta0), ttd_weights(geom, theta0)):
        got = array_factor_patterns(geom, (spec,), f_hz, thetas)[0]
        assert np.array_equal(bits(got), bits(reference_pattern(geom, spec, f_hz, thetas)))


@PROPERTY
@given(arrays_and_grids())
def test_hypot_magnitude_matches_scalar_abs_bits(case):
    geom, f_hz, thetas, theta0 = case
    values = array_factor_patterns(geom, (phase_only_weights(geom, theta0),), f_hz, thetas)[0]
    expected = [float(abs(af)) for af in values]
    assert np.array_equal(bits(np.hypot(values.real, values.imag)), bits(expected))


@PROPERTY
@given(arrays_and_grids())
def test_array_angle_matches_scalar_angle_bits(case):
    geom, f_hz, thetas, theta0 = case
    values = array_factor_patterns(geom, (phase_only_weights(geom, theta0),), f_hz, thetas)[0]
    expected = [float(np.angle(af)) for af in values]
    assert np.array_equal(bits(np.angle(values)), bits(expected))


@PROPERTY
@given(arrays_and_grids(), st.floats(0.05, 1.0), st.booleans())
def test_shared_peaks_match_per_spec_peak_bits(case, step_deg, positive_side):
    geom, f_hz, _, theta0 = case
    window = (0.0, math.pi / 2) if positive_side else (-math.pi / 2, 0.0)
    step = math.radians(step_deg)
    specs = (phase_only_weights(geom, theta0), ttd_weights(geom, theta0))
    got = peak_directions(geom, specs, f_hz, *window, step)
    assert got == [reference_peak(geom, spec, f_hz, *window, step) for spec in specs]


beam_configs = st.fixed_dictionaries({
    "steer_theta_deg": st.floats(-80.0, 80.0),
    "array_elements": st.integers(1, 40),
    "array_spacing_m": st.one_of(st.none(), st.floats(1e-3, 0.05)),
    "band_hz": st.tuples(st.floats(1e9, 5e10), st.floats(1.0, 3.0)).map(
        lambda lo_ratio: [lo_ratio[0], lo_ratio[0] * lo_ratio[1]]),
    "num_band_points": st.integers(1, 4),
    "theta_grid_deg": st.tuples(st.floats(-90.0, 0.0), st.floats(0.0, 90.0),
                                st.floats(0.5, 10.0)).map(list),
})


@settings(max_examples=30, deadline=None)
@given(beam_configs)
def test_beam_rows_and_peaks_match_reference(sweep):
    cfg = config_from_dict({"sweep": sweep})
    table = run_beam_pattern(cfg)
    rows, peaks = reference_beam_rows(cfg)
    # repr tells -0.0 from 0.0 and a numpy scalar from a float
    assert [tuple(map(repr, row)) for row in table.rows] == [
        tuple(map(repr, row)) for row in rows
    ]
    assert [p["peak_deg"] for p in table.metadata["peaks"]] == [
        math.degrees(p) for p in peaks
    ]


cells = st.one_of(
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.inf, -math.inf, "", "phase_only", None]),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-10**6, 10**6).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(alphabet="abc_-. ", max_size=5),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(cells, cells, cells), max_size=8))
def test_write_csv_fast_path_matches_format_cell(tmp_path_factory, rows):
    table = ResultTable("mixed", ("a", "b", "c"))
    for row in rows:
        table.append(*row)
    out = tmp_path_factory.mktemp("csv") / "mixed.csv"
    table.write_csv(out)
    lines = ["a,b,c"] + [",".join(format_cell(v) for v in row) for row in rows]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_extend_columns_appends_rows_and_checks_shape():
    table = ResultTable("t", ("x", "y"))
    table.extend_columns(["a", "b"], [1.0, 2.0])
    assert table.rows == [("a", 1.0), ("b", 2.0)]
    with pytest.raises(ValueError):
        table.extend_columns(["a"])
    with pytest.raises(ValueError):
        table.extend_columns(["a", "b"], [1.0])

