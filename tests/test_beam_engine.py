"""Bit-identity properties of the array-native beam-pattern engine.

The engine takes the whole band in one call: the projections of each angle
grid are computed once, and per band frequency the steering matrix is built
from cos and sin of their scaled values, shared by both steering modes. The
CSV rows come from whole-array magnitude and phase columns. Each piece must
reproduce, bit for bit, the per-frequency, per-spec and per-element code it
replaced (copied below as references), so the beam-pattern CSV and meta
bytes cannot move.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwcsim import beamform, sweeps
from fwcsim.beamform import (
    ArrayGeometry,
    _feeds,
    _phase,
    _projections,
    _unit_phasors,
    array_factor_patterns,
    peak_directions,
    phase_only_weights,
    ttd_weights,
)
from fwcsim.config import config_from_dict
from fwcsim.errors import ValidationError
from fwcsim.sweeps import run_beam_pattern
from fwcsim.tables import ResultTable, format_cell
from fwcsim.units import SPEED_OF_LIGHT_M_S

PROPERTY = settings(max_examples=40, deadline=None)


def bits(x) -> np.ndarray:
    return np.asarray(x).view(np.uint64)


def engine_steering(geom, f_hz, thetas_rad):
    """The engine's steering matrix at one frequency: cos and sin of the scaled
    projections."""
    return _unit_phasors(_phase(_projections(geom, thetas_rad), f_hz))


def reference_pattern(geom, spec, f_hz, thetas_rad):
    """The array factor as computed before the shared steering matrix."""
    thetas = np.asarray(thetas_rad, dtype=float)
    u = np.stack([np.sin(thetas), np.cos(thetas)])  # (2, T)
    proj = geom.element_positions @ u  # (N, T)
    w = np.asarray(spec.weights, dtype=complex)
    feed = w * np.exp(-2j * math.pi * f_hz * np.asarray(spec.delays_s))
    return feed @ np.exp(2j * math.pi * f_hz * proj / SPEED_OF_LIGHT_M_S)


def reference_peak(geom, spec, f_hz, theta_lo_rad, theta_hi_rad, step_rad, toward_rad=None):
    """Grid-search argmax of |AF|, one spec at a time, on a grid that never
    passes theta_hi; a tie goes to the angle nearest ``toward_rad``, else the lowest."""
    count = math.floor((theta_hi_rad - theta_lo_rad) / step_rad + 1e-9) + 1
    thetas = theta_lo_rad + step_rad * np.arange(count)
    mags = np.abs(reference_pattern(geom, spec, f_hz, thetas))
    ties = [float(t) for t, mag in zip(thetas, mags) if mag == mags.max()]
    return ties[0] if toward_rad is None else min(ties, key=lambda t: abs(t - toward_rad))


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
    count = math.floor((hi_deg - lo_deg) / step_deg + 1e-9) + 1
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
        reference_peak(geom, spec, float(f_hz), *window, math.radians(0.01), theta0)
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
    got = engine_steering(geom, f_hz, thetas)
    assert got.shape == expected.shape
    assert np.array_equal(bits(got), bits(expected))


@PROPERTY
@given(arrays_and_grids())
def test_pattern_matches_reference_bits(case):
    geom, f_hz, thetas, theta0 = case
    for spec in (phase_only_weights(geom, theta0), ttd_weights(geom, theta0)):
        got = array_factor_patterns(geom, (spec,), [f_hz], thetas)[0][0]
        assert np.array_equal(bits(got), bits(reference_pattern(geom, spec, f_hz, thetas)))


@PROPERTY
@given(arrays_and_grids())
def test_hypot_magnitude_matches_scalar_abs_bits(case):
    geom, f_hz, thetas, theta0 = case
    values = array_factor_patterns(geom, (phase_only_weights(geom, theta0),), [f_hz], thetas)[0][0]
    expected = [float(abs(af)) for af in values]
    assert np.array_equal(bits(np.hypot(values.real, values.imag)), bits(expected))


@PROPERTY
@given(arrays_and_grids())
def test_array_angle_matches_scalar_angle_bits(case):
    geom, f_hz, thetas, theta0 = case
    values = array_factor_patterns(geom, (phase_only_weights(geom, theta0),), [f_hz], thetas)[0][0]
    expected = [float(np.angle(af)) for af in values]
    assert np.array_equal(bits(np.angle(values)), bits(expected))


CLI_STEP = math.radians(0.01)  # the beam-pattern sweep's peak-search step
WINDOWS = {"positive": (0.0, math.pi / 2), "negative": (-math.pi / 2, 0.0),
           "full": (-math.pi / 2, math.pi / 2)}


@PROPERTY
@given(arrays_and_grids(), st.one_of(st.just(0.01), st.floats(0.05, 1.0)),
       st.sampled_from(sorted(WINDOWS)), st.booleans())
def test_shared_peaks_match_per_spec_peak_bits(case, step_deg, window, toward_steering):
    """The shared, coarse-bounded search returns each spec's full-grid argmax,
    ties included, at the CLI's 0.01 degree step and at coarser ones."""
    geom, f_hz, _, theta0 = case
    step = math.radians(step_deg)
    toward = theta0 if toward_steering else -math.inf
    specs = (phase_only_weights(geom, theta0), ttd_weights(geom, theta0))
    got = peak_directions(geom, specs, [f_hz], *WINDOWS[window], step, toward)[0]
    assert got == [reference_peak(geom, spec, f_hz, *WINDOWS[window], step, toward)
                   for spec in specs]


@st.composite
def arrays_and_bands(draw):
    """``arrays_and_grids`` with 1-6 band points in the array's band (repeats
    allowed) in place of its one frequency."""
    geom, _, thetas, theta0 = draw(arrays_and_grids())
    f_lo, f_hi = geom.band_hz
    freqs = [min(f_hi, f_lo + (f_hi - f_lo) * u)
             for u in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))]
    return geom, freqs, thetas, theta0


@settings(max_examples=20, deadline=None)
@given(arrays_and_bands(), st.one_of(st.just(0.01), st.floats(0.05, 1.0)),
       st.sampled_from(sorted(WINDOWS)), st.sampled_from(["lowest", "steering", "drawn"]),
       st.floats(-math.pi, math.pi))
def test_band_call_matches_per_frequency_references(case, step_deg, window, tie, drawn):
    """One band call gives, at each band point, the per-frequency full-grid
    argmax (ties to ``toward_rad`` included) and the per-frequency
    ``feed @ steering`` pattern, bit for bit: the shared projections, the
    reused buffers and the columns zeroed between band points move nothing."""
    geom, freqs, thetas, theta0 = case
    step = math.radians(step_deg)
    toward = {"lowest": -math.inf, "steering": theta0, "drawn": drawn}[tie]
    specs = (phase_only_weights(geom, theta0), ttd_weights(geom, theta0))
    peaks = peak_directions(geom, specs, freqs, *WINDOWS[window], step, toward)
    assert peaks == [[reference_peak(geom, spec, f_hz, *WINDOWS[window], step, toward)
                      for spec in specs] for f_hz in freqs]
    patterns = array_factor_patterns(geom, specs, freqs, thetas)
    assert len(patterns) == len(freqs)
    for f_hz, per_spec in zip(freqs, patterns):
        for spec, got in zip(specs, per_spec):
            assert np.array_equal(bits(got), bits(reference_pattern(geom, spec, f_hz, thetas)))


class CountingNumpy:
    """numpy as ``fwcsim.beamform`` sees it, recording the column count and a
    copy of every (N, T) phase matrix passed to cos."""

    def __init__(self):
        self.columns, self.phases = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, *args, **kwargs):
        if np.ndim(x) == 2:
            self.columns.append(np.shape(x)[1])
            self.phases.append(np.array(x))
        return np.cos(x, *args, **kwargs)


def reference_phase(geom, f_hz, thetas_rad):
    """The full-grid phase of the per-frequency search: one projection product
    over the whole grid, then (0*0 + 2*pi*f*p) * (1/c)."""
    thetas = np.asarray(thetas_rad, dtype=float)
    phase = geom.element_positions @ np.stack([np.sin(thetas), np.cos(thetas)])
    phase *= 2 * math.pi * f_hz
    phase += 0.0
    phase *= 1.0 / SPEED_OF_LIGHT_M_S
    return phase


def exact_pass_phases_are_full_grid_columns(geom, specs, freqs, window, step):
    """Whether at every band point the exact pass takes cos of columns that are,
    bit for bit, columns of the full grid's phase."""
    numpy = CountingNumpy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(beamform, "np", numpy)
        peak_directions(geom, specs, freqs, *window, step)
    thetas = beamform.angle_grid(*window, step)
    for f_hz, exact in zip(freqs, numpy.phases[1::2]):  # coarse, then exact, per point
        full = {column.tobytes() for column in reference_phase(geom, f_hz, thetas).T}
        if not all(column.tobytes() in full for column in exact.T):
            return False
    return True


@PROPERTY
@given(arrays_and_bands(), st.floats(0.05, 1.0), st.sampled_from(sorted(WINDOWS)))
def test_exact_pass_takes_trig_of_full_grid_phase_columns(case, step_deg, window):
    """The projections come from one product over the whole grid, scaled per
    frequency; a product over the candidate columns alone would move some bits."""
    geom, freqs, _, theta0 = case
    assert exact_pass_phases_are_full_grid_columns(
        geom, (phase_only_weights(geom, theta0),), freqs, WINDOWS[window], math.radians(step_deg))


@pytest.mark.parametrize("theta0_deg", [0.0, 0.6])
def test_one_candidate_phase_is_a_full_grid_column(theta0_deg):
    """A planar 64-element array on a two-angle grid: one candidate per band
    point, whose phase a one-column product would give with other bits."""
    geom = ArrayGeometry(np.random.default_rng(7).uniform(-0.2, 0.2, (64, 2)), 10e9,
                         (10e9, 20e9))
    spec = phase_only_weights(geom, math.radians(theta0_deg))
    assert exact_pass_phases_are_full_grid_columns(
        geom, (spec,), [10e9, 14e9, 20e9], (0.0, math.radians(1.0)), math.radians(0.6))


@pytest.mark.parametrize("hi_deg, step_deg", [(1.0, 0.6), (0.5, 0.6)])
def test_one_candidate_column(monkeypatch, hi_deg, step_deg):
    """On a two-angle grid the coarse pass covers every angle, and only the
    main-lobe one is a candidate; on a one-angle grid that angle is."""
    geom = ArrayGeometry.ula(16, SPEED_OF_LIGHT_M_S / 10e9 / 2, 10e9, (10e9, 10e9))
    spec = phase_only_weights(geom, math.radians(0.6))
    window = (0.0, math.radians(hi_deg))
    numpy = CountingNumpy()
    monkeypatch.setattr(beamform, "np", numpy)
    got = peak_directions(geom, (spec,), [10e9], *window, math.radians(step_deg))[0]
    assert numpy.columns[-1] == 1  # the exact pass takes cos of one column
    assert got == [reference_peak(geom, spec, 10e9, *window, math.radians(step_deg))]


@PROPERTY
@given(arrays_and_grids(), st.data())
def test_subset_trig_and_zeroed_product_keep_full_width_bits(case, data):
    """cos and sin of the scaled phase of some columns of the full-width
    projections give the columns of the steering matrix, and a full-width
    product with the other columns zeroed gives those columns' |AF| bit for bit."""
    geom, f_hz, thetas, theta0 = case
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(thetas),
                                       max_size=len(thetas))))
    full = engine_steering(geom, f_hz, thetas)
    subset = _unit_phasors(_phase(_projections(geom, thetas)[:, keep], f_hz))
    assert np.array_equal(bits(subset), bits(np.ascontiguousarray(full[:, keep])))
    zeroed = np.zeros_like(full)
    zeroed[:, keep] = subset
    specs = (phase_only_weights(geom, theta0), ttd_weights(geom, theta0))
    for feed in _feeds(geom, specs, f_hz):
        assert np.array_equal(bits(np.abs(feed @ zeroed)[keep]),
                              bits(np.abs(feed @ full)[keep]))


def reference_steer_projections(geom, theta_rad):
    """The steering direction's projections as the weights computed them before
    they read the grid routine: one expression per element, scalar trig."""
    xy = geom.element_positions
    return xy[:, 0] * math.sin(theta_rad) + xy[:, 1] * math.cos(theta_rad)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.floats(1e-4, 1.0),
       st.one_of(st.sampled_from([-90.0, -0.0, 0.0, 90.0]), st.floats(-90.0, 90.0)))
def test_one_angle_projections_match_scalar_reference_bits(n, spacing, theta_deg):
    """The phase-only and TTD weights read the steering direction's projections
    from the grid routine, one column wide; on a ULA each keeps the bits of the
    scalar expression they used before."""
    geom = ArrayGeometry.ula(n, spacing, 1e10, (1e10, 1e10))
    theta = math.radians(theta_deg)
    got = _projections(geom, [theta])[:, 0]
    assert np.array_equal(bits(got), bits(reference_steer_projections(geom, theta)))


@PROPERTY
@given(st.integers(2, 64), st.floats(1e9, 5e10), st.sampled_from([90.0, -90.0]))
def test_ttd_endfire_grating_lobe_tie_goes_to_steering_angle(n, f_lo, theta0_deg):
    """A half-wavelength TTD array steered to endfire has a grating lobe at
    broadside as high as the main lobe at twice its design frequency; the
    search still reports the steering angle."""
    geom = ArrayGeometry.ula(n, SPEED_OF_LIGHT_M_S / f_lo / 2, f_lo, (f_lo, 2 * f_lo))
    theta0 = math.radians(theta0_deg)
    spec = ttd_weights(geom, theta0)
    window = (0.0, math.pi / 2) if theta0 > 0 else (-math.pi / 2, 0.0)
    got = peak_directions(geom, (spec,), [2 * f_lo], *window, toward_rad=theta0)[0]
    assert got == [reference_peak(geom, spec, 2 * f_lo, *window, CLI_STEP, theta0)]
    assert got[0] == pytest.approx(theta0, abs=1e-9)


@pytest.mark.parametrize("sweep", [
    {},  # the default config
    {"array_elements": 64, "num_band_points": 21, "theta_grid_deg": [-90.0, 90.0, 0.05]},
], ids=["default", "bench-planning"])
def test_peak_search_takes_trig_of_under_an_eighth_of_the_grid(monkeypatch, sweep):
    """Coarse pass and exact pass together take cos of fewer than 1/8 of the
    fine-grid columns at every band point of the beam-pattern sweep, which
    searches the whole band in one call."""
    cfg = config_from_dict({"sweep": sweep})
    numpy = CountingNumpy()
    calls = []

    def counted(*args, **kwargs):
        numpy.columns.clear()
        calls.append(peak(*args, **kwargs))
        grid = beamform.angle_grid(*args[3:5], CLI_STEP)
        # Per band point, the coarse pass's cos and then the exact pass's.
        assert len(numpy.columns) == 2 * len(args[2])
        for coarse, exact in zip(numpy.columns[::2], numpy.columns[1::2]):
            assert 0 < coarse + exact < len(grid) / 8, (coarse, exact, len(grid))
        return calls[-1]

    peak = beamform.peak_directions
    monkeypatch.setattr(beamform, "np", numpy)
    monkeypatch.setattr(sweeps, "peak_directions", counted)
    run_beam_pattern(cfg)
    assert len(calls) == 1 and len(calls[0]) == cfg.sweep.num_band_points


@pytest.mark.parametrize("step", [0.0, -0.0, -math.radians(0.01), math.nan, math.inf, -math.inf])
def test_bad_peak_search_step_raises_validation_error(step):
    geom = ArrayGeometry.ula(4, 0.01, 10e9, (10e9, 10e9))
    with pytest.raises(ValidationError, match="angle step"):
        peak_directions(geom, (ttd_weights(geom, 0.1),), [10e9], 0.0, 1.0, step)
    with pytest.raises(ValidationError, match="angle step"):
        beamform.angle_grid(0.0, 1.0, step)


@pytest.mark.parametrize("theta0_deg", [90.0, -90.0])
def test_ttd_endfire_grating_lobe_tie_reports_the_steering_angle(theta0_deg):
    """At 20 GHz the default array's TTD pattern reads |AF| = 8 at both 0 and
    endfire; the tie goes to the steering angle on either side."""
    table = run_beam_pattern(config_from_dict({"sweep": {"steer_theta_deg": theta0_deg}}))
    ttd = [p["peak_deg"] for p in table.metadata["peaks"] if p["mode"] == "ttd"]
    assert ttd == pytest.approx([theta0_deg] * 5, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(-90.0, 0.0), st.floats(0.0, 90.0), st.floats(0.05, 10.0), st.booleans())
def test_theta_grid_never_passes_its_stop(lo, hi, step, descending):
    """The beam-pattern grid runs from start toward stop in whole steps and
    ends at the last one that does not pass stop (up to rounding)."""
    grid = [hi, lo, -step] if descending else [lo, hi, step]
    table = run_beam_pattern(config_from_dict({"sweep": {
        "theta_grid_deg": grid, "array_elements": 1, "num_band_points": 1}}))
    thetas = table.blocks[0][1][2]  # the theta column of the first (mode, f) block
    start, stop, step = grid
    assert thetas[0] == start
    assert (stop - thetas[-1]) / step >= -1e-9 - 1e-12 / abs(step)
    assert (stop - thetas[-1]) / step < 1.0


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
    table = ResultTable(("a", "b", "c"))
    for row in rows:
        table.append(*row)
    out = tmp_path_factory.mktemp("csv") / "mixed.csv"
    table.write_csv(out)
    lines = ["a,b,c"] + [",".join(format_cell(v) for v in row) for row in rows]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_extend_columns_appends_rows_and_checks_shape():
    table = ResultTable(("x", "y"))
    table.extend_columns(["a", "b"], [1.0, 2.0])
    assert table.rows == [("a", 1.0), ("b", 2.0)]
    with pytest.raises(ValueError):
        table.extend_columns(["a"])
    with pytest.raises(ValueError):
        table.extend_columns(["a", "b"], [1.0])

