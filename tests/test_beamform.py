import cmath
import math

import numpy as np
import pytest

from fwcsim.beamform import (
    ArrayGeometry,
    BeamformerSpec,
    array_factor_pattern,
    beam_squint_direction,
    coherent_within_symbol,
    mixed_beamformer,
    peak_direction,
    phase_only_weights,
    sync_delays,
    ttd_weights,
)
from fwcsim.errors import DegenerateChannelError, NoRealBeamError, ValidationError
from fwcsim.geometry import NetworkLayout, Scenario, generate_layout
from fwcsim.units import SPEED_OF_LIGHT_M_S
from fwcsim.wireless import ChannelModel, ChannelRealization, draw_channels

F0 = 10e9
LAMBDA0 = SPEED_OF_LIGHT_M_S / F0
GEOM = ArrayGeometry.ula(8, LAMBDA0 / 2, F0, band_hz=(F0, 2 * F0))
DEG = math.degrees


def array_factor(geom, spec, f_hz, theta_rad):
    """The array factor at a single direction."""
    return complex(array_factor_pattern(geom, spec, f_hz, np.array([theta_rad]))[0])


def air_delay_s(layout, rap, ue):
    (rx, ry), (ux, uy) = layout.rap_xy[rap], layout.ue_xy[ue]
    return math.hypot(rx - ux, ry - uy) / SPEED_OF_LIGHT_M_S


def brute_force_af(geom, spec, f_hz, theta_rad):
    """Term-by-term summation, no vectorization."""
    ux, uy = math.sin(theta_rad), math.cos(theta_rad)
    total = 0 + 0j
    for w, tau, (x, y) in zip(spec.weights, spec.delays_s, geom.element_positions.tolist()):
        proj = x * ux + y * uy
        total += (
            w
            * cmath.exp(-2j * math.pi * f_hz * tau)
            * cmath.exp(2j * math.pi * f_hz * proj / SPEED_OF_LIGHT_M_S)
        )
    return total


def test_single_element_unity():
    geom = ArrayGeometry.ula(1, LAMBDA0 / 2, F0, band_hz=(F0, 2 * F0))
    spec = BeamformerSpec((1 + 0j,), (0.0,))
    for f in (F0, 1.3 * F0, 2 * F0):
        for theta in (-1.0, 0.0, 0.4):
            assert abs(array_factor(geom, spec, f, theta)) == pytest.approx(1.0)


def test_matched_weights_reach_n():
    theta0 = math.radians(30.0)
    spec = phase_only_weights(GEOM, theta0)
    assert abs(array_factor(GEOM, spec, F0, theta0)) == pytest.approx(8.0, rel=1e-12)


def test_array_factor_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(25):
        weights = tuple(complex(a, b) for a, b in rng.normal(size=(8, 2)))
        delays = tuple(float(d) for d in rng.uniform(0, 1e-9, size=8))
        spec = BeamformerSpec(weights, delays)
        f = float(rng.uniform(F0, 2 * F0))
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        got = array_factor(GEOM, spec, f, theta)
        assert abs(got - brute_force_af(GEOM, spec, f, theta)) < 1e-12 * 8
        pattern = array_factor_pattern(GEOM, spec, f, np.array([theta, -theta, 0.0]))
        assert abs(pattern[0] - got) < 1e-12 * 8
        assert abs(pattern[1] - brute_force_af(GEOM, spec, f, -theta)) < 1e-12 * 8


def test_phase_only_squints():
    theta0 = math.radians(30.0)
    spec = phase_only_weights(GEOM, theta0)
    peak = peak_direction(GEOM, spec, 2 * F0, 0.0, math.pi / 2)
    assert DEG(peak) == pytest.approx(14.4775, abs=0.011)


def test_broadside_never_squints():
    spec = phase_only_weights(GEOM, 0.0)
    for f in np.linspace(F0, 2 * F0, 5):
        peak = peak_direction(GEOM, spec, float(f), -math.pi / 4, math.pi / 4)
        assert abs(DEG(peak)) <= 0.011


def test_squint_closed_form():
    theta0 = math.radians(30.0)
    assert beam_squint_direction(F0, F0, theta0) == pytest.approx(theta0)
    assert DEG(beam_squint_direction(2 * F0, F0, theta0)) == pytest.approx(
        DEG(math.asin(0.25)), abs=1e-9
    )
    with pytest.raises(NoRealBeamError):
        beam_squint_direction(0.4 * F0, F0, math.radians(80.0))


def test_squint_prediction_matches_grid_search():
    theta0 = math.radians(30.0)
    spec = phase_only_weights(GEOM, theta0)
    for f in np.linspace(F0, 2 * F0, 6):
        predicted = beam_squint_direction(float(f), F0, theta0)
        measured = peak_direction(GEOM, spec, float(f), 0.0, math.pi / 2)
        assert abs(DEG(measured) - DEG(predicted)) <= 0.011


def test_ttd_delays_geometry():
    theta0 = math.radians(30.0)
    spec = ttd_weights(GEOM, theta0)
    d = LAMBDA0 / 2
    expected_step = d * math.sin(theta0) / SPEED_OF_LIGHT_M_S
    deltas = np.diff(spec.delays_s)
    assert np.allclose(np.abs(deltas), expected_step, rtol=1e-12)
    assert min(spec.delays_s) == 0.0
    single = ttd_weights(ArrayGeometry.ula(1, d, F0), 0.3)
    assert single.delays_s == (0.0,)


def test_ttd_holds_peak_across_band():
    theta0 = math.radians(30.0)
    spec = ttd_weights(GEOM, theta0)
    for f in np.linspace(F0, 2 * F0, 9):
        assert abs(array_factor(GEOM, spec, float(f), theta0)) == pytest.approx(8.0, rel=1e-9)
        peak = peak_direction(GEOM, spec, float(f), 0.0, math.pi / 2)
        assert DEG(peak) == pytest.approx(30.0, abs=0.011)


def test_energy_conserved_under_delay_changes():
    # integral of |AF|^2 over sin(theta) is delay-invariant for a
    # half-wavelength ULA at its design frequency
    rng = np.random.default_rng(11)
    u = np.linspace(-1.0, 1.0, 1 << 14)
    thetas = np.arcsin(u)
    reference = None
    for _ in range(4):
        delays = tuple(float(d) for d in rng.uniform(0, 5e-10, size=8))
        spec = BeamformerSpec((1 + 0j,) * 8, delays)
        af = array_factor_pattern(GEOM, spec, F0, thetas)
        energy = float(np.trapezoid(np.abs(af) ** 2, u))
        if reference is None:
            reference = energy
        assert energy == pytest.approx(reference, rel=1e-6)


def test_sync_delays_uniform_layout():
    layout = NetworkLayout(
        np.array([[0.0, 0.0], [0.0, 200.0]]), np.array([[100.0, 100.0]]), (19.0, 19.0)
    )
    # equal fiber, equal air distance
    assert sync_delays(layout, 0) == pytest.approx([0.0, 0.0], abs=1e-18)


def test_sync_delays_air_difference():
    layout = NetworkLayout(
        np.array([[0.0, 0.0], [300.0, 0.0]]), np.array([[600.0, 0.0]]), (19.0, 19.0)
    )
    delays = sync_delays(layout, 0)
    assert min(delays) == 0.0
    assert abs(delays[1] - delays[0]) == pytest.approx(300.0 / SPEED_OF_LIGHT_M_S, rel=1e-12)


def test_sync_delays_equalize_arrivals():
    layout = generate_layout(
        Scenario(num_raps=6, num_ues=2, fiber_length_km=(19.0, 3.0, 8.5, 19.0, 0.1, 12.0),
                 rng_seed=5)
    )
    ng = 1.468
    delays = sync_delays(layout, 1, group_index=ng)
    arrivals = [
        ng * lk * 1e3 / SPEED_OF_LIGHT_M_S + air_delay_s(layout, m, 1) + d
        for m, (lk, d) in enumerate(zip(layout.fiber_length_km, delays))
    ]
    assert max(arrivals) - min(arrivals) <= 1e-18
    assert min(delays) == 0.0


def test_coherence_check():
    layout = generate_layout(
        Scenario(num_raps=4, num_ues=1, fiber_length_km=(19.0, 2.0, 7.0, 11.0), rng_seed=8)
    )
    ng = 1.468
    raw = [
        ng * lk * 1e3 / SPEED_OF_LIGHT_M_S + air_delay_s(layout, m, 0)
        for m, lk in enumerate(layout.fiber_length_km)
    ]
    assert not coherent_within_symbol(raw)  # tens of microseconds of skew
    delays = sync_delays(layout, 0)
    compensated = [t + d for t, d in zip(raw, delays)]
    assert coherent_within_symbol(compensated)
    with pytest.raises(ValidationError):
        coherent_within_symbol([])


def test_mixed_beamformer_coherent_gain():
    layout = generate_layout(Scenario(num_raps=4, num_ues=2, rng_seed=2))
    model = ChannelModel.from_bandwidth(10e6)
    real = draw_channels(layout, model, 2)
    fronthaul = np.ones(4, dtype=complex)
    spec = mixed_beamformer(real, layout, 0, fronthaul)
    q = fronthaul * real.gains[:, 0]
    effective = np.array(spec.weights) * q
    assert np.allclose(effective.imag, 0.0, atol=1e-18)
    assert np.all(effective.real >= 0.0)
    # coherent sum beats any single RAP under the same per-RAP power
    assert np.abs(effective.sum()) ** 2 >= np.max(np.abs(q)) ** 2


def test_mixed_beamformer_identical_gains_scale():
    m = 5
    gains = np.full((m, 1), 1e-5 + 0j)
    real_m = ChannelRealization(gains=gains, drop_seed=0)
    layout = NetworkLayout(
        np.column_stack([np.arange(m, dtype=float), np.zeros(m)]),
        np.array([[2.0, 50.0]]),
        (19.0,) * m,
    )
    spec = mixed_beamformer(real_m, layout, 0, np.ones(m, dtype=complex))
    p = 0.5
    amp = sum(math.sqrt(p) * abs(w * g) for w, g in zip(spec.weights, gains[:, 0]))
    single = m * p * abs(gains[0, 0]) ** 2  # one RAP with the whole budget
    assert amp**2 / single == pytest.approx(m, rel=1e-12)


def test_mixed_beamformer_flat_over_band_vs_phase_only():
    # narrowband-per-frequency model: channel m at f has delay T_m and static gain
    rng = np.random.default_rng(6)
    layout = generate_layout(Scenario(num_raps=4, num_ues=1, rng_seed=6))
    model = ChannelModel.from_bandwidth(10e6)
    real = draw_channels(layout, model, 6)
    fronthaul = np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
    spec = mixed_beamformer(real, layout, 0, fronthaul)
    ng = 1.468
    path_delay = np.array(
        [
            ng * lk * 1e3 / SPEED_OF_LIGHT_M_S + air_delay_s(layout, m, 0)
            for m, lk in enumerate(layout.fiber_length_km)
        ]
    )
    q = fronthaul * real.gains[:, 0]
    mags = np.abs(q)

    def received(weights, delays, f):
        phase = np.exp(-2j * math.pi * f * (path_delay + np.asarray(delays)))
        return abs(np.sum(np.asarray(weights) * mags * np.exp(1j * np.angle(q)) * phase))

    f_hi = 2e9
    # mixed: delay compensation makes |received| flat and maximal at any f
    got_mixed = received(spec.weights, spec.delays_s, f_hi)
    assert got_mixed == pytest.approx(float(mags.sum()), rel=1e-9)
    # phase-only conjugation at f0 = 0 offset, no delays: band edge degrades
    po_weights = np.conj(q * np.exp(-2j * math.pi * 0.0 * path_delay)) / mags
    got_po = received(po_weights, np.zeros(4), f_hi)
    assert got_mixed >= got_po - 1e-12


def test_mixed_beamformer_degenerate():
    layout = generate_layout(Scenario(num_raps=3, num_ues=1, rng_seed=1))
    model = ChannelModel.from_bandwidth(10e6)
    real = draw_channels(layout, model, 1)
    with pytest.raises(DegenerateChannelError):
        mixed_beamformer(real, layout, 0, np.zeros(3, dtype=complex))


def test_geometry_and_spec_validation():
    with pytest.raises(ValidationError):
        ArrayGeometry.ula(0, 0.01, F0)
    with pytest.raises(ValidationError):
        ArrayGeometry.ula(4, 0.01, F0, band_hz=(2 * F0, F0))
    with pytest.raises(ValidationError):
        BeamformerSpec((1 + 0j,), (0.0, 0.0))
    with pytest.raises(ValidationError):
        BeamformerSpec((1 + 0j,), (-1e-12,))
    spec = BeamformerSpec((1 + 0j,) * 8, (0.0,) * 8)
    with pytest.raises(ValidationError):
        array_factor(GEOM, spec, 0.5 * F0, 0.0)  # below band
