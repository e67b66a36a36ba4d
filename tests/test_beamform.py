import cmath
import math

import numpy as np
import pytest

from fwcsim.beamform import (
    ArrayGeometry,
    BeamformerSpec,
    array_factor_patterns,
    beam_squint_direction,
    peak_directions,
    phase_only_weights,
    ttd_weights,
)
from fwcsim.errors import ValidationError
from fwcsim.units import SPEED_OF_LIGHT_M_S

F0 = 10e9
LAMBDA0 = SPEED_OF_LIGHT_M_S / F0
GEOM = ArrayGeometry.ula(8, LAMBDA0 / 2)
DEG = math.degrees


def pattern_of(geom, spec, f_hz, thetas_rad):
    """The array factor of one spec over a grid of directions."""
    return array_factor_patterns(geom, (spec,), [f_hz], thetas_rad)[0][0]


def peak_of(geom, spec, f_hz, theta_lo_rad, theta_hi_rad):
    """The grid-searched peak direction of one spec."""
    return peak_directions(geom, (spec,), [f_hz], theta_lo_rad, theta_hi_rad)[0][0]


def array_factor(geom, spec, f_hz, theta_rad):
    """The array factor at a single direction."""
    return complex(pattern_of(geom, spec, f_hz, np.array([theta_rad]))[0])


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
    geom = ArrayGeometry.ula(1, LAMBDA0 / 2)
    spec = BeamformerSpec((1 + 0j,), (0.0,))
    for f in (F0, 1.3 * F0, 2 * F0):
        for theta in (-1.0, 0.0, 0.4):
            assert abs(array_factor(geom, spec, f, theta)) == pytest.approx(1.0)


def test_matched_weights_reach_n():
    theta0 = math.radians(30.0)
    spec = phase_only_weights(GEOM, theta0, F0)
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
        pattern = pattern_of(GEOM, spec, f, np.array([theta, -theta, 0.0]))
        assert abs(pattern[0] - got) < 1e-12 * 8
        assert abs(pattern[1] - brute_force_af(GEOM, spec, f, -theta)) < 1e-12 * 8


def test_phase_only_squints():
    theta0 = math.radians(30.0)
    spec = phase_only_weights(GEOM, theta0, F0)
    peak = peak_of(GEOM, spec, 2 * F0, 0.0, math.pi / 2)
    assert DEG(peak) == pytest.approx(14.4775, abs=0.011)


def test_broadside_never_squints():
    spec = phase_only_weights(GEOM, 0.0, F0)
    for f in np.linspace(F0, 2 * F0, 5):
        peak = peak_of(GEOM, spec, float(f), -math.pi / 4, math.pi / 4)
        assert abs(DEG(peak)) <= 0.011


def test_squint_closed_form():
    theta0 = math.radians(30.0)
    assert beam_squint_direction(F0, F0, theta0) == pytest.approx(theta0)
    assert DEG(beam_squint_direction(2 * F0, F0, theta0)) == pytest.approx(
        DEG(math.asin(0.25)), abs=1e-9
    )


def test_squint_prediction_matches_grid_search():
    theta0 = math.radians(30.0)
    spec = phase_only_weights(GEOM, theta0, F0)
    for f in np.linspace(F0, 2 * F0, 6):
        predicted = beam_squint_direction(float(f), F0, theta0)
        measured = peak_of(GEOM, spec, float(f), 0.0, math.pi / 2)
        assert abs(DEG(measured) - DEG(predicted)) <= 0.011


def test_ttd_delays_geometry():
    theta0 = math.radians(30.0)
    spec = ttd_weights(GEOM, theta0)
    d = LAMBDA0 / 2
    expected_step = d * math.sin(theta0) / SPEED_OF_LIGHT_M_S
    deltas = np.diff(spec.delays_s)
    assert np.allclose(np.abs(deltas), expected_step, rtol=1e-12)
    assert min(spec.delays_s) == 0.0
    single = ttd_weights(ArrayGeometry.ula(1, d), 0.3)
    assert single.delays_s == (0.0,)


def test_ttd_holds_peak_across_band():
    theta0 = math.radians(30.0)
    spec = ttd_weights(GEOM, theta0)
    for f in np.linspace(F0, 2 * F0, 9):
        assert abs(array_factor(GEOM, spec, float(f), theta0)) == pytest.approx(8.0, rel=1e-9)
        peak = peak_of(GEOM, spec, float(f), 0.0, math.pi / 2)
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
        af = pattern_of(GEOM, spec, F0, thetas)
        energy = float(np.trapezoid(np.abs(af) ** 2, u))
        if reference is None:
            reference = energy
        assert energy == pytest.approx(reference, rel=1e-6)


def test_geometry_and_spec_validation():
    with pytest.raises(ValidationError):
        ArrayGeometry.ula(0, 0.01)
    with pytest.raises(ValidationError):
        BeamformerSpec((1 + 0j,), (0.0, 0.0))
    with pytest.raises(ValidationError):
        BeamformerSpec((1 + 0j,), (-1e-12,))
    with pytest.raises(ValidationError, match="weights must be finite"):
        BeamformerSpec((1 + 0j, complex(0.0, math.inf)), (0.0, 0.0))
