import dataclasses
import math
import re

import pytest

from fwcsim.errors import UndefinedModelError, ValidationError
from fwcsim.optics import (
    FiberParams,
    Scheme,
    SchemeParams,
    fading_db_over,
    fiber_axis,
    fronthaul_snr_db,
    null_lengths,
    recovery_lengths,
)
from fwcsim.units import SPEED_OF_LIGHT_M_S

FIBER = FiberParams()  # D=17 ps/(nm km), 1553.6 nm, 0.3 dB/km


def fading_reference_db(fiber, f_hz, length_km):
    """Independent re-evaluation of the cos^2 fading law."""
    phase = (
        math.pi
        * (fiber.dispersion_ps_nm_km * 1e-6)
        * (length_km * 1e3)
        * (fiber.wavelength_nm * 1e-9) ** 2
        * f_hz**2
        / SPEED_OF_LIGHT_M_S
    )
    return -20.0 * math.log10(abs(math.cos(phase)))


def fading_at(fiber, f_hz, length_km):
    """``fading_db_over`` at one length."""
    return fading_db_over(fiber, f_hz, fiber_axis([length_km]))[0]


def test_attenuation():
    flat = dataclasses.replace(FIBER, dispersion_ps_nm_km=0.0)  # the SNR loss is alpha * L alone
    snr = fronthaul_snr_db(Scheme.RFOF, SchemeParams(), flat, fiber_axis([0.0, 10.0, 19.0]))
    assert snr[0] == 40.0
    assert snr[1:] == pytest.approx([37.0, 34.3])


def test_fading_zero_length():
    for f in (125e6, 10e9, 30e9):
        assert fading_db_over(FIBER, f, fiber_axis([0.0, 0, -0.0])) == [0.0, 0.0, 0.0]


def test_recovery_lengths_closed_form():
    base = SPEED_OF_LIGHT_M_S / (17e-6 * (1553.6e-9) ** 2 * (30e9) ** 2) / 1e3
    got = recovery_lengths(FIBER, 30e9, 3)
    assert got == pytest.approx([base, 2 * base, 3 * base], rel=1e-12)
    # the case-study planning values
    assert got == pytest.approx([8.118, 16.236, 24.354], abs=5e-3)
    for target, value in zip((8.0, 16.0, 24.0), got):
        assert abs(value - target) / target < 0.02
    assert recovery_lengths(FIBER, 20e9, 1)[0] == pytest.approx(18.2656, abs=1e-3)


def test_null_lengths_closed_form():
    assert null_lengths(FIBER, 30e9, 1)[0] == pytest.approx(4.059, abs=1e-3)
    assert null_lengths(FIBER, 10e9, 1)[0] == pytest.approx(36.531, abs=1e-2)


def test_nulls_interleave_recoveries():
    nulls = null_lengths(FIBER, 30e9, 5)
    recoveries = recovery_lengths(FIBER, 30e9, 5)
    for k in range(4):
        assert nulls[k] < recoveries[k] < nulls[k + 1]


def test_fading_at_recovery_and_null():
    l1 = recovery_lengths(FIBER, 30e9, 1)[0]
    ln = null_lengths(FIBER, 30e9, 1)[0]
    at_recovery, at_null = fading_db_over(FIBER, 30e9, fiber_axis([l1, ln]))
    assert at_recovery < 1e-9
    assert math.isinf(at_null)


def test_loss_delta_20ghz():
    at_1, at_4 = fading_db_over(FIBER, 20e9, fiber_axis([1.0, 4.0]))
    delta = at_4 - at_1
    reference = fading_reference_db(FIBER, 20e9, 4.0) - fading_reference_db(FIBER, 20e9, 1.0)
    assert delta == pytest.approx(reference, rel=1e-12)
    assert delta == pytest.approx(2.1126, abs=1e-3)


def test_fading_matches_reference_on_grid():
    grid = (0.5, 1.0, 2.5, 3.9, 7.0, 12.0, 19.0)
    for f in (10e9, 20e9, 30e9):
        for length, fading in zip(grid, fading_db_over(FIBER, f, fiber_axis(grid))):
            assert fading == pytest.approx(
                fading_reference_db(FIBER, f, length), rel=1e-12, abs=1e-12
            )


def test_monotone_frequency_sensitivity():
    first_null_30 = null_lengths(FIBER, 30e9, 1)[0]
    grid = (0.3, 1.0, 2.0, 3.0, 4.0)
    assert max(grid) < first_null_30
    l30, l20, l10 = (fading_db_over(FIBER, f, fiber_axis(grid)) for f in (30e9, 20e9, 10e9))
    assert all(a > b > c for a, b, c in zip(l30, l20, l10))


def test_fading_periodic_in_length():
    period = recovery_lengths(FIBER, 20e9, 1)[0]
    grid = (0.7, 3.2, 8.8)
    a = fading_db_over(FIBER, 20e9, fiber_axis(grid))
    b = fading_db_over(FIBER, 20e9, fiber_axis([length + period for length in grid]))
    assert b == pytest.approx(a, abs=1e-9)


def test_zero_dispersion_planning_errors():
    for zero in (0.0, -0.0):
        flat = dataclasses.replace(FIBER, dispersion_ps_nm_km=zero)
        with pytest.raises(UndefinedModelError):
            recovery_lengths(flat, 30e9, 1)
        with pytest.raises(UndefinedModelError):
            null_lengths(flat, 30e9, 1)
    with pytest.raises(ValidationError):
        recovery_lengths(FIBER, 30e9, 0)


@pytest.mark.parametrize("fiber, f_hz", [
    (FiberParams(dispersion_ps_nm_km=2.225073858507203e-309), 1.25e6),  # D*lambda^2*f^2 -> 0
    (FiberParams(dispersion_ps_nm_km=1e-300, wavelength_nm=1e-300), 1e-10),  # lambda^2 -> 0
    (FiberParams(wavelength_nm=1e300), 20e9),  # lambda^2 overflows
    (FiberParams(), 1e200),  # f^2 overflows
])
def test_fading_period_past_the_float_range_is_a_validation_error(fiber, f_hz):
    for planner in (null_lengths, recovery_lengths):
        with pytest.raises(ValidationError, match=re.escape(
                f"fading period past the float range at {fiber.dispersion_ps_nm_km} "
                f"ps/(nm km), {fiber.wavelength_nm} nm, {f_hz:g} Hz")):
            planner(fiber, f_hz, 1)


def test_fronthaul_snr():
    axis = fiber_axis([19.0, null_lengths(FIBER, 20e9, 1)[0], 0.0])
    assert fronthaul_snr_db(Scheme.BBOF, SchemeParams(), FIBER, axis) == [math.inf] * 3
    # 7 dB of pure attenuation, no dispersion
    flat = FiberParams(dispersion_ps_nm_km=0.0, attenuation_db_per_km=0.7)
    assert fronthaul_snr_db(Scheme.RFOF, SchemeParams(), flat, fiber_axis([10.0])) == [
        pytest.approx(33.0)]
    snr = fronthaul_snr_db(Scheme.RFOF, SchemeParams(), FIBER, axis)
    assert snr[1] == -math.inf and snr[2] == 40.0
    assert snr[0] == 40.0 - 0.3 * 19.0 - fading_at(FIBER, 20e9, 19.0)
    assert fronthaul_snr_db(Scheme.RFOF, SchemeParams(), FIBER, fiber_axis([])) == []


def test_scheme_fading_dispatch():
    axis = fiber_axis([4.059])  # near the 30 GHz null, harmless elsewhere
    radio = SchemeParams(rf_carrier_hz=30e9)
    assert radio.analog_carrier_hz(Scheme.BBOF) is None
    assert fronthaul_snr_db(Scheme.BBOF, radio, FIBER, axis) == [math.inf]
    loss = radio.fronthaul_snr0_db - 0.3 * 4.059  # the SNR with no fading
    (ifof,) = [loss - snr for snr in fronthaul_snr_db(Scheme.IFOF, radio, FIBER, axis)]
    (rfof,) = [loss - snr for snr in fronthaul_snr_db("rfof", radio, FIBER, axis)]
    assert ifof == pytest.approx(fading_at(FIBER, 125e6, 4.059))
    assert rfof > 100.0 or math.isinf(rfof)


def test_scheme_params_validation():
    # BBoF carries bits: its back-to-back analog SNR is never read.
    assert fronthaul_snr_db(Scheme.BBOF, SchemeParams(fronthaul_snr0_db=40.0), FIBER,
                            fiber_axis([19.0])) == [math.inf]
    with pytest.raises(ValidationError):
        SchemeParams(rf_carrier_hz=0.0)
    with pytest.raises(ValidationError):
        FiberParams(wavelength_nm=-1.0)
    with pytest.raises(ValidationError):
        FiberParams(attenuation_db_per_km=-0.1)


def test_fading_requires_positive_frequency():
    with pytest.raises(ValidationError):
        fading_at(FIBER, 0.0, 19.0)
    with pytest.raises(ValidationError):
        null_lengths(FIBER, 0.0, 1)
