import dataclasses
import math

import pytest

from fwcsim.errors import UndefinedModelError, ValidationError
from fwcsim.optics import (
    FiberParams,
    Scheme,
    SchemeParams,
    attenuation_db,
    dispersion_fading_db,
    fronthaul_snr_db,
    null_lengths,
    recovery_lengths,
)
from fwcsim.units import SPEED_OF_LIGHT_M_S

FIBER = FiberParams()  # D=17 ps/(nm km), 1553.6 nm, 0.3 dB/km


def fading_reference_db(fiber, f_hz):
    """Independent re-evaluation of the cos^2 fading law."""
    phase = (
        math.pi
        * (fiber.dispersion_ps_nm_km * 1e-6)
        * (fiber.length_km * 1e3)
        * (fiber.wavelength_nm * 1e-9) ** 2
        * f_hz**2
        / SPEED_OF_LIGHT_M_S
    )
    return -20.0 * math.log10(abs(math.cos(phase)))


def at_length(length_km):
    return dataclasses.replace(FIBER, length_km=length_km)


def test_attenuation():
    assert attenuation_db(at_length(0.0)) == 0.0
    assert attenuation_db(at_length(10.0)) == pytest.approx(3.0)
    assert attenuation_db(at_length(19.0)) == pytest.approx(5.7)


def test_fading_zero_length():
    for f in (125e6, 10e9, 30e9):
        assert dispersion_fading_db(at_length(0.0), f) == 0.0


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
    assert dispersion_fading_db(at_length(l1), 30e9) < 1e-9
    ln = null_lengths(FIBER, 30e9, 1)[0]
    assert math.isinf(dispersion_fading_db(at_length(ln), 30e9))


def test_loss_delta_20ghz():
    delta = dispersion_fading_db(at_length(4.0), 20e9) - dispersion_fading_db(
        at_length(1.0), 20e9
    )
    reference = fading_reference_db(at_length(4.0), 20e9) - fading_reference_db(
        at_length(1.0), 20e9
    )
    assert delta == pytest.approx(reference, rel=1e-12)
    assert delta == pytest.approx(2.1126, abs=1e-3)


def test_fading_matches_reference_on_grid():
    for f in (10e9, 20e9, 30e9):
        for length in (0.5, 1.0, 2.5, 3.9, 7.0, 12.0, 19.0):
            assert dispersion_fading_db(at_length(length), f) == pytest.approx(
                fading_reference_db(at_length(length), f), rel=1e-12, abs=1e-12
            )


def test_monotone_frequency_sensitivity():
    first_null_30 = null_lengths(FIBER, 30e9, 1)[0]
    for length in (0.3, 1.0, 2.0, 3.0, 4.0):
        assert length < first_null_30
        l30 = dispersion_fading_db(at_length(length), 30e9)
        l20 = dispersion_fading_db(at_length(length), 20e9)
        l10 = dispersion_fading_db(at_length(length), 10e9)
        assert l30 > l20 > l10


def test_fading_periodic_in_length():
    period = recovery_lengths(FIBER, 20e9, 1)[0]
    for length in (0.7, 3.2, 8.8):
        a = dispersion_fading_db(at_length(length), 20e9)
        b = dispersion_fading_db(at_length(length + period), 20e9)
        assert b == pytest.approx(a, abs=1e-9)


def test_zero_dispersion_planning_errors():
    flat = dataclasses.replace(FIBER, dispersion_ps_nm_km=0.0)
    with pytest.raises(UndefinedModelError):
        recovery_lengths(flat, 30e9, 1)
    with pytest.raises(UndefinedModelError):
        null_lengths(flat, 30e9, 1)
    with pytest.raises(ValidationError):
        recovery_lengths(FIBER, 30e9, 0)


def test_fronthaul_snr():
    assert fronthaul_snr_db(Scheme.BBOF, SchemeParams(), FIBER) == math.inf
    # 7 dB of pure attenuation, no dispersion
    flat = FiberParams(dispersion_ps_nm_km=0.0, attenuation_db_per_km=0.7, length_km=10.0)
    assert fronthaul_snr_db(Scheme.RFOF, SchemeParams(), flat) == pytest.approx(33.0)
    null_fiber = at_length(null_lengths(FIBER, 20e9, 1)[0])
    assert fronthaul_snr_db(Scheme.RFOF, SchemeParams(), null_fiber) == -math.inf


def test_scheme_fading_dispatch():
    fiber = at_length(4.059)  # near the 30 GHz null, harmless elsewhere
    radio = SchemeParams(rf_carrier_hz=30e9)
    assert radio.analog_carrier_hz(Scheme.BBOF) is None
    assert fronthaul_snr_db(Scheme.BBOF, radio, fiber) == math.inf
    loss = radio.fronthaul_snr0_db - attenuation_db(fiber)  # the SNR with no fading
    ifof = loss - fronthaul_snr_db(Scheme.IFOF, radio, fiber)
    rfof = loss - fronthaul_snr_db("rfof", radio, fiber)
    assert ifof == pytest.approx(dispersion_fading_db(fiber, 125e6))
    assert rfof > 100.0 or math.isinf(rfof)


def test_scheme_params_validation():
    # BBoF carries bits: its back-to-back analog SNR is never read.
    assert fronthaul_snr_db(Scheme.BBOF, SchemeParams(fronthaul_snr0_db=40.0), FIBER) == math.inf
    with pytest.raises(ValidationError):
        SchemeParams(rf_carrier_hz=0.0)
    with pytest.raises(ValidationError):
        FiberParams(wavelength_nm=-1.0)
    with pytest.raises(ValidationError):
        FiberParams(attenuation_db_per_km=-0.1)


def test_fading_requires_positive_frequency():
    with pytest.raises(ValidationError):
        dispersion_fading_db(FIBER, 0.0)
