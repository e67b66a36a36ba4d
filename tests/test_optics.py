import dataclasses
import math

import numpy as np
import pytest

from fwcsim.config import SweepParams
from fwcsim.errors import ValidationError
from fwcsim.optics import (
    FiberParams,
    Scheme,
    SchemeParams,
    fading_db_over,
    fronthaul_snr_db,
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


def fading_period_km(fiber, f_hz):
    """Length period of the cos^2 fading law, c/(|D|*lambda^2*f^2) in km: no
    fading at each whole period; None where it passes the float range."""
    d_si = abs(fiber.dispersion_ps_nm_km) * 1e-6
    lam_si = fiber.wavelength_nm * 1e-9
    try:
        period = SPEED_OF_LIGHT_M_S / (d_si * lam_si**2 * f_hz**2) / 1e3
    except (OverflowError, ZeroDivisionError):  # zero dispersion, or a factor past the range
        return None
    return period if 0.0 < period < math.inf else None


def null_lengths(fiber, f_hz, k_max):
    """The first ``k_max`` lengths of total fading: none without a carrier
    (``f_hz`` None, as for BBoF) or a period."""
    period = None if f_hz is None else fading_period_km(fiber, f_hz)
    return [] if period is None else [(2 * k - 1) * period / 2.0 for k in range(1, k_max + 1)]


def fading_at(fiber, f_hz, length_km):
    """``fading_db_over`` at one length."""
    return fading_db_over(fiber, f_hz, np.array([length_km], dtype=float))[0]


def test_attenuation():
    flat = dataclasses.replace(FIBER, dispersion_ps_nm_km=0.0)  # the SNR loss is alpha * L alone
    snr = fronthaul_snr_db(Scheme.RFOF, SchemeParams(), flat, np.array([0.0, 10.0, 19.0]))
    assert snr[0] == 40.0
    assert snr[1:] == pytest.approx([37.0, 34.3])


def test_fading_zero_length():
    for f in (125e6, 10e9, 30e9):
        assert fading_db_over(FIBER, f, np.array([0.0, 0, -0.0], dtype=float)).tolist() == [
            0.0, 0.0, 0.0]


def test_recovery_lengths_closed_form():
    periods = [k * fading_period_km(FIBER, 30e9) for k in (1, 2, 3)]
    assert periods == pytest.approx([8.118, 16.236, 24.354], abs=5e-3)  # case-study planning
    assert fading_db_over(FIBER, 30e9, np.array(periods, dtype=float)).tolist() == [0.0, 0.0, 0.0]
    assert fading_period_km(FIBER, 20e9) == pytest.approx(18.2656, abs=1e-3)


def test_null_lengths_closed_form():
    assert null_lengths(FIBER, 30e9, 1)[0] == pytest.approx(4.059, abs=1e-3)
    assert null_lengths(FIBER, 10e9, 1)[0] == pytest.approx(36.531, abs=1e-2)
    for f in (10e9, 20e9, 30e9):
        assert fading_db_over(FIBER, f, np.array(null_lengths(FIBER, f, 5))).tolist() == [
            math.inf] * 5


def test_nulls_interleave_recoveries():
    """Eighth-period steps: the fading rises from each recovery to the next null,
    then falls to the recovery after it."""
    fading = fading_db_over(FIBER, 30e9, np.array(
        [i * fading_period_km(FIBER, 30e9) / 8 for i in range(33)], dtype=float))
    for i in range(32):
        assert (fading[i] < fading[i + 1]) == (i % 8 < 4)


def test_fading_at_recovery_and_null():
    l1 = fading_period_km(FIBER, 30e9)
    ln = null_lengths(FIBER, 30e9, 1)[0]
    at_recovery, at_null = fading_db_over(FIBER, 30e9, np.array([l1, ln], dtype=float))
    assert at_recovery < 1e-9
    assert math.isinf(at_null)


def test_loss_delta_20ghz():
    at_1, at_4 = fading_db_over(FIBER, 20e9, np.array([1.0, 4.0], dtype=float))
    delta = at_4 - at_1
    reference = fading_reference_db(FIBER, 20e9, 4.0) - fading_reference_db(FIBER, 20e9, 1.0)
    assert delta == pytest.approx(reference, rel=1e-12)
    assert delta == pytest.approx(2.1126, abs=1e-3)


def test_fading_matches_reference_on_grid():
    grid = (0.5, 1.0, 2.5, 3.9, 7.0, 12.0, 19.0)
    for f in (10e9, 20e9, 30e9):
        for length, fading in zip(grid, fading_db_over(FIBER, f, np.array(grid, dtype=float))):
            assert fading == pytest.approx(
                fading_reference_db(FIBER, f, length), rel=1e-12, abs=1e-12
            )


def test_monotone_frequency_sensitivity():
    first_null_30 = null_lengths(FIBER, 30e9, 1)[0]
    grid = (0.3, 1.0, 2.0, 3.0, 4.0)
    assert max(grid) < first_null_30
    l30, l20, l10 = (fading_db_over(FIBER, f, np.array(grid)) for f in (30e9, 20e9, 10e9))
    assert all(a > b > c for a, b, c in zip(l30, l20, l10))


def test_fading_periodic_in_length():
    period = fading_period_km(FIBER, 20e9)
    grid = (0.7, 3.2, 8.8)
    a = fading_db_over(FIBER, 20e9, np.array(grid, dtype=float))
    b = fading_db_over(FIBER, 20e9, np.array([length + period for length in grid], dtype=float))
    assert b == pytest.approx(a, abs=1e-9)


def test_fronthaul_snr():
    axis = np.array([19.0, null_lengths(FIBER, 20e9, 1)[0], 0.0], dtype=float)
    assert fronthaul_snr_db(Scheme.BBOF, SchemeParams(), FIBER, axis).tolist() == [math.inf] * 3
    # 7 dB of pure attenuation, no dispersion
    flat = FiberParams(dispersion_ps_nm_km=0.0, attenuation_db_per_km=0.7)
    assert fronthaul_snr_db(Scheme.RFOF, SchemeParams(), flat,
                            np.array([10.0], dtype=float)).tolist() == [pytest.approx(33.0)]
    snr = fronthaul_snr_db(Scheme.RFOF, SchemeParams(), FIBER, axis)
    assert snr[1] == -math.inf and snr[2] == 40.0
    assert snr[0] == 40.0 - 0.3 * 19.0 - fading_at(FIBER, 20e9, 19.0)
    assert fronthaul_snr_db(Scheme.RFOF, SchemeParams(), FIBER,
                            np.array([], dtype=float)).tolist() == []


def test_scheme_fading_dispatch():
    axis = np.array([4.059], dtype=float)  # near the 30 GHz null, harmless elsewhere
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
                            np.array([19.0], dtype=float)) == [math.inf]
    with pytest.raises(ValidationError):
        SchemeParams(rf_carrier_hz=0.0)
    with pytest.raises(ValidationError):
        FiberParams(wavelength_nm=-1.0)
    with pytest.raises(ValidationError):
        FiberParams(attenuation_db_per_km=-0.1)


def test_fading_requires_positive_frequency():
    """fading_db_over trusts its frequency: the config holds every carrier and
    sweep frequency to > 0."""
    with pytest.raises(ValidationError, match="scheme_params.if_carrier_hz must be > 0"):
        SchemeParams(if_carrier_hz=-1.0)
    with pytest.raises(ValidationError, match=r"sweep.frequencies_hz\[1\] must be > 0"):
        SweepParams(frequencies_hz=(10e9, 0.0))
