"""Per-scheme power consumption model, budget solving, and crossover planning.

Module placement mirrors the three fronthaul architectures (``PLACEMENT``).
Digital pre-distortion exists only in BBoF, which is also why its PA
efficiency is higher.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import ValidationError
from .optics import FiberParams, Scheme, SchemeParams, fading_db_over
from .units import db_to_linear

# Default drive power of the analog optical link at zero fiber loss. Calibrated
# once so the single-link RFoF/BBoF crossover at 10 GHz sits at 13.5 km; see
# README "Calibration".
DEFAULT_P_LINK0_W = 0.1834

_SOLVER_TOL_W = 1e-9
CROSSOVER_SCAN_POINTS = 512


# Per scheme: the PowerParams wattage fields placed at the CU, those placed
# at each RAP (which also draws its PA input), and the PA-efficiency field.
# Node sums add the fields in the listed order.
PLACEMENT = {
    Scheme.BBOF: (
        ("p_bbu_w", "p_eo_w"),
        ("p_oe_w", "p_duc_w", "p_dpd_w", "p_dac_w", "p_rfu_w", "p_cm_w"),
        "pa_eff_bbof",
    ),
    Scheme.IFOF: (
        ("p_bbu_w", "p_duc_w", "p_dac_w", "p_ifm_w", "p_eo_w"),
        ("p_oe_w", "p_rfu_w", "p_cm_w"),
        "pa_eff_ifof",
    ),
    Scheme.RFOF: (
        ("p_bbu_w", "p_duc_w", "p_dac_w", "p_rfu_w", "p_eo_w"),
        ("p_oe_w",),
        "pa_eff_rfof",
    ),
}


@dataclass(frozen=True)
class PowerParams:
    """Catalogue wattages and loss fractions for commercial FWC hardware."""

    p_bbu_w: Annotated[float, ">= 0"] = 58.0
    p_ifm_w: Annotated[float, ">= 0"] = 2.0
    p_duc_w: Annotated[float, ">= 0"] = 3.0
    p_dpd_w: Annotated[float, ">= 0"] = 5.0
    p_dac_w: Annotated[float, ">= 0"] = 2.0
    p_rfu_w: Annotated[float, ">= 0"] = 2.0
    p_cm_w: Annotated[float, ">= 0"] = 1.0
    p_eo_w: Annotated[float, ">= 0"] = 1.0  # E-O interface, not catalogued; configurable
    p_oe_w: Annotated[float, ">= 0"] = 1.0  # O-E interface, not catalogued; configurable
    pa_eff_bbof: Annotated[float, "in (0, 1]"] = 0.25
    pa_eff_ifof: Annotated[float, "in (0, 1]"] = 0.15
    pa_eff_rfof: Annotated[float, "in (0, 1]"] = 0.15
    feeder_loss: Annotated[float, "in [0, 1)"] = 0.5  # fraction lost in the PA-to-antenna coax
    supply_loss_frac: Annotated[float, ">= 0"] = 0.15
    cooling_frac: Annotated[float, ">= 0"] = 0.2
    p_link0_w: Annotated[float, ">= 0"] = DEFAULT_P_LINK0_W

    def __post_init__(self):  # each field is within its bound by its annotation
        for scheme, (_, _, name) in PLACEMENT.items():
            if self.pa_to_antenna_efficiency(scheme) == 0.0:
                raise ValidationError(f"power.{name} * (1 - power.feeder_loss) underflows to 0, "
                                      f"got {getattr(self, name)} and {self.feeder_loss}")

    def pa_to_antenna_efficiency(self, scheme: Scheme) -> float:
        """Antenna-port watts per PA input watt: PA efficiency after the feeder loss."""
        return getattr(self, PLACEMENT[Scheme(scheme)][2]) * (1.0 - self.feeder_loss)

    @property
    def overhead_multiplier(self) -> float:
        """Supply and cooling losses as additive fractions of functional power."""
        return 1.0 + self.supply_loss_frac + self.cooling_frac


def pa_input_power(p_tx_antenna_w: float, scheme: Scheme, params: PowerParams) -> float:
    """DC input drawing of the PA delivering p_tx at the antenna port."""
    return p_tx_antenna_w / params.pa_to_antenna_efficiency(scheme)


def power_over(scheme: Scheme, radio: SchemeParams, num_raps: int, p_tx_w: float,
               fiber: FiberParams, params: PowerParams, lengths_km: np.ndarray) -> tuple:
    """Consumption of the CU plus num_raps RAPs at each length of the float array
    ``lengths_km``: the CU and per-RAP watts, then float64 arrays of the carrier
    fading (dB), compensation, supply/cooling overhead and total watts.

    The fiber compensation is p_link0 * 10^(A_dB/10) with A_dB attenuation plus
    carrier fading (BBoF needs none; a dispersion null needs math.inf). The
    power of ten is ``db_to_linear`` mapped over the axis: libm's pow through
    ``10.0 ** x``, and inf past the float range. The sums and products run
    elementwise in numpy, in the order of the scalar expressions.
    """
    scheme = Scheme(scheme)
    cu_fields, rap_fields, _ = PLACEMENT[scheme]
    cu = sum(getattr(params, name) for name in cu_fields)
    rap = sum(getattr(params, name) for name in rap_fields) + pa_input_power(
        p_tx_w, scheme, params
    )
    overhead_frac = params.overhead_multiplier - 1.0
    # overflow gives inf and 0 * inf nan, as on Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        if (carrier := radio.analog_carrier_hz(scheme)) is None:  # BBoF: no analog link
            fading, comp = np.zeros(len(lengths_km)), np.zeros(len(lengths_km))
        else:
            fading = fading_db_over(fiber, carrier, lengths_km)
            loss_db = fiber.attenuation_db_per_km * lengths_km + fading
            linear = np.fromiter(map(db_to_linear, loss_db.tolist()), float, len(fading))
            comp = np.where(fading == math.inf, math.inf, params.p_link0_w * linear)
        functional = float(cu) + float(num_raps) * (rap + comp)
        # Without overhead fractions an infinite total stays infinite, not 0 * inf.
        overhead = overhead_frac * functional if overhead_frac else np.zeros(len(comp))
        total = functional + overhead
    return cu, rap, fading, comp, overhead, total


def solve_tx_power(scheme: Scheme, radio: SchemeParams, num_raps: int, fiber: FiberParams,
                   budget_w: float, params: PowerParams,
                   lengths_km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-RAP transmit power that spends the budget (a float64 array), and
    whether the budget is feasible (a bool array), at each length of the float
    array ``lengths_km``. The model is affine in p_tx, so the inverse is
    closed-form. A fixed consumption that is not finite (a dispersion null) or
    above the budget is infeasible, with p_tx 0.0.
    """
    fixed = power_over(scheme, radio, num_raps, 0.0, fiber, params, lengths_km)[-1]
    slope = params.overhead_multiplier * num_raps / params.pa_to_antenna_efficiency(scheme)
    feasible = np.isfinite(fixed) & ~(budget_w < fixed - _SOLVER_TOL_W)
    return np.where(feasible, np.maximum(0.0, (budget_w - fixed) / slope), 0.0), feasible


def crossover_length(radio: SchemeParams, fiber: FiberParams, num_raps: int, p_tx_w: float,
                     length_range_km: tuple[float, float], params: PowerParams) -> float | None:
    """Smallest fiber length where RFoF's total first exceeds BBoF's, so RFoF
    draws less power on any shorter fiber.

    BBoF has no analog link, so its total is one number at every length; it is
    read once. RFoF's total is scanned at CROSSOVER_SCAN_POINTS lengths over the
    range, and the first segment that ends above BBoF is bisected until a probe
    leaves it narrower than 1e-9 km or no float lies between its ends. So this is
    the first crossing the scan brackets: a segment holding several crossings
    yields one of them. Returns lo when RFoF is above at lo, and None when it is
    above at no scanned length.
    """
    lo, hi = length_range_km
    bbof = power_over(Scheme.BBOF, radio, num_raps, p_tx_w, fiber, params, np.array([lo]))[-1]

    def exceeds(lengths_km) -> np.ndarray:
        """Mask of where RFoF's total is above BBoF's (False when both are infinite)."""
        axis = np.array(lengths_km, dtype=float)
        return power_over(Scheme.RFOF, radio, num_raps, p_tx_w, fiber, params, axis)[-1] > bbof

    # The scan is one pass over all its lengths; only the bisection is per length.
    step = (hi - lo) / (CROSSOVER_SCAN_POINTS - 1)
    scan_l = [lo] + [lo + i * step for i in range(1, CROSSOVER_SCAN_POINTS)]
    above = exceeds(scan_l)
    if not above.any():
        return None
    first = int(above.argmax())
    if first == 0:
        return lo

    lo_l, hi_l = scan_l[first - 1], scan_l[first]
    while lo_l < (mid := 0.5 * (lo_l + hi_l)) < hi_l:
        if exceeds([mid])[0]:
            hi_l = mid
        else:
            lo_l = mid
        if hi_l - lo_l < 1e-9:
            break
    return 0.5 * (lo_l + hi_l)
