"""Per-scheme power consumption model, budget solving, and crossover planning.

Module placement mirrors the three fronthaul architectures (``PLACEMENT``).
Digital pre-distortion exists only in BBoF, which is also why its PA
efficiency is higher.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleBudgetError, ValidationError
from .optics import FiberParams, Scheme, SchemeConfig, fading_db_over, fiber_axis
from .units import db_to_linear

# Default drive power of the analog optical link at zero fiber loss. Calibrated
# once so the single-link RFoF/BBoF crossover at 10 GHz sits at 13.5 km; see
# README "Calibration".
DEFAULT_P_LINK0_W = 0.1834

_SOLVER_TOL_W = 1e-9


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

    p_bbu_w: float = 58.0
    p_ifm_w: float = 2.0
    p_duc_w: float = 3.0
    p_dpd_w: float = 5.0
    p_dac_w: float = 2.0
    p_rfu_w: float = 2.0
    p_cm_w: float = 1.0
    p_eo_w: float = 1.0  # E-O interface, not catalogued; configurable
    p_oe_w: float = 1.0  # O-E interface, not catalogued; configurable
    pa_eff_bbof: float = 0.25
    pa_eff_ifof: float = 0.15
    pa_eff_rfof: float = 0.15
    feeder_loss: float = 0.5  # fraction lost in the PA-to-antenna coax
    supply_loss_frac: float = 0.15
    cooling_frac: float = 0.2
    p_link0_w: float = DEFAULT_P_LINK0_W

    def __post_init__(self):
        for name in (
            "p_bbu_w", "p_ifm_w", "p_duc_w", "p_dpd_w", "p_dac_w", "p_rfu_w",
            "p_cm_w", "p_eo_w", "p_oe_w", "supply_loss_frac", "cooling_frac",
            "p_link0_w",
        ):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("pa_eff_bbof", "pa_eff_ifof", "pa_eff_rfof"):
            eff = getattr(self, name)
            if not 0.0 < eff <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1], got {eff}")
        if not 0.0 <= self.feeder_loss < 1.0:
            raise ValidationError(f"feeder_loss must be in [0, 1), got {self.feeder_loss}")

    def pa_efficiency(self, scheme: Scheme) -> float:
        return getattr(self, PLACEMENT[Scheme(scheme)][2])

    @property
    def overhead_multiplier(self) -> float:
        """Supply and cooling losses as additive fractions of functional power."""
        return 1.0 + self.supply_loss_frac + self.cooling_frac


@dataclass(frozen=True)
class PowerBreakdown:
    """Itemized system consumption; components are functional (pre-overhead)."""

    cu_watts: float
    per_rap_watts: float
    fiber_comp_watts: float
    overhead_watts: float
    total_watts: float


def pa_input_power(p_tx_antenna_w: float, scheme: Scheme, params: PowerParams) -> float:
    """DC input drawing of the PA delivering p_tx at the antenna port."""
    if p_tx_antenna_w < 0:
        raise ValidationError(f"transmit power must be >= 0, got {p_tx_antenna_w}")
    return p_tx_antenna_w / (params.pa_efficiency(scheme) * (1.0 - params.feeder_loss))


def power_over(scheme: SchemeConfig, num_raps: int, p_tx_w: float, fiber: FiberParams,
               params: PowerParams, lengths_km: np.ndarray) -> tuple:
    """``system_power`` at each length of the float array ``lengths_km``: the CU
    and per-RAP watts, then lists of the carrier fading (dB), compensation,
    overhead and total watts.

    The fiber compensation is p_link0 * 10^(A_dB/10) with A_dB attenuation plus
    carrier fading (BBoF needs none; a dispersion null needs math.inf). The
    sums run elementwise in numpy, in the order of the scalar expressions.
    """
    if num_raps < 1:
        raise ValidationError(f"num_raps must be >= 1, got {num_raps}")
    cu_fields, rap_fields, _ = PLACEMENT[scheme.scheme]
    cu = sum(getattr(params, name) for name in cu_fields)
    rap = sum(getattr(params, name) for name in rap_fields) + pa_input_power(
        p_tx_w, scheme.scheme, params
    )
    overhead_frac = params.overhead_multiplier - 1.0
    with np.errstate(over="ignore"):  # overflow gives inf, as on Python floats
        if scheme.scheme is Scheme.BBOF:
            fading = comp = [0.0] * len(lengths_km)
        else:
            fading = fading_db_over(fiber, scheme.analog_carrier_hz(), lengths_km)
            loss_db = (fiber.attenuation_db_per_km * lengths_km + fading).tolist()
            comp = [math.inf if fade == math.inf else params.p_link0_w * db_to_linear(loss)
                    for fade, loss in zip(fading, loss_db)]
        functional = float(cu) + float(num_raps) * (rap + np.array(comp))
        # Without overhead fractions an infinite total stays infinite, not 0 * inf.
        overhead = overhead_frac * functional if overhead_frac else np.zeros(len(comp))
        total = functional + overhead
    return cu, rap, fading, comp, overhead.tolist(), total.tolist()


def system_power(
    scheme: SchemeConfig,
    num_raps: int,
    p_tx_w: float,
    fiber: FiberParams,
    params: PowerParams,
) -> PowerBreakdown:
    """Total consumption of CU plus num_raps RAPs incl. supply/cooling overhead."""
    axis = fiber_axis([fiber.length_km])
    cu, rap, _, comp, overhead, total = power_over(scheme, num_raps, p_tx_w, fiber, params, axis)
    return PowerBreakdown(cu, rap, comp[0], overhead[0], total[0])


def solve_tx_power(
    scheme: SchemeConfig,
    num_raps: int,
    fiber: FiberParams,
    budget_w: float,
    params: PowerParams,
) -> float:
    """Per-RAP transmit power whose system total equals the budget.

    The model is affine in p_tx, so the inverse is closed-form. Raises
    InfeasibleBudgetError when the budget cannot cover the fixed consumption.
    """
    fixed = system_power(scheme, num_raps, 0.0, fiber, params).total_watts
    if not math.isfinite(fixed):
        raise InfeasibleBudgetError(
            f"{scheme.scheme.value} fixed power is infinite (dispersion null)"
        )
    if budget_w < fixed - _SOLVER_TOL_W:
        raise InfeasibleBudgetError(
            f"budget {budget_w} W below fixed consumption {fixed:.6f} W "
            f"for {scheme.scheme.value} with {num_raps} RAPs"
        )
    slope = (
        params.overhead_multiplier
        * num_raps
        / (params.pa_efficiency(scheme.scheme) * (1.0 - params.feeder_loss))
    )
    return max(0.0, (budget_w - fixed) / slope)


def crossover_length(
    scheme_a: SchemeConfig,
    scheme_b: SchemeConfig,
    fiber: FiberParams,
    num_raps: int,
    p_tx_w: float,
    length_range_km: tuple[float, float],
    params: PowerParams,
    rf_carrier_hz: float | None = None,
    num_scan: int = 512,
) -> float | None:
    """Smallest fiber length where scheme_a's total first exceeds scheme_b's.

    Scans the range, then bisects the bracketing segment. Returns None when no
    crossing exists in range. ``rf_carrier_hz`` re-carriers both schemes for
    frequency studies.
    """
    lo, hi = length_range_km
    if not lo < hi:
        raise ValidationError(f"bad length range {length_range_km}")
    if num_scan < 2:
        raise ValidationError("num_scan must be >= 2")
    if rf_carrier_hz is not None:
        scheme_a = replace(scheme_a, rf_carrier_hz=rf_carrier_hz)
        scheme_b = replace(scheme_b, rf_carrier_hz=rf_carrier_hz)

    def exceeds(lengths_km) -> list[bool]:
        """Whether scheme_a's total is above scheme_b's (False when both are infinite)."""
        axis = fiber_axis(lengths_km)
        totals = [power_over(sc, num_raps, p_tx_w, fiber, params, axis)[-1]
                  for sc in (scheme_a, scheme_b)]
        return [a > b for a, b in zip(*totals)]

    # The scan is one pass over all its lengths; only the bisection is per length.
    step = (hi - lo) / (num_scan - 1)
    scan_l = [lo] + [lo + i * step for i in range(1, num_scan)]
    above = exceeds(scan_l)
    if True not in above:
        return None
    first = above.index(True)
    if first == 0:
        return lo

    lo_l, hi_l = scan_l[first - 1], scan_l[first]
    for _ in range(80):
        mid = 0.5 * (lo_l + hi_l)
        if exceeds([mid])[0]:
            hi_l = mid
        else:
            lo_l = mid
        if hi_l - lo_l < 1e-9:
            break
    return 0.5 * (lo_l + hi_l)
