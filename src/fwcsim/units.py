"""Physical constants and dB helpers. All model internals are SI."""
from __future__ import annotations

import math

SPEED_OF_LIGHT_M_S = 299_792_458.0
BOLTZMANN_J_K = 1.380649e-23
ROOM_TEMPERATURE_K = 290.0


def db_to_linear(value_db: float) -> float:
    """Power ratio from dB; -inf maps to 0, +inf and ratios past the float range to +inf."""
    try:
        return 10.0 ** (value_db / 10.0)  # -inf gives 0.0, +inf gives inf
    except OverflowError:
        return math.inf
