"""Network topology: RAP/UE placement and UDN association."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# rng stream tags so placement and channel draws never share a stream
LAYOUT_RNG_STREAM = 0
ASSOCIATION_MODES = ("ue_nearest", "rap_nearest")


@dataclass(frozen=True)
class Area:
    """Rectangular deployment area in meters."""

    area_width_m: float = 1000.0
    area_height_m: float = 1000.0

    def __post_init__(self):
        w, h = self.area_width_m, self.area_height_m
        if w <= 0 or h <= 0:
            raise ValidationError("area dimensions must be positive")
        # Infinite sides are left to the config's finiteness check, which names the key.
        if w * w + h * h == math.inf and max(w, h) < math.inf:
            raise ValidationError(f"area {w!r} m x {h!r} m is too large: its diagonal "
                                  "overflows the float range")


def distance_matrix(rap_xy: np.ndarray, ue_xy: np.ndarray) -> np.ndarray:
    """RAP-to-UE distances, shape (M, J), from (M, 2) and (J, 2) positions in meters.

    sqrt(dx*dx + dy*dy) has the bits of summing squared (x, y) differences
    over a trailing axis of two.
    """
    dist = rap_xy[:, 0, None] - ue_xy[None, :, 0]
    dy = rap_xy[:, 1, None] - ue_xy[None, :, 1]
    dist *= dist
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    return dist


def generate_layout(
    area: Area, num_raps: int, num_ues: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rap_xy, ue_xy): M RAPs and J UEs drawn i.i.d. uniform over the area,
    deterministic per seed."""
    if num_raps < 1 or num_ues < 1:
        raise ValidationError(f"a layout needs at least one RAP and one UE, got "
                              f"{num_raps} RAPs and {num_ues} UEs")
    rng = np.random.default_rng([seed, LAYOUT_RNG_STREAM])
    xs = rng.uniform(0.0, area.area_width_m, size=num_raps + num_ues)
    ys = rng.uniform(0.0, area.area_height_m, size=num_raps + num_ues)
    xy = np.column_stack([xs, ys])
    return xy[:num_raps], xy[num_raps:]


def udn_association(dist: np.ndarray, mode: str = "ue_nearest") -> tuple[np.ndarray, np.ndarray]:
    """(serve, active) masks from an (M, J) distance matrix: ``serve[m, j]``
    when RAP m serves UE j, ``active[m]`` when RAP m transmits.

    ``ue_nearest`` (default): each UE is served by its closest RAP; unused RAPs
    idle. ``rap_nearest`` (literal reading): every RAP transmits toward its
    closest UE, so a UE may be served by several RAPs or none. Ties break to
    the lowest index (argmin keeps the first occurrence).
    """
    if mode not in ASSOCIATION_MODES:
        raise ValidationError(f"association_mode must be one of {list(ASSOCIATION_MODES)}, "
                              f"got {mode!r}")
    m, j = dist.shape
    serve = np.zeros((m, j), dtype=bool)
    if mode == "ue_nearest":
        serve[np.argmin(dist, axis=0), np.arange(j)] = True
        return serve, serve.any(axis=1)
    serve[np.arange(m), np.argmin(dist, axis=1)] = True
    return serve, np.ones(m, dtype=bool)
