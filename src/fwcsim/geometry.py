"""Network topology: RAP/UE placement and UDN association."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# rng stream tags so placement and channel draws never share a stream
LAYOUT_RNG_STREAM = 0


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


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """One realized topology: RAP and UE positions.

    Positions are read-only float arrays of planar coordinates in meters,
    ``rap_xy`` of shape (M, 2) and ``ue_xy`` of shape (J, 2).
    """

    rap_xy: np.ndarray
    ue_xy: np.ndarray

    def __post_init__(self):
        for name in ("rap_xy", "ue_xy"):
            xy = np.array(getattr(self, name), dtype=float)
            if xy.ndim != 2 or xy.shape[1] != 2 or len(xy) < 1:
                raise ValidationError(
                    f"{name} must hold at least one (x, y) row, got shape {xy.shape}"
                )
            if not np.isfinite(xy).all():
                raise ValidationError(f"{name} coordinates must be finite")
            xy.flags.writeable = False
            object.__setattr__(self, name, xy)

    @property
    def num_raps(self) -> int:
        return len(self.rap_xy)

    @property
    def num_ues(self) -> int:
        return len(self.ue_xy)

    def distance_matrix(self) -> np.ndarray:
        """RAP-to-UE distances, shape (num_raps, num_ues).

        Computed on first use and shared by every later caller (channel
        draw, association, sync delays), so the result is read-only.
        sqrt(dx*dx + dy*dy) has the bits of summing squared (x, y)
        differences over a trailing axis of two.
        """
        dist = self.__dict__.get("_distances")
        if dist is None:
            dist = self.rap_xy[:, 0, None] - self.ue_xy[None, :, 0]
            dy = self.rap_xy[:, 1, None] - self.ue_xy[None, :, 1]
            dist *= dist
            dy *= dy
            dist += dy
            np.sqrt(dist, out=dist)
            dist.flags.writeable = False
            object.__setattr__(self, "_distances", dist)
        return dist


def generate_layout(area: Area, num_raps: int, num_ues: int, seed: int) -> NetworkLayout:
    """Draw RAPs and UEs i.i.d. uniform over the area; deterministic per seed."""
    rng = np.random.default_rng([seed, LAYOUT_RNG_STREAM])
    xs = rng.uniform(0.0, area.area_width_m, size=num_raps + num_ues)
    ys = rng.uniform(0.0, area.area_height_m, size=num_raps + num_ues)
    xy = np.column_stack([xs, ys])
    return NetworkLayout(xy[:num_raps], xy[num_raps:])


@dataclass(frozen=True, eq=False)
class Association:
    """Which RAPs serve which UEs; RAPs outside ``active`` stay silent."""

    mode: str
    serve: np.ndarray  # (M, J) bool: RAP m serves UE j
    active: np.ndarray  # (M,) bool: RAP m transmits


def udn_association(layout: NetworkLayout, mode: str = "ue_nearest") -> Association:
    """Associate UEs and RAPs by Euclidean distance.

    ``ue_nearest`` (default): each UE is served by its closest RAP; unused RAPs
    idle. ``rap_nearest`` (literal reading): every RAP transmits toward its
    closest UE, so a UE may be served by several RAPs or none. Ties break to
    the lowest index (argmin keeps the first occurrence).
    """
    dist = layout.distance_matrix()
    m, j = dist.shape
    serve = np.zeros((m, j), dtype=bool)
    if mode == "ue_nearest":
        serve[np.argmin(dist, axis=0), np.arange(j)] = True
        active = serve.any(axis=1)
    elif mode == "rap_nearest":
        serve[np.arange(m), np.argmin(dist, axis=1)] = True
        active = np.ones(m, dtype=bool)
    else:
        raise ValidationError(f"unknown association mode {mode!r}")
    return Association(mode=mode, serve=serve, active=active)

