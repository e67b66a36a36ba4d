"""Network topology: RAP/UE placement and UDN association."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from .errors import ValidationError

# rng stream tags so placement and channel draws never share a stream
LAYOUT_RNG_STREAM = 0
AssociationMode = Literal["ue_nearest", "rap_nearest"]


@dataclass(frozen=True)
class Area:
    """Rectangular deployment area in meters."""

    area_width_m: Annotated[float, "> 0"] = 1000.0
    area_height_m: Annotated[float, "> 0"] = 1000.0

    def __post_init__(self):  # each side is finite and > 0 by its annotation
        w, h = self.area_width_m, self.area_height_m
        if w * w + h * h == math.inf:
            raise ValidationError(f"scenario area {w!r} m x {h!r} m is too large: its diagonal "
                                  "overflows the float range")


def distance_matrix(
    rap_xy: np.ndarray, ue_xy: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """RAP-to-UE distances, shape (M, J), from (M, 2) and (J, 2) positions in meters.

    sqrt(dx*dx + dy*dy) has the bits of summing squared (x, y) differences
    over a trailing axis of two. ``out``, a (2, M, J) float block, takes the
    distances in ``out[0]`` and dy in ``out[1]``; without it both are allocated.
    """
    dist, dy = (None, None) if out is None else out
    dist = np.subtract(rap_xy[:, 0, None], ue_xy[None, :, 0], out=dist)
    dy = np.subtract(rap_xy[:, 1, None], ue_xy[None, :, 1], out=dy)
    dist *= dist
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    return dist


def layout_stream(seed: int, num_points: int) -> np.ndarray:
    """The 2 * ``num_points`` uniforms on [0, 1) that seed's layouts read.

    A layout of n <= ``num_points`` points takes its x from ``[:n]`` and its y
    from ``[n:2n]``, so the layouts of one seed read nested prefixes of one
    stream.
    """
    return np.random.default_rng([seed, LAYOUT_RNG_STREAM]).random(2 * num_points)


def generate_layout(
    area: Area, num_raps: int, num_ues: int, seed: int, stream: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(rap_xy, ue_xy): M RAPs and J UEs drawn i.i.d. uniform over the area,
    deterministic per seed.

    ``stream``, the seed's ``layout_stream`` for at least M + J points, is
    read in place of drawing it again. w * u has the bits of uniform(0, w).
    """
    n = num_raps + num_ues
    u = layout_stream(seed, n) if stream is None else stream
    xy = np.empty((n, 2))
    np.multiply(area.area_width_m, u[:n], out=xy[:, 0])
    np.multiply(area.area_height_m, u[n:2 * n], out=xy[:, 1])
    return xy[:num_raps], xy[num_raps:]


def udn_association(dist: np.ndarray, mode: str) -> np.ndarray:
    """The (M, J) serve mask of an (M, J) distance matrix: ``serve[m, j]`` when
    RAP m serves UE j; a RAP transmits when its row holds a True.

    ``ue_nearest``: each UE is served by its closest RAP; unused RAPs idle.
    ``rap_nearest`` (literal reading): every RAP transmits toward its closest
    UE, so a UE may be served by several RAPs or none. Ties break to the
    lowest index (argmin and argmax keep the first occurrence).
    """
    m, j = dist.shape
    serve = np.zeros((m, j), dtype=bool)
    if mode == "ue_nearest":
        # argmin over axis 0 would copy the transposed floats; this compares in place
        serve[(dist == dist.min(axis=0)).argmax(axis=0), np.arange(j)] = True
    else:
        serve[np.arange(m), np.argmin(dist, axis=1)] = True
    return serve
