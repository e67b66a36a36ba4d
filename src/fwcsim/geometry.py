"""Network topology: RAP/UE placement, fiber lengths to the CU, UDN association."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

LAYOUT_CSV_HEADER = ("kind", "id", "x_m", "y_m", "fiber_km")

# rng stream tags so placement and channel draws never share a stream
LAYOUT_RNG_STREAM = 0


@dataclass(frozen=True)
class Area:
    """Rectangular deployment area in meters."""

    area_width_m: float = 1000.0
    area_height_m: float = 1000.0

    def __post_init__(self):
        if self.area_width_m <= 0 or self.area_height_m <= 0:
            raise ValidationError("area dimensions must be positive")


@dataclass(frozen=True)
class Scenario(Area):
    """Inputs for one topology draw. J = 0.5*M reproduces the case-study split."""

    num_raps: int = 100
    num_ues: int = 50
    # A scalar is expanded to one equal length per RAP.
    fiber_length_km: float | tuple[float, ...] = 19.0
    rng_seed: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.num_raps < 1:
            raise ValidationError(f"num_raps must be >= 1, got {self.num_raps}")
        if self.num_ues < 1:
            raise ValidationError(f"num_ues must be >= 1, got {self.num_ues}")
        fiber = self.fiber_length_km
        if np.ndim(fiber) == 0:
            fiber = (fiber,) * self.num_raps
        fiber = tuple(float(v) for v in fiber)
        object.__setattr__(self, "fiber_length_km", fiber)
        if len(fiber) != self.num_raps:
            raise ValidationError(
                f"per-RAP fiber list has {len(fiber)} entries for {self.num_raps} RAPs"
            )
        if any(v < 0 for v in fiber):
            raise ValidationError("fiber lengths must be >= 0")


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """One realized topology: RAP and UE positions plus per-RAP fiber runs.

    Positions are read-only float arrays of planar coordinates in meters,
    ``rap_xy`` of shape (M, 2) and ``ue_xy`` of shape (J, 2).
    """

    rap_xy: np.ndarray
    ue_xy: np.ndarray
    fiber_length_km: tuple[float, ...]

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
        if len(self.fiber_length_km) != len(self.rap_xy):
            raise ValidationError("one fiber length per RAP required")
        if any(v < 0 for v in self.fiber_length_km):
            raise ValidationError("fiber lengths must be >= 0")

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


def generate_layout(scenario: Scenario) -> NetworkLayout:
    """Draw RAPs and UEs i.i.d. uniform over the area; deterministic per seed."""
    rng = np.random.default_rng([scenario.rng_seed, LAYOUT_RNG_STREAM])
    m, j = scenario.num_raps, scenario.num_ues
    xs = rng.uniform(0.0, scenario.area_width_m, size=m + j)
    ys = rng.uniform(0.0, scenario.area_height_m, size=m + j)
    xy = np.column_stack([xs, ys])
    return NetworkLayout(xy[:m], xy[m:], scenario.fiber_length_km)


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


def layout_to_csv(layout: NetworkLayout, path: str | Path) -> None:
    """Write ``kind,id,x_m,y_m,fiber_km`` rows; fiber_km is empty for UEs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LAYOUT_CSV_HEADER)
        for i, (x, y) in enumerate(layout.rap_xy.tolist()):
            writer.writerow(["rap", i, repr(x), repr(y), repr(layout.fiber_length_km[i])])
        for i, (x, y) in enumerate(layout.ue_xy.tolist()):
            writer.writerow(["ue", i, repr(x), repr(y), ""])


def layout_from_csv(path: str | Path) -> NetworkLayout:
    raps: list[tuple[float, float]] = []
    ues: list[tuple[float, float]] = []
    fibers: list[float] = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != LAYOUT_CSV_HEADER:
            raise ValidationError(f"unexpected layout CSV header {header!r}")
        for row in reader:
            if len(row) != len(LAYOUT_CSV_HEADER):
                raise ValidationError(f"malformed layout row {row!r}")
            kind, _, x, y, fiber = row
            if kind == "rap":
                raps.append((float(x), float(y)))
                fibers.append(float(fiber))
            elif kind == "ue":
                ues.append((float(x), float(y)))
            else:
                raise ValidationError(f"unknown kind {kind!r} in layout CSV")
    return NetworkLayout(
        np.reshape(raps, (-1, 2)), np.reshape(ues, (-1, 2)), tuple(fibers)
    )
