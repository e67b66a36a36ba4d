import math

import numpy as np
import pytest

from fwcsim.beamform import FIBER_GROUP_INDEX, sync_delays
from fwcsim.errors import ValidationError
from fwcsim.geometry import Area, distance_matrix, generate_layout, udn_association
from fwcsim.units import SPEED_OF_LIGHT_M_S

AREA = Area()


def brute_force_nearest(layout, direction):
    """Exhaustive nearest-neighbour search over all RAP/UE pairs of a
    (rap_xy, ue_xy) layout."""
    rap_xy, ue_xy = layout
    if direction == "ue":
        points, others = ue_xy.tolist(), rap_xy.tolist()
    else:
        points, others = rap_xy.tolist(), ue_xy.tolist()
    result = []
    for x, y in points:
        dists = [math.hypot(x - ox, y - oy) for ox, oy in others]
        result.append(dists.index(min(dists)))
    return result


def same_layout(a, b):
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def distances(rap_xy, ue_xy):
    """Distance matrix of literal (x, y) position lists."""
    return distance_matrix(np.array(rap_xy, dtype=float), np.array(ue_xy, dtype=float))


def drop_delays(area_width_m=1000.0, area_height_m=1000.0, num_raps=100, num_ues=50,
                fiber_length_km=19.0, rng_seed=1):
    """Sync delays toward UE 0 of a drawn layout; a scalar fiber length is
    expanded to one equal length per RAP."""
    layout = generate_layout(Area(area_width_m, area_height_m), num_raps, num_ues, rng_seed)
    if np.ndim(fiber_length_km) == 0:
        fiber_length_km = (fiber_length_km,) * num_raps
    return sync_delays(distance_matrix(*layout)[:, 0], fiber_length_km)


def serving_raps(assoc):
    """Serving RAP per UE, asserting the serve mask holds exactly one per column."""
    serve, _ = assoc
    assert (serve.sum(axis=0) == 1).all()
    return np.argmax(serve, axis=0).tolist()


def test_generate_layout_counts_and_bounds():
    rap_xy, ue_xy = generate_layout(AREA, 4, 2, 7)
    assert len(rap_xy) == 4
    assert len(ue_xy) == 2
    assert rap_xy.shape == (4, 2) and ue_xy.shape == (2, 2)
    for x, y in np.vstack([rap_xy, ue_xy]):
        assert 0.0 <= x <= 1000.0
        assert 0.0 <= y <= 1000.0


def test_uniform_fiber_policy():
    # equal fiber runs delay every RAP alike, so only the air paths differ
    air_m = distance_matrix(*generate_layout(AREA, 100, 50, 1))[:, 0]
    assert drop_delays(num_raps=100, num_ues=50, fiber_length_km=19.0, rng_seed=1) == pytest.approx(
        sync_delays(air_m, (0.0,) * 100), abs=1e-15
    )


def test_per_rap_fiber_policy():
    lengths = (1.0, 2.5, 19.0)
    air_m = distance_matrix(*generate_layout(AREA, 3, 2, 3))[:, 0]
    delays = sync_delays(air_m, lengths)
    air = sync_delays(air_m, (0.0,) * 3)
    # each RAP's own fiber run shifts its delay by n_g * L_m / c, RAP by RAP
    shift = [a - d for a, d in zip(air, delays)]
    fiber_s = [FIBER_GROUP_INDEX * lk * 1e3 / SPEED_OF_LIGHT_M_S for lk in lengths]
    assert [v - shift[0] for v in shift] == pytest.approx(
        [f - fiber_s[0] for f in fiber_s], abs=1e-15
    )


def test_generate_layout_deterministic():
    a = generate_layout(AREA, 4, 2, 7)
    b = generate_layout(AREA, 4, 2, 7)
    assert same_layout(a, b)  # bitwise: exact equality of the float arrays
    c = generate_layout(AREA, 4, 2, 8)
    assert not same_layout(a, c)


def test_positions_inside_area_many_seeds():
    for seed in range(50):
        sc = Area(area_width_m=400.0, area_height_m=250.0)
        for x, y in np.vstack(generate_layout(sc, 20, 10, seed)):
            assert 0.0 <= x <= sc.area_width_m
            assert 0.0 <= y <= sc.area_height_m


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_raps": 0},
        {"num_ues": 0},
        {"area_width_m": 0.0},
        {"area_height_m": -5.0},
        {"fiber_length_km": -1.0},
        {"num_raps": 3, "fiber_length_km": (1.0, 2.0)},
        {"num_raps": 2, "fiber_length_km": (math.nan, 19.0)},
        {"num_raps": 2, "fiber_length_km": (math.inf, 19.0)},
    ],
)
def test_invalid_scenarios(kwargs):
    with pytest.raises(ValidationError):
        drop_delays(**kwargs)


def test_point_must_be_finite():
    with pytest.raises(ValidationError):
        sync_delays(distances([[math.nan, 0.0]], [[0.0, 0.0]])[:, 0], (19.0,))
    with pytest.raises(ValidationError):
        sync_delays(distances([[0.0, 0.0]], [[0.0, math.inf]])[:, 0], (19.0,))
    with pytest.raises(ValidationError):
        sync_delays([-1.0, 5.0], (19.0, 19.0))


def test_association_single_pair():
    assoc = udn_association(distances([[5.0, 5.0]], [[1.0, 1.0]]))
    assert serving_raps(assoc) == [0]
    assert assoc[1].tolist() == [True]


def test_association_nearest_of_two():
    assoc = udn_association(distances([[1.0, 0.0], [5.0, 0.0]], [[0.0, 0.0]]))
    assert serving_raps(assoc) == [0]
    assert assoc[1].tolist() == [True, False]  # the far RAP idles


def test_association_tie_breaks_to_lowest_index():
    dist = distances([[1.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]])
    assert serving_raps(udn_association(dist)) == [0]


def test_association_matches_brute_force():
    for seed in range(200):
        layout = generate_layout(AREA, 8, 4, seed)
        dist = distance_matrix(*layout)
        assoc = udn_association(dist)
        nearest = brute_force_nearest(layout, "ue")
        assert serving_raps(assoc) == nearest
        assert assoc[1].tolist() == [m in nearest for m in range(8)]
        serve, active = udn_association(dist, mode="rap_nearest")
        target = brute_force_nearest(layout, "rap")
        assert (serve.sum(axis=1) == 1).all()  # one UE per RAP
        for ue_idx in range(4):
            serving = set(np.flatnonzero(serve[:, ue_idx]).tolist())
            assert serving == {m for m, t in enumerate(target) if t == ue_idx}
        assert active.all()


def test_ue_nearest_distance_property():
    for seed in range(50):
        dist = distance_matrix(*generate_layout(AREA, 12, 6, 100 + seed))
        for j, rap in enumerate(serving_raps(udn_association(dist))):
            assert dist[rap, j] <= dist[:, j].min() + 1e-12


def test_unknown_mode_rejected():
    dist = distance_matrix(*generate_layout(AREA, 2, 1, 0))
    with pytest.raises(ValidationError, match="association_mode"):
        udn_association(dist, mode="closest")


def test_empty_layout_rejected():
    with pytest.raises(ValidationError):
        generate_layout(AREA, 0, 1, 0)
    with pytest.raises(ValidationError):
        generate_layout(AREA, 1, 0, 0)
    with pytest.raises(ValidationError):
        sync_delays([], ())

