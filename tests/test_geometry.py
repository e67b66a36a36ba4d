import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fwcsim.config import SweepParams
from fwcsim.errors import ValidationError
from fwcsim.geometry import Area, distance_matrix, generate_layout, udn_association

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


def drawn_layout(area_width_m=1000.0, area_height_m=1000.0):
    """100 RAPs and 50 UEs drawn with seed 1 over an area of the given sides."""
    return generate_layout(Area(area_width_m, area_height_m), 100, 50, 1)


def serving_raps(serve):
    """Serving RAP per UE, asserting the serve mask holds exactly one per column."""
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
        {"area_width_m": 0.0},
        {"area_height_m": -5.0},
        {"area_width_m": -math.inf},
        {"area_height_m": 0.0},
    ],
)
def test_invalid_scenarios(kwargs):
    with pytest.raises(ValidationError):
        drawn_layout(**kwargs)


def test_association_single_pair():
    serve = udn_association(distances([[5.0, 5.0]], [[1.0, 1.0]]), "ue_nearest")
    assert serving_raps(serve) == [0]
    assert serve.any(axis=1).tolist() == [True]


def test_association_nearest_of_two():
    serve = udn_association(distances([[1.0, 0.0], [5.0, 0.0]], [[0.0, 0.0]]), "ue_nearest")
    assert serving_raps(serve) == [0]
    assert serve.any(axis=1).tolist() == [True, False]  # the far RAP idles


def test_association_tie_breaks_to_lowest_index():
    dist = distances([[1.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]])
    assert serving_raps(udn_association(dist, "ue_nearest")) == [0]


def test_association_matches_brute_force():
    for seed in range(200):
        layout = generate_layout(AREA, 8, 4, seed)
        dist = distance_matrix(*layout)
        serve = udn_association(dist, "ue_nearest")
        nearest = brute_force_nearest(layout, "ue")
        assert serving_raps(serve) == nearest
        assert serve.any(axis=1).tolist() == [m in nearest for m in range(8)]
        serve = udn_association(dist, mode="rap_nearest")
        target = brute_force_nearest(layout, "rap")
        assert (serve.sum(axis=1) == 1).all()  # one UE per RAP
        for ue_idx in range(4):
            serving = set(np.flatnonzero(serve[:, ue_idx]).tolist())
            assert serving == {m for m, t in enumerate(target) if t == ue_idx}


def test_ue_nearest_distance_property():
    for seed in range(50):
        dist = distance_matrix(*generate_layout(AREA, 12, 6, 100 + seed))
        for j, rap in enumerate(serving_raps(udn_association(dist, "ue_nearest"))):
            assert dist[rap, j] <= dist[:, j].min() + 1e-12


def test_unknown_mode_rejected():
    """udn_association trusts its mode: the config holds it to the two names."""
    with pytest.raises(ValidationError, match="sweep.association_mode must be one of"):
        SweepParams(association_mode="closest")


def test_empty_layout_rejected():
    """generate_layout trusts its counts: the config holds each M to >= 1, and the
    sweep's J = M/2 is at least one."""
    for m in (0, -3):
        with pytest.raises(ValidationError, match=r"sweep.m_values\[1\] must be >= 1"):
            SweepParams(m_values=(4, m))



@settings(max_examples=200, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 9), st.integers(1, 9)),
              elements=st.sampled_from([0.0, 1.0, 2.5, 7.0])))
def test_ue_nearest_ties_break_like_argmin(dist):
    """Few distinct distances force ties; each UE still takes the first nearest RAP."""
    m, j = dist.shape
    serve = udn_association(dist, "ue_nearest")
    want = np.zeros((m, j), dtype=bool)
    want[np.argmin(dist, axis=0), np.arange(j)] = True
    assert np.array_equal(serve, want)
