import math

import numpy as np
import pytest

from fwcsim.errors import ValidationError
from fwcsim.geometry import (
    NetworkLayout,
    Scenario,
    generate_layout,
    layout_from_csv,
    layout_to_csv,
    udn_association,
)


def brute_force_nearest(layout, direction):
    """Exhaustive nearest-neighbour search over all RAP/UE pairs."""
    if direction == "ue":
        points, others = layout.ue_xy.tolist(), layout.rap_xy.tolist()
    else:
        points, others = layout.rap_xy.tolist(), layout.ue_xy.tolist()
    result = []
    for x, y in points:
        dists = [math.hypot(x - ox, y - oy) for ox, oy in others]
        result.append(dists.index(min(dists)))
    return result


def same_layout(a, b):
    return (
        np.array_equal(a.rap_xy, b.rap_xy)
        and np.array_equal(a.ue_xy, b.ue_xy)
        and a.fiber_length_km == b.fiber_length_km
    )


def serving_raps(assoc):
    """Serving RAP per UE, asserting the mask holds exactly one per column."""
    assert (assoc.serve.sum(axis=0) == 1).all()
    return np.argmax(assoc.serve, axis=0).tolist()


def test_generate_layout_counts_and_bounds():
    layout = generate_layout(Scenario(num_raps=4, num_ues=2, rng_seed=7))
    assert layout.num_raps == 4
    assert layout.num_ues == 2
    assert layout.rap_xy.shape == (4, 2) and layout.ue_xy.shape == (2, 2)
    for x, y in np.vstack([layout.rap_xy, layout.ue_xy]):
        assert 0.0 <= x <= 1000.0
        assert 0.0 <= y <= 1000.0


def test_uniform_fiber_policy():
    layout = generate_layout(Scenario(num_raps=100, num_ues=50, fiber_length_km=19.0))
    assert layout.fiber_length_km == (19.0,) * 100


def test_per_rap_fiber_policy():
    lengths = (1.0, 2.5, 19.0)
    layout = generate_layout(
        Scenario(num_raps=3, num_ues=2, fiber_length_km=lengths, rng_seed=3)
    )
    assert layout.fiber_length_km == lengths


def test_generate_layout_deterministic():
    a = generate_layout(Scenario(num_raps=4, num_ues=2, rng_seed=7))
    b = generate_layout(Scenario(num_raps=4, num_ues=2, rng_seed=7))
    assert same_layout(a, b)  # bitwise: exact equality of the float arrays
    c = generate_layout(Scenario(num_raps=4, num_ues=2, rng_seed=8))
    assert not same_layout(a, c)


def test_positions_inside_area_many_seeds():
    for seed in range(50):
        sc = Scenario(area_width_m=400.0, area_height_m=250.0, num_raps=20,
                      num_ues=10, rng_seed=seed)
        layout = generate_layout(sc)
        for x, y in np.vstack([layout.rap_xy, layout.ue_xy]):
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
    ],
)
def test_invalid_scenarios(kwargs):
    with pytest.raises(ValidationError):
        Scenario(**kwargs)


def test_point_must_be_finite(tmp_path):
    with pytest.raises(ValidationError):
        NetworkLayout(np.array([[math.nan, 0.0]]), np.zeros((1, 2)), (1.0,))
    with pytest.raises(ValidationError):
        NetworkLayout(np.zeros((1, 2)), np.array([[0.0, math.inf]]), (1.0,))
    path = tmp_path / "nan.csv"
    path.write_text("kind,id,x_m,y_m,fiber_km\nrap,0,1.0,2.0,19.0\nue,0,nan,3.0,\n")
    with pytest.raises(ValidationError):
        layout_from_csv(path)


def test_association_single_pair():
    layout = NetworkLayout(np.array([[5.0, 5.0]]), np.array([[1.0, 1.0]]), (19.0,))
    assoc = udn_association(layout)
    assert serving_raps(assoc) == [0]
    assert assoc.active.tolist() == [True]


def test_association_nearest_of_two():
    layout = NetworkLayout(
        np.array([[1.0, 0.0], [5.0, 0.0]]), np.array([[0.0, 0.0]]), (19.0, 19.0)
    )
    assoc = udn_association(layout)
    assert serving_raps(assoc) == [0]
    assert assoc.active.tolist() == [True, False]  # the far RAP idles


def test_association_tie_breaks_to_lowest_index():
    layout = NetworkLayout(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 0.0]]), (1.0, 1.0)
    )
    assert serving_raps(udn_association(layout)) == [0]


def test_association_matches_brute_force():
    for seed in range(200):
        layout = generate_layout(Scenario(num_raps=8, num_ues=4, rng_seed=seed))
        assoc = udn_association(layout)
        nearest = brute_force_nearest(layout, "ue")
        assert serving_raps(assoc) == nearest
        assert assoc.active.tolist() == [m in nearest for m in range(8)]
        literal = udn_association(layout, mode="rap_nearest")
        target = brute_force_nearest(layout, "rap")
        assert (literal.serve.sum(axis=1) == 1).all()  # one UE per RAP
        for ue_idx in range(4):
            serving = set(np.flatnonzero(literal.serve[:, ue_idx]).tolist())
            assert serving == {m for m, t in enumerate(target) if t == ue_idx}
        assert literal.active.all()


def test_ue_nearest_distance_property():
    for seed in range(50):
        layout = generate_layout(Scenario(num_raps=12, num_ues=6, rng_seed=100 + seed))
        assoc = udn_association(layout)
        dist = layout.distance_matrix()
        for j, rap in enumerate(serving_raps(assoc)):
            assert dist[rap, j] <= dist[:, j].min() + 1e-12


def test_unknown_mode_rejected():
    layout = generate_layout(Scenario(num_raps=2, num_ues=1, rng_seed=0))
    with pytest.raises(ValidationError):
        udn_association(layout, mode="closest")


def test_empty_layout_rejected():
    with pytest.raises(ValidationError):
        NetworkLayout(np.empty((0, 2)), np.zeros((1, 2)), ())
    with pytest.raises(ValidationError):
        NetworkLayout(np.zeros((1, 2)), np.empty((0, 2)), (1.0,))


def test_csv_round_trip(tmp_path):
    layout = generate_layout(Scenario(num_raps=5, num_ues=3, rng_seed=11))
    path = tmp_path / "layout.csv"
    layout_to_csv(layout, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.split(b"\n")[0] == b"kind,id,x_m,y_m,fiber_km"
    assert same_layout(layout_from_csv(path), layout)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("kind,id,x,y\nrap,0,1,2\n")
    with pytest.raises(ValidationError):
        layout_from_csv(path)
