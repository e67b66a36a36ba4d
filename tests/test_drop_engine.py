"""Bit-identity properties of the array-native drop engine kernels.

The distance matrix, fronthaul combining and the sum rate run on whole
arrays; each must reproduce, bit for bit, the per-element or per-row
computation it replaced, so the sweep CSV bytes cannot move.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fwcsim.sweeps as sweeps
from fwcsim.config import config_from_dict
from fwcsim.geometry import Area, distance_matrix, generate_layout
from fwcsim.wireless import OverheadModel, combine_fronthaul_noise, sum_throughput

PROPERTY = settings(max_examples=150, deadline=None)

coords = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
finite_nonneg = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)
# -0.0 passes the >= 0 check; the zero rule must still return +0.0 for it.
snr_terms = st.one_of(st.sampled_from([0.0, -0.0, math.inf]), finite_nonneg)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def reference_rate_terms(sinrs: np.ndarray) -> np.ndarray:
    """log2(1 + SINR) per UE, and SINR / ln 2 where 1 + SINR rounds to 1 and SINR > 0."""
    tiny = (1.0 + sinrs == 1.0) & (sinrs > 0.0)
    return np.where(tiny, sinrs / math.log(2.0), np.log2(1.0 + sinrs))


def reference_distances(rap_xy, ue_xy):
    diff = rap_xy[:, None, :] - ue_xy[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def reference_combine(s: float, fh: float) -> float:
    """The per-element rule the array form must keep."""
    if math.isinf(fh):
        return s
    if math.isinf(s):
        return fh
    if s == 0.0 or fh == 0.0:
        return 0.0
    return 1.0 / (1.0 / s + 1.0 / fh)


@st.composite
def positions(draw):
    m = draw(st.integers(1, 12))
    j = draw(st.integers(1, 12))
    rap = draw(arrays(float, (m, 2), elements=coords))
    ue = draw(arrays(float, (j, 2), elements=coords))
    return rap, ue


@PROPERTY
@given(positions())
def test_distance_matrix_matches_reference_bits(xy):
    rap, ue = xy
    got = distance_matrix(rap, ue)
    assert got.shape == (len(rap), len(ue))
    assert np.array_equal(bits(got), bits(reference_distances(rap, ue)))


@pytest.mark.parametrize("m, j", [(1, 1), (1, 9), (9, 1), (256, 128)])
def test_distance_matrix_edge_shapes(m, j):
    rap_xy, ue_xy = generate_layout(Area(), m, j, m + j)
    expected = reference_distances(rap_xy, ue_xy)
    assert np.array_equal(bits(distance_matrix(rap_xy, ue_xy)), bits(expected))


@PROPERTY
@given(st.lists(st.tuples(snr_terms, snr_terms), min_size=1, max_size=40))
def test_combine_array_matches_scalar_bits(pairs):
    s = np.array([p[0] for p in pairs])
    fh = np.array([p[1] for p in pairs])
    got = combine_fronthaul_noise(s, fh)
    expected = [reference_combine(a, b) for a, b in pairs]
    scalar = [combine_fronthaul_noise(a, b) for a, b in pairs]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(bits(got), bits(expected))
    assert np.array_equal(bits(scalar), bits(expected))


@PROPERTY
@given(arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=snr_terms),
       snr_terms)
def test_combine_broadcasts_one_fronthaul_snr(s, fh):
    got = combine_fronthaul_noise(s, fh)
    expected = [[reference_combine(a, fh) for a in row] for row in s.tolist()]
    assert np.array_equal(bits(got), bits(expected))


def test_combine_array_rejects_negative_terms():
    with pytest.raises(ValueError):
        combine_fronthaul_noise(np.array([1.0, -1.0]), 10.0)
    with pytest.raises(ValueError):
        combine_fronthaul_noise(np.array([1.0, 2.0]), np.array([10.0, -0.5]))


rate_rows = arrays(
    float,
    st.tuples(st.integers(1, 5), st.integers(1, 300)),
    elements=st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
)


# Overhead fractions min(J / block, clamp): J-dependent, exactly 0.0, exactly 0.25.
overheads = st.sampled_from([
    OverheadModel(), OverheadModel(max_fraction=0.0),
    OverheadModel(coherence_block_symbols=1.0, max_fraction=0.25),
])


@PROPERTY
@given(rate_rows, overheads, st.sampled_from([None, 1.0, 83.3e6, 1e12]))
def test_sum_throughput_rows_match_1d_bits(sinrs, overhead, cap):
    num_raps, bandwidth = 7, 100e6
    got = sum_throughput(sinrs, bandwidth, num_raps, overhead, per_rap_cap_bps=cap)
    assert got.shape == (len(sinrs),)
    for row, total in zip(sinrs, got):
        one = sum_throughput(row.tolist(), bandwidth, num_raps, overhead, per_rap_cap_bps=cap)
        assert type(one) is float
        fraction = overhead.fraction(len(row))
        literal = (1.0 - fraction) * bandwidth * float(reference_rate_terms(row).sum())
        if cap is not None:
            literal = min(literal, num_raps * cap)
        assert bits(total) == bits(one) == bits(literal)


# Weak links: SINRs down to the subnormals, where 1 + SINR rounds to 1, among ordinary ones.
weak_rows = arrays(
    float,
    st.tuples(st.integers(1, 5), st.integers(1, 40)),
    elements=st.one_of(st.floats(0.0, 1e-15), st.sampled_from([0.0, 5e-324, 1.1e-16]),
                       st.floats(0.0, 1e6)),
)


@PROPERTY
@given(weak_rows, overheads, st.sampled_from([None, 83.3e6]))
def test_sum_throughput_weak_links_keep_a_rate(sinrs, overhead, cap):
    num_raps, bandwidth = 7, 100e6
    got = sum_throughput(sinrs, bandwidth, num_raps, overhead, per_rap_cap_bps=cap)
    fraction = overhead.fraction(sinrs.shape[-1])
    for row, total in zip(sinrs, got):
        old = (1.0 - fraction) * bandwidth * float(np.log2(1.0 + row).sum())
        if cap is not None:
            old = min(old, num_raps * cap)
        tiny = (1.0 + row == 1.0) & (row > 0.0)
        if not tiny.any():  # the old expression, bit for bit
            assert bits(total) == bits(old)
        else:
            assert total >= old and total > 0.0
            if not (row > 0.0)[~tiny].any():  # only weak links: the old code read no link
                assert old == 0.0
                want = (1.0 - fraction) * bandwidth * float((row / math.log(2.0)).sum())
                assert bits(total) == bits(min(want, num_raps * cap) if cap else want)


def test_sum_throughput_2d_keeps_checks():
    with pytest.raises(ValueError):
        sum_throughput(np.array([[1.0, 2.0], [0.5, -1e-9]]), 10e6, 1, OverheadModel())
    with pytest.raises(ValueError):
        sum_throughput(np.ones((2, 3)), 0.0, 1, OverheadModel())
    with pytest.raises(ValueError):
        sum_throughput(np.ones((2, 3)), 10e6, 1, OverheadModel(max_fraction=1.0))


def test_sweep_combines_once_per_arch_scheme_m(monkeypatch):
    calls = {"combine": 0, "rate": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sweeps, "combine_fronthaul_noise",
                        counted("combine", sweeps.combine_fronthaul_noise))
    monkeypatch.setattr(sweeps, "sum_throughput", counted("rate", sweeps.sum_throughput))
    cfg = config_from_dict({"sweep": {"m_values": [4, 8, 12]}, "monte_carlo_drops": 4})
    sweeps.run_throughput_sweep(cfg)
    points = 2 * len(cfg.schemes) * len(cfg.sweep.m_values)
    assert calls == {"combine": points, "rate": points}


def test_sweep_shares_one_distance_matrix_and_power_gain_per_drop(monkeypatch):
    calls = {"distance": 0, "power": 0}
    dist_fn = sweeps.distance_matrix

    def counted_distance(*args):
        calls["distance"] += 1
        return dist_fn(*args)

    class CountedNumpy:
        """numpy for the sweeps module, counting the |g| of the |g|^2 step."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def abs(x):
            assert np.iscomplexobj(x)
            calls["power"] += 1
            return np.abs(x)

    monkeypatch.setattr(sweeps, "distance_matrix", counted_distance)
    monkeypatch.setattr(sweeps, "np", CountedNumpy())
    cfg = config_from_dict({"sweep": {"m_values": [4, 8, 12]}, "monte_carlo_drops": 4})
    sweeps.run_throughput_sweep(cfg)
    drops = cfg.monte_carlo_drops * len(cfg.sweep.m_values)
    assert calls == {"distance": drops, "power": drops}
