import math

import numpy as np
import pytest

from fwcsim.errors import ValidationError
from fwcsim.geometry import Area, distance_matrix, generate_layout, udn_association
from fwcsim.wireless import (
    ChannelModel,
    OverheadModel,
    bbof_per_rap_cap_bps,
    cellfree_sinr_components,
    combine_fronthaul_noise,
    draw_channels,
    sinr_from_components,
    sum_throughput,
    udn_sinr_components,
)

MODEL = ChannelModel(noise_figure_db=9.0)
NOISE_W = MODEL.noise_power_w(10e6)
AREA = Area()
NO_OVERHEAD = OverheadModel(max_fraction=0.0)


def drop(rap_xy, ue_xy, seed, mode="ue_nearest"):
    """(gains, |g|^2, (serve, active)) of one drop over literal or drawn positions."""
    dist = distance_matrix(np.array(rap_xy, dtype=float), np.array(ue_xy, dtype=float))
    gains = draw_channels(dist, MODEL, seed)
    return gains, np.abs(gains) ** 2, udn_association(dist, mode)


def sinr(components, p):
    """Per-UE SINR at transmit power p from (signal, interference) components."""
    return sinr_from_components(*components, p, NOISE_W)


def brute_force_cellfree(gains, p, noise):
    """Explicit transmit vectors, direct per-UE signal/interference sums."""
    m, j = gains.shape
    eta = []
    for mi in range(m):
        total = 0.0
        for ji in range(j):
            total += abs(gains[mi, ji]) ** 2
        eta.append(p / total)
    sinrs = []
    for ji in range(j):
        signal_amp = 0.0
        for mi in range(m):
            signal_amp += math.sqrt(eta[mi]) * abs(gains[mi, ji]) ** 2
        interference = 0.0
        for jp in range(j):
            if jp == ji:
                continue
            coeff = 0 + 0j
            for mi in range(m):
                coeff += math.sqrt(eta[mi]) * gains[mi, ji] * np.conj(gains[mi, jp])
            interference += abs(coeff) ** 2
        sinrs.append(signal_amp**2 / (interference + noise))
    return sinrs


def test_draw_channels_deterministic():
    dist = distance_matrix(*generate_layout(AREA, 6, 3, 5))
    a = draw_channels(dist, MODEL, 123)
    b = draw_channels(dist, MODEL, 123)
    assert np.array_equal(a, b)
    c = draw_channels(dist, MODEL, 124)
    assert not np.array_equal(a, c)


def test_unit_variance_fading():
    dist = distance_matrix(*generate_layout(AREA, 200, 100, 1))
    beta = MODEL.pathloss_gain(dist)
    ratios = []
    for seed in range(5):
        ratios.append(np.abs(draw_channels(dist, MODEL, seed)) ** 2 / beta)
    mean = float(np.mean(ratios))  # 1e5 draws total
    assert abs(mean - 1.0) < 0.02


def test_pathloss_doubling():
    g1 = MODEL.pathloss_gain(100.0)
    g2 = MODEL.pathloss_gain(200.0)
    assert g1 / g2 == pytest.approx(2**3.5, rel=1e-12)


def test_udn_single_pair_is_snr():
    gains, p2, assoc = drop([[0.0, 0.0]], [[30.0, 40.0]], 7)
    p = 0.5
    expected = p * abs(gains[0, 0]) ** 2 / NOISE_W
    assert sinr(udn_sinr_components(p2, *assoc), p)[0] == pytest.approx(expected, rel=1e-12)


def test_udn_components_check_shapes():
    _, p2, (serve, active) = drop([[0.0, 0.0], [9.0, 0.0]], [[1.0, 0.0]], 4)
    with pytest.raises(ValidationError):
        udn_sinr_components(p2, serve.T, active)


def test_udn_two_cells_hand_computed():
    gains, p2, assoc = drop([[0.0, 0.0], [500.0, 0.0]], [[10.0, 0.0], [480.0, 0.0]], 3)
    assert assoc[0].tolist() == [[True, False], [False, True]]
    p = 1.0
    g = np.abs(gains) ** 2
    expected0 = p * g[0, 0] / (p * g[1, 0] + NOISE_W)
    expected1 = p * g[1, 1] / (p * g[0, 1] + NOISE_W)
    got = sinr(udn_sinr_components(p2, *assoc), p)
    assert got[0] == pytest.approx(expected0, rel=1e-12)
    assert got[1] == pytest.approx(expected1, rel=1e-12)


def test_udn_interference_limited_ceiling():
    gains, p2, (serve, active) = drop(*generate_layout(AREA, 6, 3, 9), 9)
    hi = sinr(udn_sinr_components(p2, serve, active), 1e9)
    g = np.abs(gains) ** 2
    for j, s in enumerate(hi):
        serving = int(np.flatnonzero(serve[:, j])[0])
        others = [m for m in np.flatnonzero(active) if m != serving]
        if others:
            ceiling = g[serving, j] / g[others, j].sum()
            assert s == pytest.approx(ceiling, rel=1e-6)


def test_rap_nearest_mode_powers_add():
    gains, p2, assoc = drop([[0.0, 0.0], [20.0, 0.0], [900.0, 900.0]],
                            [[10.0, 0.0], [905.0, 905.0]], 21, mode="rap_nearest")
    assert np.flatnonzero(assoc[0][:, 0]).tolist() == [0, 1]
    assert np.flatnonzero(assoc[0][:, 1]).tolist() == [2]
    g = np.abs(gains) ** 2
    p = 2.0
    got = sinr(udn_sinr_components(p2, *assoc), p)
    expected0 = p * (g[0, 0] + g[1, 0]) / (p * g[2, 0] + NOISE_W)
    assert got[0] == pytest.approx(expected0, rel=1e-12)


def test_cellfree_degenerates_to_udn_for_single_pair():
    gains, p2, assoc = drop([[0.0, 0.0]], [[55.0, 10.0]], 31)
    p = 0.7
    assert sinr(cellfree_sinr_components(gains, p2), p)[0] == pytest.approx(
        sinr(udn_sinr_components(p2, *assoc), p)[0], rel=1e-12
    )


def test_cellfree_coherent_gain_two_raps():
    g = 1e-6
    two_raps = np.array([[g], [g]], dtype=complex)
    single = np.array([[g]], dtype=complex)
    p = 1.0
    two = sinr(cellfree_sinr_components(two_raps, np.abs(two_raps) ** 2), p)[0]
    one = sinr(cellfree_sinr_components(single, np.abs(single) ** 2), p)[0]
    assert two / one == pytest.approx(4.0, rel=1e-9)


def test_cellfree_matches_brute_force():
    gains, p2, _ = drop(*generate_layout(AREA, 8, 4, 77), 77)
    p = 0.9
    got = sinr(cellfree_sinr_components(gains, p2), p)
    expected = brute_force_cellfree(gains, p, NOISE_W)
    for a, b in zip(got, expected):
        assert abs(a - b) / b < 1e-9


def test_combine_fronthaul_noise():
    assert combine_fronthaul_noise(5.0, math.inf) == 5.0
    assert combine_fronthaul_noise(10.0, 10.0) == pytest.approx(5.0)
    assert combine_fronthaul_noise(10.0, 0.0) == 0.0
    assert combine_fronthaul_noise(math.inf, 100.0) == 100.0
    assert math.isinf(combine_fronthaul_noise(math.inf, math.inf))
    with pytest.raises(ValidationError):
        combine_fronthaul_noise(-1.0, 10.0)


def test_combine_never_increases_and_monotone():
    rng = np.random.default_rng(8)
    for _ in range(200):
        s, f = rng.uniform(0, 1e4, size=2)
        eff = combine_fronthaul_noise(s, f)
        assert eff <= s + 1e-15 and eff <= f + 1e-15
        assert combine_fronthaul_noise(s * 2, f) >= eff
        assert combine_fronthaul_noise(s, f * 2) >= eff


def test_sum_throughput_basics():
    assert sum_throughput([1.0, 1.0], 10e6, 4, NO_OVERHEAD) == pytest.approx(2e7)
    ov = OverheadModel().fraction(50)
    assert ov == pytest.approx(0.25)
    # one UE at SINR 1 among 50: the other 49 add log2(1 + 0) = 0
    got = sum_throughput([1.0] + [0.0] * 49, 10e6, 100, OverheadModel())
    assert got == pytest.approx(0.75 * 10e6)


def test_sum_throughput_cap():
    cap = bbof_per_rap_cap_bps(2.5e9)
    assert cap == pytest.approx(2.5e9 / 30.0)
    tiny = bbof_per_rap_cap_bps(3000.0)
    got = sum_throughput([1e6] * 4, 10e6, 2, NO_OVERHEAD, per_rap_cap_bps=tiny)
    assert got == pytest.approx(2 * 100.0)


def test_sum_throughput_validation():
    with pytest.raises(ValidationError):
        sum_throughput([1.0], 10e6, 1, OverheadModel(max_fraction=1.0))
    with pytest.raises(ValidationError):
        sum_throughput([-0.5], 10e6, 1, OverheadModel())
    with pytest.raises(ValidationError):
        sum_throughput([1.0], 0.0, 1, OverheadModel())


def test_overhead_clamps():
    assert OverheadModel().fraction(500) == pytest.approx(0.95)


def test_channel_model_validation():
    with pytest.raises(ValidationError):
        ChannelModel(pathloss_exponent=1.5)
    with pytest.raises(ValidationError, match="channel.noise_figure_db"):
        ChannelModel(noise_figure_db=-1e308).noise_power_w(10e6)
    for ref_loss_db in (-1e308, 1e308):  # the 1 m gain overflows, then underflows
        with pytest.raises(ValidationError, match="channel.ref_loss_db"):
            ChannelModel(ref_loss_db=ref_loss_db)
