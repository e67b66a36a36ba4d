import math

import numpy as np
import pytest

from fwcsim.errors import ValidationError
from fwcsim.geometry import NetworkLayout, Scenario, generate_layout, udn_association
from fwcsim.wireless import (
    ChannelModel,
    ChannelRealization,
    OverheadModel,
    bbof_per_rap_cap_bps,
    cellfree_sinr,
    combine_fronthaul_noise,
    draw_channels,
    sum_throughput,
    udn_sinr,
)

MODEL = ChannelModel.from_bandwidth(10e6, noise_figure_db=9.0)


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
    layout = generate_layout(Scenario(num_raps=6, num_ues=3, rng_seed=5))
    a = draw_channels(layout, MODEL, 123)
    b = draw_channels(layout, MODEL, 123)
    assert np.array_equal(a.gains, b.gains)
    c = draw_channels(layout, MODEL, 124)
    assert not np.array_equal(a.gains, c.gains)


def test_unit_variance_fading():
    layout = generate_layout(Scenario(num_raps=200, num_ues=100, rng_seed=1))
    beta = MODEL.pathloss_gain(layout.distance_matrix())
    ratios = []
    for seed in range(5):
        real = draw_channels(layout, MODEL, seed)
        ratios.append(np.abs(real.gains) ** 2 / beta)
    mean = float(np.mean(ratios))  # 1e5 draws total
    assert abs(mean - 1.0) < 0.02


def test_pathloss_doubling():
    g1 = MODEL.pathloss_gain(100.0)
    g2 = MODEL.pathloss_gain(200.0)
    assert g1 / g2 == pytest.approx(2**3.5, rel=1e-12)


def test_udn_single_pair_is_snr():
    layout = NetworkLayout(np.array([[0.0, 0.0]]), np.array([[30.0, 40.0]]), (19.0,))
    real = draw_channels(layout, MODEL, 7)
    assoc = udn_association(layout)
    p = 0.5
    expected = p * abs(real.gains[0, 0]) ** 2 / MODEL.noise_power_w
    assert udn_sinr(real, assoc, p, MODEL)[0] == pytest.approx(expected, rel=1e-12)


def test_udn_two_cells_hand_computed():
    layout = NetworkLayout(
        np.array([[0.0, 0.0], [500.0, 0.0]]),
        np.array([[10.0, 0.0], [480.0, 0.0]]),
        (19.0, 19.0),
    )
    real = draw_channels(layout, MODEL, 3)
    assoc = udn_association(layout)
    assert assoc.serve.tolist() == [[True, False], [False, True]]
    p = 1.0
    g = np.abs(real.gains) ** 2
    expected0 = p * g[0, 0] / (p * g[1, 0] + MODEL.noise_power_w)
    expected1 = p * g[1, 1] / (p * g[0, 1] + MODEL.noise_power_w)
    got = udn_sinr(real, assoc, p, MODEL)
    assert got[0] == pytest.approx(expected0, rel=1e-12)
    assert got[1] == pytest.approx(expected1, rel=1e-12)


def test_udn_interference_limited_ceiling():
    layout = generate_layout(Scenario(num_raps=6, num_ues=3, rng_seed=9))
    real = draw_channels(layout, MODEL, 9)
    assoc = udn_association(layout)
    hi = udn_sinr(real, assoc, 1e9, MODEL)
    g = np.abs(real.gains) ** 2
    for j, s in enumerate(hi):
        serving = int(np.flatnonzero(assoc.serve[:, j])[0])
        others = [m for m in np.flatnonzero(assoc.active) if m != serving]
        if others:
            ceiling = g[serving, j] / g[others, j].sum()
            assert s == pytest.approx(ceiling, rel=1e-6)


def test_rap_nearest_mode_powers_add():
    layout = NetworkLayout(
        np.array([[0.0, 0.0], [20.0, 0.0], [900.0, 900.0]]),
        np.array([[10.0, 0.0], [905.0, 905.0]]),
        (19.0,) * 3,
    )
    assoc = udn_association(layout, mode="rap_nearest")
    assert np.flatnonzero(assoc.serve[:, 0]).tolist() == [0, 1]
    assert np.flatnonzero(assoc.serve[:, 1]).tolist() == [2]
    real = draw_channels(layout, MODEL, 21)
    g = np.abs(real.gains) ** 2
    p = 2.0
    got = udn_sinr(real, assoc, p, MODEL)
    expected0 = p * (g[0, 0] + g[1, 0]) / (p * g[2, 0] + MODEL.noise_power_w)
    assert got[0] == pytest.approx(expected0, rel=1e-12)


def test_cellfree_degenerates_to_udn_for_single_pair():
    layout = NetworkLayout(np.array([[0.0, 0.0]]), np.array([[55.0, 10.0]]), (19.0,))
    real = draw_channels(layout, MODEL, 31)
    assoc = udn_association(layout)
    p = 0.7
    assert cellfree_sinr(real, p, MODEL)[0] == pytest.approx(
        udn_sinr(real, assoc, p, MODEL)[0], rel=1e-12
    )


def test_cellfree_coherent_gain_two_raps():
    g = 1e-6
    real = ChannelRealization(gains=np.array([[g], [g]], dtype=complex), drop_seed=0)
    single = ChannelRealization(gains=np.array([[g]], dtype=complex), drop_seed=0)
    p = 1.0
    two = cellfree_sinr(real, p, MODEL)[0]
    one = cellfree_sinr(single, p, MODEL)[0]
    assert two / one == pytest.approx(4.0, rel=1e-9)


def test_cellfree_matches_brute_force():
    layout = generate_layout(Scenario(num_raps=8, num_ues=4, rng_seed=77))
    real = draw_channels(layout, MODEL, 77)
    p = 0.9
    got = cellfree_sinr(real, p, MODEL)
    expected = brute_force_cellfree(real.gains, p, MODEL.noise_power_w)
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
    assert sum_throughput([1.0, 1.0], 10e6, num_raps=4, num_ues=2, overhead=0.0) == pytest.approx(2e7)
    ov = OverheadModel().fraction(50)
    assert ov == pytest.approx(0.25)
    got = sum_throughput([1.0], 10e6, num_raps=100, num_ues=50)
    assert got == pytest.approx(0.75 * 10e6)


def test_sum_throughput_cap():
    cap = bbof_per_rap_cap_bps(2.5e9)
    assert cap == pytest.approx(2.5e9 / 30.0)
    tiny = bbof_per_rap_cap_bps(3000.0)
    got = sum_throughput([1e6] * 4, 10e6, num_raps=2, num_ues=4, overhead=0.0,
                         per_rap_cap_bps=tiny)
    assert got == pytest.approx(2 * 100.0)


def test_sum_throughput_validation():
    with pytest.raises(ValidationError):
        sum_throughput([1.0], 10e6, num_raps=1, num_ues=1, overhead=1.0)
    with pytest.raises(ValidationError):
        sum_throughput([-0.5], 10e6, num_raps=1)
    with pytest.raises(ValidationError):
        sum_throughput([1.0], 0.0, num_raps=1)


def test_overhead_clamps():
    assert OverheadModel().fraction(500) == pytest.approx(0.95)


def test_channel_model_validation():
    with pytest.raises(ValidationError):
        ChannelModel(pathloss_exponent=1.5)
    with pytest.raises(ValidationError):
        ChannelModel(noise_power_w=0.0)
