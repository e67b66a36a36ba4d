"""Bit-identity properties of the array-native drop engine kernels.

The distance matrix, fronthaul combining and the sum rate run on whole
arrays; each must reproduce, bit for bit, the per-element or per-row
computation it replaced, so the sweep CSV bytes cannot move. The sweep's
drops fill one set of buffers in place; that path must give the bytes of the
allocating layer functions, and allocate little per drop. The sweep runs seed
by seed and shares each seed's random streams across its M values; it must
give the rows of the M-major loop that drew them again for every M.
"""
import importlib
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fwcsim.sweeps as sweeps
from fwcsim.config import config_from_dict
from fwcsim.errors import InfeasibleBudgetError, ValidationError
from fwcsim.geometry import (
    ASSOCIATION_MODES, LAYOUT_RNG_STREAM, Area, distance_matrix, generate_layout,
    layout_stream, udn_association,
)
from fwcsim.optics import Scheme, fiber_axis, fronthaul_snr_db
from fwcsim.power import solve_tx_power
from fwcsim.units import db_to_linear
from fwcsim.wireless import (
    CHANNEL_RNG_STREAM,
    OverheadModel,
    bbof_per_rap_cap_bps,
    cellfree_sinr_components,
    channel_stream,
    combine_fronthaul_noise,
    draw_channels,
    power_gains,
    sinr_from_components,
    sum_throughput,
    udn_sinr_components,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

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

    def counted_distance(*args, out=None):
        assert out is not None  # the drop fills its buffers
        calls["distance"] += 1
        return dist_fn(*args, out=out)

    power_fn = sweeps.power_gains

    def counted_power(gains, out=None):
        assert np.iscomplexobj(gains) and out is not None
        calls["power"] += 1
        return power_fn(gains, out=out)

    monkeypatch.setattr(sweeps, "distance_matrix", counted_distance)
    monkeypatch.setattr(sweeps, "power_gains", counted_power)
    cfg = config_from_dict({"sweep": {"m_values": [4, 8, 12]}, "monte_carlo_drops": 4})
    sweeps.run_throughput_sweep(cfg)
    drops = cfg.monte_carlo_drops * len(cfg.sweep.m_values)
    assert calls == {"distance": drops, "power": drops}


def reference_gains(dist, model, drop_seed):
    """The complex-arithmetic channel draw the part-by-part one must match."""
    rng = np.random.default_rng([drop_seed, CHANNEL_RNG_STREAM])
    beta = model.pathloss_gain(dist)
    h = (rng.standard_normal(dist.shape) + 1j * rng.standard_normal(dist.shape)) / math.sqrt(2.0)
    return np.sqrt(beta) * h


def allocating_drop(cfg, m, j, drop_seed):
    """One drop through the layer functions without ``out``."""
    dist = distance_matrix(*generate_layout(cfg.scenario, m, j, drop_seed))
    serve = udn_association(dist, cfg.sweep.association_mode)
    gains = draw_channels(dist, cfg.channel, drop_seed)
    assert np.array_equal(bits(gains.view(float)),
                          bits(reference_gains(dist, cfg.channel, drop_seed).view(float)))
    p2 = np.abs(gains) ** 2
    return dist, gains, p2, {"udn": udn_sinr_components(p2, serve),
                             "cellfree": cellfree_sinr_components(gains, p2)}


def seed_streams(m, j, seed, share):
    """A seed's layout stream for M + J points and a channel stream whose kept
    prefix holds ``share`` of the 2MJ normals an (M, J) draw reads."""
    return layout_stream(seed, m + j), channel_stream(seed, round(share * 2 * m * j))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.sampled_from(ASSOCIATION_MODES),
       st.floats(2.0, 5.0, exclude_min=True), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
def test_buffered_drop_matches_allocating_layers(m, j, mode, exponent, seed, share):
    cfg = config_from_dict({"channel": {"pathloss_exponent": exponent},
                            "sweep": {"association_mode": mode}})
    dist, gains, p2, expected = allocating_drop(cfg, m, j, seed)
    buffers = sweeps._drop_buffers({m: j})[m]
    # stale contents must not leak
    sweeps._throughput_drop(cfg, seed + 1, seed_streams(m, j, seed + 1, share), buffers)
    got = sweeps._throughput_drop(cfg, seed, seed_streams(m, j, seed, share), buffers)
    for arch in ("udn", "cellfree"):
        for want, have in zip(expected[arch], got[arch]):
            assert np.array_equal(bits(want), bits(have)), arch

    # each out= and stream= form has the bytes of its allocating form
    block = np.full((2, m, j), np.nan)
    layout, channel = seed_streams(m, j, seed, share)
    rap_xy, ue_xy = generate_layout(cfg.scenario, m, j, seed, layout)
    got_dist = distance_matrix(rap_xy, ue_xy, out=block)
    assert np.shares_memory(got_dist, block[0])
    assert np.array_equal(bits(got_dist), bits(dist))
    into = np.full((m, j), np.nan, dtype=complex)
    assert draw_channels(block[0], cfg.channel, seed, out=(into, block), stream=channel) is into
    assert np.array_equal(bits(into.view(float)), bits(gains.view(float)))
    assert np.array_equal(bits(power_gains(gains)), bits(p2))
    assert np.array_equal(bits(power_gains(into, out=block[0])), bits(p2))
    outs = (block.reshape(-1).view(complex).reshape(m, j), np.empty((j, j), complex),
            np.empty((j, j)))
    for want, have in zip(expected["cellfree"], cellfree_sinr_components(into, block[0], outs)):
        assert np.array_equal(bits(want), bits(have))


def test_cellfree_zero_gain_raises_with_out():
    gains = np.array([[1e-3 + 1e-3j, 2e-3j], [0.0, 0.0]])
    p2 = np.abs(gains) ** 2
    out = (np.empty((2, 2), complex), np.empty((2, 2), complex), np.empty((2, 2)))
    for kwargs in ({}, {"out": out}):
        with pytest.raises(ValidationError, match="a RAP has zero gain to every UE"):
            cellfree_sinr_components(gains, p2, **kwargs)


@pytest.mark.parametrize("mode", ASSOCIATION_MODES)
def test_drops_allocate_at_most_one_complex_array(monkeypatch, mode):
    """After the first drop of a sweep, no drop's allocations peak above M*J*16
    bytes of its largest M; the smaller Ms run in views of its buffers."""
    peaks = []
    drop = sweeps._throughput_drop

    def measured(cfg, drop_seed, streams, buffers):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = drop(cfg, drop_seed, streams, buffers)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(sweeps, "_throughput_drop", measured)
    for m_values in ([256], [64, 256, 128]):
        peaks.clear()
        cfg = config_from_dict({"sweep": {"m_values": m_values, "association_mode": mode},
                                "monte_carlo_drops": 4, "budget_w": 1e5})
        tracemalloc.start()
        try:
            sweeps.run_throughput_sweep(cfg)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4 * len(m_values)
        assert max(peaks[1:]) <= 256 * 128 * 16, (m_values, peaks)


def test_declared_drop_layer_metrics_name_fwcsim_functions():
    """Every function of a layer that the benchmark declares a metric for is
    one that bench/layertrace.py wraps: a function of the layer module, or a
    method through its METHOD_TARGETS. Exactly four declared names are stale
    until the benchmark declares today's names; one more fails here."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", BENCHMARK.parent / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    names = {metric["name"].rsplit(".", 1)[0]
             for metric in json.loads(BENCHMARK.read_text())["per_layer"]}
    functions = {name for name in names
                 if name.count(".") == 1 and name.split(".")[0] in layertrace.LAYERS}
    assert {"geometry.distance_matrix", "tables.write_csv", "config.load_config"} <= functions

    def wrapped(name):  # found as layertrace.install() finds its targets
        found = layertrace._resolve(name)
        if found is not None and found[2].__module__ == f"fwcsim.{name.split('.')[0]}":
            return True
        method = layertrace.METHOD_TARGETS.get(name)
        return method is not None and layertrace._resolve(method) is not None

    assert {name for name in functions if not wrapped(name)} == {
        "beamform.array_factor_pattern", "beamform.peak_direction",
        "optics.dispersion_fading_db", "power.system_power",
    }


def m_major_drop(cfg, m, j, drop_seed):
    """One drop as the M-major loop computed it, from fresh generators for this
    (seed, M): the layout, association and UDN sums written out with the
    numpy calls they were first written with."""
    rng = np.random.default_rng([drop_seed, LAYOUT_RNG_STREAM])
    xs = rng.uniform(0.0, cfg.scenario.area_width_m, size=m + j)
    ys = rng.uniform(0.0, cfg.scenario.area_height_m, size=m + j)
    xy = np.column_stack([xs, ys])
    dist = distance_matrix(xy[:m], xy[m:])
    serve = np.zeros((m, j), dtype=bool)
    if cfg.sweep.association_mode == "ue_nearest":
        serve[np.argmin(dist, axis=0), np.arange(j)] = True
        active = serve.any(axis=1)
    else:
        serve[np.arange(m), np.argmin(dist, axis=1)] = True
        active = np.ones(m, dtype=bool)
    gains = reference_gains(dist, cfg.channel, drop_seed)
    p2 = np.abs(gains) ** 2
    udn = (np.where(serve, p2, 0.0).sum(axis=0),
           np.where(active[:, None] & ~serve, p2, 0.0).sum(axis=0))
    return {"udn": udn, "cellfree": cellfree_sinr_components(gains, p2)}


def m_major_sweep(cfg):
    """The throughput sweep's rows and solver record as the M-major loop made
    them: M values outside, drops inside, every drop stacked per (arch, M)."""
    radio = cfg.scheme_params
    noise_w = cfg.channel.noise_power_w(radio.wireless_bandwidth_hz)
    drops = cfg.monte_carlo_drops
    fiber_km = fiber_axis([cfg.fiber.length_km])
    fh_snr_db = {s: fronthaul_snr_db(s, radio, cfg.fiber, fiber_km)[0] for s in cfg.schemes}
    p_tx, feasible = {}, {}
    for s in cfg.schemes:
        for m in cfg.sweep.m_values:
            (p_tx[(s, m)],), (feasible[(s, m)],) = solve_tx_power(
                s, radio, m, cfg.fiber, cfg.budget_w, cfg.power, fiber_km)
    if not any(feasible.values()):
        raise InfeasibleBudgetError("no feasible point")
    caps = {
        s: bbof_per_rap_cap_bps(radio.fiber_bit_rate_bps, cfg.digitization_bits_per_sample_pair)
        if s is Scheme.BBOF else None for s in cfg.schemes
    }
    rates, j_of_m = {}, {}
    for m in cfg.sweep.m_values:
        j = max(1, round(0.5 * m))
        j_of_m[m] = j
        drop_components = [m_major_drop(cfg, m, j, cfg.base_seed + i) for i in range(drops)]
        for arch in ("udn", "cellfree"):
            signal = np.stack([comps[arch][0] for comps in drop_components])
            interference = np.stack([comps[arch][1] for comps in drop_components])
            for s in cfg.schemes:
                sinr = sinr_from_components(signal, interference, p_tx[(s, m)], noise_w)
                rates[(arch, s, m)] = sum_throughput(
                    combine_fronthaul_noise(sinr, db_to_linear(fh_snr_db[s])),
                    radio.wireless_bandwidth_hz, m, cfg.overhead, per_rap_cap_bps=caps[s],
                )
    rows = []
    for arch in ("udn", "cellfree"):
        for s in cfg.schemes:
            for m in cfg.sweep.m_values:
                per_drop = rates[(arch, s, m)]
                ci95 = (float(1.96 * per_drop.std(ddof=1) / math.sqrt(drops))
                        if drops > 1 else 0.0)
                rows.append((arch, s.value, m, j_of_m[m], drops, p_tx[(s, m)],
                             float(per_drop.mean()), ci95))
    return rows, p_tx


def exact(rows):
    """Rows with every float replaced by its bits, so that equality is bitwise."""
    return [tuple(bits(v).item() if isinstance(v, float) else v for v in row) for row in rows]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.just(1), st.integers(2, 40)), min_size=1, max_size=4,
                unique=True),
       st.integers(1, 5), st.sampled_from(ASSOCIATION_MODES),
       st.floats(2.0, 5.0, exclude_min=True),
       st.tuples(st.floats(10.0, 3000.0), st.floats(10.0, 3000.0)),
       st.sampled_from([2100.0, 1e5]), st.integers(0, 2**32 - 1))
def test_seed_major_sweep_matches_m_major_loop(m_values, drops, mode, exponent, sides,
                                               budget, seed):
    cfg = config_from_dict({
        "sweep": {"m_values": m_values, "association_mode": mode},
        "channel": {"pathloss_exponent": exponent},
        "scenario": {"area_width_m": sides[0], "area_height_m": sides[1]},
        "budget_w": budget, "monte_carlo_drops": drops, "base_seed": seed,
    })
    try:
        want, p_tx = m_major_sweep(cfg)
    except InfeasibleBudgetError:
        with pytest.raises(InfeasibleBudgetError):
            sweeps.run_throughput_sweep(cfg)
        return
    table = sweeps.run_throughput_sweep(cfg)
    assert exact(table.rows) == exact(want)
    solver = table.metadata["solver"]
    assert all(solver[s.value][str(m)]["p_tx_w"] == p for (s, m), p in p_tx.items())


def test_sweep_builds_two_generators_per_seed(monkeypatch):
    """One layout and one channel generator per drop seed, shared by every M."""
    built = []
    default_rng = np.random.default_rng

    def counted(seed):
        built.append(tuple(seed))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    cfg = config_from_dict({"sweep": {"m_values": [12, 4, 8]}, "monte_carlo_drops": 4})
    sweeps.run_throughput_sweep(cfg)
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.monte_carlo_drops)
    assert sorted(built) == sorted(
        (seed, stream) for seed in seeds for stream in (LAYOUT_RNG_STREAM, CHANNEL_RNG_STREAM)
    )
