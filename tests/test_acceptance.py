"""Acceptance suite: one test per release criterion, each printing a verdict
line. Run with ``pytest tests/test_acceptance.py -s`` to see every line."""
import dataclasses
import json
import math
import subprocess
import sys
import time

import numpy as np

from fwcsim import sweeps
from fwcsim.beamform import ArrayGeometry, peak_directions, phase_only_weights, ttd_weights
from fwcsim.config import ExperimentConfig
from fwcsim.geometry import Area, distance_matrix, generate_layout, udn_association
from fwcsim.optics import (
    FiberParams,
    Scheme,
    SchemeParams,
    fading_db_over,
    fiber_axis,
)
from fwcsim.power import PowerParams, crossover_length, solve_tx_power
from fwcsim.sweeps import run_throughput_sweep
from fwcsim.units import SPEED_OF_LIGHT_M_S
from fwcsim.wireless import (
    ChannelModel, cellfree_sinr_components, draw_channels, sinr_from_components,
)

from test_beamform import array_factor, brute_force_af
from test_power import power_at
from test_wireless import brute_force_cellfree

FIBER = FiberParams()
PARAMS = PowerParams()


def report(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def unimodal(seq):
    peak = seq.index(max(seq))
    rising = all(seq[i] <= seq[i + 1] for i in range(peak))
    falling = all(seq[i] >= seq[i + 1] for i in range(peak, len(seq) - 1))
    return rising and falling


def test_criterion_1_recovery_lengths():
    """The recovery lengths are the default dispersion sweep's 30 GHz RFoF
    local minima below 1 dB (its grid has 0.25 km steps)."""
    start = time.perf_counter()
    curve = [(r[2], r[3]) for r in sweeps.run_dispersion_sweep(ExperimentConfig()).rows
             if r[:2] == ("rfof", 30e9)]
    got = [km for (_, a), (km, b), (_, c) in zip(curve, curve[1:], curve[2:])
           if b < 1.0 and b < a and b <= c][:3]
    errors = [abs(v - t) / t for v, t in zip(got, (8.0, 16.0, 24.0))]
    elapsed = time.perf_counter() - start
    ok = len(got) == 3 and all(e < 0.02 for e in errors) and elapsed < 1.0
    report(1, "dispersion recovery lengths", ok,
           f"lengths={[round(v, 3) for v in got]} km, "
           f"max err {max(errors, default=math.inf):.3%}, {elapsed:.3f}s")


def test_criterion_2_loss_deltas():
    start = time.perf_counter()
    deltas = {}
    for f in (10e9, 20e9, 30e9):
        at_1, at_4 = fading_db_over(FIBER, f, fiber_axis([1.0, 4.0]))
        deltas[f] = at_4 - at_1
    elapsed = time.perf_counter() - start
    ok = (
        deltas[10e9] < deltas[20e9] < deltas[30e9]
        and deltas[10e9] <= 0.5
        and 1.5 <= deltas[20e9] <= 3.5
        and deltas[30e9] >= 25.0
        and elapsed < 1.0
    )
    report(2, "dispersion loss deltas 1->4 km", ok,
           f"10/20/30 GHz = {deltas[10e9]:.3f}/{deltas[20e9]:.3f}/{deltas[30e9]:.2f} dB, "
           f"{elapsed:.3f}s")


def test_criterion_3_bbof_invariance_ifof_monotonic():
    start = time.perf_counter()
    grid = np.arange(0.0, 25.01, 0.25)
    radio = SchemeParams()
    bbof_totals = []
    ifof_totals = []
    for length in grid:
        fib = dataclasses.replace(FIBER, length_km=float(length))
        bbof_totals.append(power_at(Scheme.BBOF, radio, 10, 1.0, fib, PARAMS)[-1])
        ifof_totals.append(power_at(Scheme.IFOF, radio, 10, 1.0, fib, PARAMS)[-1])
    # identical floats have exactly zero variance; np.var would inject
    # mean-rounding noise of order (total * eps)^2
    variance = 0.0 if len(set(bbof_totals)) == 1 else float(np.var(bbof_totals))
    increasing = all(b > a for a, b in zip(ifof_totals, ifof_totals[1:]))
    elapsed = time.perf_counter() - start
    ok = variance == 0.0 and increasing and elapsed < 1.0
    report(3, "BBoF invariance / IFoF monotonicity", ok,
           f"var={variance}, strictly increasing={increasing}, {elapsed:.3f}s")


def test_criterion_4_crossover_reproduction():
    start = time.perf_counter()
    c10, c20 = (
        crossover_length(Scheme.RFOF, Scheme.BBOF, SchemeParams(rf_carrier_hz=f_hz), FIBER, 1,
                         1.0, (0.5, 25.0), PARAMS)
        for f_hz in (10e9, 20e9)
    )
    elapsed = time.perf_counter() - start
    ok = (
        c10 is not None and c20 is not None
        and 10.0 <= c10 <= 17.0
        and 4.0 <= c20 <= 8.0
        and c20 < c10
        and elapsed < 5.0
    )
    report(4, "RFoF/BBoF crossover lengths", ok,
           f"10 GHz -> {c10:.2f} km, 20 GHz -> {c20:.2f} km, {elapsed:.3f}s")


def test_criterion_5_throughput_shape():
    start = time.perf_counter()
    cfg = ExperimentConfig()  # M in {16..256}, J=0.5M, 2100 W, 19 km, 20 GHz, 100 drops
    assert cfg.sweep.m_values == (16, 32, 64, 128, 256)
    assert cfg.budget_w == 2100.0 and cfg.fiber.length_km == 19.0
    assert cfg.scheme_params.rf_carrier_hz == 20e9 and cfg.monte_carlo_drops == 100
    table = run_throughput_sweep(cfg)
    elapsed = time.perf_counter() - start
    rows = {(r[0], r[1], r[2]): r for r in table.rows}
    ms = list(cfg.sweep.m_values)

    failures = []
    # (a) unimodality of every curve
    for arch in ("udn", "cellfree"):
        for scheme in ("bbof", "ifof", "rfof"):
            seq = [rows[(arch, scheme, m)][6] for m in ms]
            if not unimodal(seq):
                failures.append(f"(a) {arch}/{scheme} not unimodal {seq}")
    # (b) cell-free >= UDN for analog schemes, CI separation at M >= 64
    for scheme in ("ifof", "rfof"):
        for m in ms:
            cf = rows[("cellfree", scheme, m)]
            ud = rows[("udn", scheme, m)]
            if cf[6] < ud[6]:
                failures.append(f"(b) cellfree<udn for {scheme} M={m}")
            if m >= 64 and not (cf[6] - cf[7] > ud[6] + ud[7]):
                failures.append(f"(b) CI overlap for {scheme} M={m}")
    # (c) analog schemes beat BBoF at M >= 64; RFoF-BBoF gap non-decreasing
    for arch in ("udn", "cellfree"):
        for scheme in ("ifof", "rfof"):
            for m in (64, 128, 256):
                if not rows[(arch, scheme, m)][6] > rows[(arch, "bbof", m)][6]:
                    failures.append(f"(c) {scheme}<=bbof {arch} M={m}")
        gaps = [rows[(arch, "rfof", m)][6] - rows[(arch, "bbof", m)][6] for m in ms]
        if not all(gaps[i + 1] >= gaps[i] for i in range(len(gaps) - 1)):
            failures.append(f"(c) gap not monotone {arch}: {[round(g/1e9,3) for g in gaps]}")
    ok = not failures and elapsed < 300.0
    report(5, "case-study throughput shape", ok,
           f"{'; '.join(failures) if failures else 'a/b/c hold'}, {elapsed:.1f}s")


def test_criterion_6_beam_squint():
    start = time.perf_counter()
    f0 = 10e9
    geom = ArrayGeometry.ula(8, SPEED_OF_LIGHT_M_S / f0 / 2.0, f0, band_hz=(f0, 2 * f0))
    theta0 = math.radians(30.0)
    po = phase_only_weights(geom, theta0)
    peak = math.degrees(peak_directions(geom, (po,), [2 * f0], 0.0, math.pi / 2)[0][0])
    squint_ok = abs(peak - 14.48) <= 0.011
    ttd = ttd_weights(geom, theta0)
    ttd_peaks = [
        math.degrees(peak_directions(geom, (ttd,), [float(f)], 0.0, math.pi / 2)[0][0])
        for f in np.linspace(f0, 2 * f0, 9)
    ]
    ttd_ok = all(abs(p - 30.0) <= 0.011 for p in ttd_peaks)
    elapsed = time.perf_counter() - start
    ok = squint_ok and ttd_ok and elapsed < 10.0
    report(6, "beam squint / TTD hold", ok,
           f"phase-only peak {peak:.2f} deg, TTD spread "
           f"{max(ttd_peaks)-min(ttd_peaks):.3f} deg, {elapsed:.2f}s")


def test_criterion_7_oracle_equivalences():
    start = time.perf_counter()
    model = ChannelModel()
    noise_w = model.noise_power_w(10e6)
    # cell-free vs explicit transmit-vector evaluation
    gains = draw_channels(distance_matrix(*generate_layout(Area(), 8, 4, 2024)), model, 2024)
    got = sinr_from_components(*cellfree_sinr_components(gains, np.abs(gains) ** 2), 0.8,
                               noise_w)
    want = brute_force_cellfree(gains, 0.8, noise_w)
    cf_err = max(abs(a - b) / b for a, b in zip(got, want))
    # array factor vs direct summation
    f0 = 10e9
    geom = ArrayGeometry.ula(8, SPEED_OF_LIGHT_M_S / f0 / 2.0, f0, band_hz=(f0, 2 * f0))
    rng = np.random.default_rng(99)
    af_err = 0.0
    from fwcsim.beamform import BeamformerSpec

    for _ in range(50):
        spec = BeamformerSpec(
            tuple(complex(a, b) for a, b in rng.normal(size=(8, 2))),
            tuple(float(d) for d in rng.uniform(0, 1e-9, size=8)),
        )
        f = float(rng.uniform(f0, 2 * f0))
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        af_err = max(
            af_err, abs(array_factor(geom, spec, f, theta) - brute_force_af(geom, spec, f, theta))
        )
    # association vs exhaustive search on 10^3 random layouts
    assoc_ok = True
    for seed in range(1000):
        dist = distance_matrix(*generate_layout(Area(), 8, 4, seed))
        serve = udn_association(dist, "ue_nearest")
        ues, raps = np.nonzero(serve.T)  # one serving RAP per UE, in UE order
        if ues.tolist() != list(range(4)) or (dist[raps, ues] != dist.min(axis=0)).any():
            assoc_ok = False
    elapsed = time.perf_counter() - start
    ok = cf_err < 1e-9 and af_err < 1e-12 * 8 and assoc_ok and elapsed < 30.0
    report(7, "oracle equivalences", ok,
           f"cellfree rel err {cf_err:.2e}, AF abs err {af_err:.2e}, "
           f"association exhaustive ok={assoc_ok}, {elapsed:.1f}s")


def test_criterion_8_solver_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst, infeasible = 0.0, 0
    schemes = (Scheme.BBOF, Scheme.IFOF, Scheme.RFOF)
    radio = SchemeParams()
    for _ in range(1000):
        scheme = schemes[int(rng.integers(0, 3))]
        m = int(rng.integers(1, 300))
        fiber = dataclasses.replace(FIBER, length_km=float(rng.uniform(0.0, 8.0)))
        fixed = power_at(scheme, radio, m, 0.0, fiber, PARAMS)[-1]
        budget = fixed + float(rng.uniform(0.0, 10000.0))
        (p,), (feasible,) = solve_tx_power(scheme, radio, m, fiber, budget, PARAMS,
                                           fiber_axis([fiber.length_km]))
        total = power_at(scheme, radio, m, p, fiber, PARAMS)[-1]
        worst = max(worst, abs(total - budget))
        infeasible += not feasible
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and not infeasible and elapsed < 5.0
    report(8, "solver round trip", ok, f"worst |total-budget| = {worst:.2e} W, "
           f"{infeasible} infeasible, {elapsed:.2f}s")


def test_criterion_9_bitwise_determinism(tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sweep": {"m_values": [8, 16]},
        "monte_carlo_drops": 4,
    }))
    outputs = []
    for name in ("r1.csv", "r2.csv", "r3.csv"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "fwcsim.cli", "throughput-sweep",
               "--config", str(cfg_path), "--out", str(out), "--seed", "11"]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - start
    report(9, "bit-identical sweep output", identical and True,
           f"3 runs identical={identical}, {elapsed:.1f}s")


def test_criterion_10_shorter_fiber_favours_rfof(monkeypatch):
    """The paper's "shorter fiber length" half of the headline: the same 20
    drops, reduced at 1, 3, 5 and 10 km of fiber."""
    start = time.perf_counter()
    cfg = dataclasses.replace(ExperimentConfig(), monte_carlo_drops=20)
    # No fiber value enters the drops, so every length reduces the same ones.
    shared = sweeps._drop_components(cfg, sweeps._ue_counts(cfg.sweep.m_values))
    monkeypatch.setattr(sweeps, "_drop_components", lambda *args: shared)
    rows, feasible = {}, {}
    for km in (1.0, 3.0, 5.0, 10.0):
        table = run_throughput_sweep(
            dataclasses.replace(cfg, fiber=dataclasses.replace(cfg.fiber, length_km=km)))
        rows.update({(km, r[0], r[1], r[2]): r[6] for r in table.rows})
        feasible.update({(km, s, int(m)): point["feasible"]
                         for s, per_m in table.metadata["solver"].items()
                         for m, point in per_m.items()})
    elapsed = time.perf_counter() - start
    failures = []
    for arch in ("udn", "cellfree"):
        # (a) RFoF leads on short fiber at every M >= 64
        for km in (1.0, 3.0):
            for m in (64, 128, 256):
                rfof, ifof, bbof = (rows[(km, arch, s, m)] for s in ("rfof", "ifof", "bbof"))
                if not (rfof >= ifof and rfof > bbof):
                    failures.append(f"(a) {arch} {km} km M={m}")
        # (b) the M = 256 lead over IFoF shrinks as the fiber grows
        gaps = [rows[(km, arch, "rfof", 256)] - rows[(km, arch, "ifof", 256)]
                for km in (1.0, 3.0, 5.0)]
        if not gaps[0] > gaps[1] > gaps[2]:
            failures.append(f"(b) {arch} gaps {[round(g / 1e9, 3) for g in gaps]} Gb/s")
        # (c) at 10 km RFoF trails IFoF wherever it can be powered
        for m in cfg.sweep.m_values:
            if feasible[(10.0, "rfof", m)] and not (
                    rows[(10.0, arch, "rfof", m)] < rows[(10.0, arch, "ifof", m)]):
                failures.append(f"(c) {arch} 10 km M={m}")
    ok = not failures and elapsed < 3.0
    report(10, "shorter fiber favours RFoF", ok,
           f"{'; '.join(failures) if failures else 'a/b/c hold'}, {elapsed:.2f}s")
