"""Byte-golden outputs: the CSVs and meta sidecars of fixed runs are pinned by sha256.

Refactors must leave these digests unchanged; a model change that moves
them updates the table below and says why. The meta digests also pin
``resolved()`` and ``config_hash``, which every meta sidecar echoes.
"""
import hashlib
import json

import pytest

from fwcsim.cli import main

GOLDEN = {
    "dispersion-sweep": ((), {
        "dispersion.csv": "66f125719bcda80239056188943440be4ffc437b04827d324bd2a37eebe63a06",
        "dispersion.meta.json":
            "55a7cb4b6862398366bde636c63bd64ee260b0a15e687449b800a79402fa1e57",
    }),
    "power-sweep": ((), {
        "power.csv": "6e9c38c12893cd43136bd65f97a3043e305f373305127dee0033c1b5305a5fc6",
        "power_crossovers.csv":
            "69f7ad421941ebac40eda5c6c0df120bd8f9dec09ba7c653f7bde2ec6f69333b",
        "power.meta.json": "20b1d34b243f3d5e246a83679288d10a06e40318e86a2a668d49d95cbc713ce8",
    }),
    "beam-pattern": ((), {
        "beam.csv": "7a45c24a681f4860a3962441253fc7918fbc75c13378b268e167ddb070b8a593",
        "beam.meta.json": "899dfe82db2b88f114d1a7356943fa1df67baed786ebb6f04a8e6d9b3a4012e1",
    }),
    "throughput-sweep": (("--drops", "5"), {
        "throughput.csv": "28ea2affe48dc636fcb9d635ba4f3702eb637e2e6287d2ba7575e8c12c70a868",
        "throughput.meta.json":
            "4e737ec52382e357b67d2feeff0fb56decf221978c16a94539ef77f8e51388b0",
    }),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_csv_bytes_pinned(command, tmp_path):
    extra, digests = GOLDEN[command]
    out = tmp_path / next(iter(digests))
    assert main([command, "--out", str(out), *extra]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# Every scheme feasible, ue_nearest association, two worker threads: the
# combining and rate path for finite and infinite fronthaul SNRs.
FEASIBLE_UE_NEAREST = {
    "sweep": {"association_mode": "ue_nearest", "m_values": [16, 64]},
    "budget_w": 1e5,
}
FEASIBLE_UE_NEAREST_DIGEST = "9d801268c75e012d2150a0fedb70e831bf56954d90d6ab06e643c337e2ecf2ed"
FEASIBLE_UE_NEAREST_META_DIGEST = (
    "ad2ecda951904eaa207773cb4a10270b0e0a4d881cd782e1c954878094c0023f"
)


def test_feasible_ue_nearest_throughput_bytes_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FEASIBLE_UE_NEAREST))
    out = tmp_path / "throughput.csv"
    args = ["--config", str(cfg), "--out", str(out), "--drops", "5", "--workers", "2"]
    assert main(["throughput-sweep", *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FEASIBLE_UE_NEAREST_DIGEST
    meta = out.with_suffix(".meta.json").read_bytes()
    assert hashlib.sha256(meta).hexdigest() == FEASIBLE_UE_NEAREST_META_DIGEST


# Steering to the negative side (the other peak-search window), an explicit
# element spacing and a band wide enough for phase-only steering to squint.
NEGATIVE_STEER_BEAM = {
    "sweep": {
        "steer_theta_deg": -40.0,
        "array_elements": 16,
        "array_spacing_m": 0.012,
        "band_hz": [10e9, 30e9],
        "num_band_points": 4,
        "theta_grid_deg": [-90.0, 90.0, 0.25],
    },
}
NEGATIVE_STEER_BEAM_DIGEST = "202ac0606999236af45f6c595c803dc7bb0b1f5b35284dcfc323010fe8216f32"
NEGATIVE_STEER_BEAM_META_DIGEST = (
    "32dc3fe6532665de112dfb6e7be8cbb5ead5c115b2e6ee0dfbbf9b5ea85432ed"
)


def test_negative_steer_beam_pattern_bytes_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NEGATIVE_STEER_BEAM))
    out = tmp_path / "beam.csv"
    assert main(["beam-pattern", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NEGATIVE_STEER_BEAM_DIGEST
    meta = out.with_suffix(".meta.json").read_bytes()
    assert hashlib.sha256(meta).hexdigest() == NEGATIVE_STEER_BEAM_META_DIGEST


# JSON ints where the schema says float (they must print as ints where the old
# rows kept them: BBoF cu_w sums to 59, p_tx_w stays 1), an int zero length, an
# int carrier, int beam axes, and a length at the first 30 GHz dispersion null.
INT_PLANNING = {
    "power": {"p_bbu_w": 58, "p_eo_w": 1},
    "sweep": {
        "fiber_km": [0, 0.5, 2, 4.0590168231933115, 12.5],
        "frequencies_hz": [10e9, 30000000000],
        "power_p_tx_w": 1,
        "crossover_range_km": [3, 25],
        "steer_theta_deg": 20,
        "band_hz": [10000000000, 20000000000],
        "num_band_points": 3,
        "theta_grid_deg": [-90, 90, 1],
    },
}
INT_PLANNING_DIGESTS = {
    "dispersion-sweep": {
        "out.csv": "a05f6346f560b6024e7640e57e134e86cc54fc949ec7d15111f8c9444ba1e82d",
        "out.meta.json": "254e2067b5e237c99a70518346460e7e2ccd3df81fb15f08363fbd7594bfcaea",
    },
    "power-sweep": {  # the 30 GHz crossover is the int range start, 3
        "out.csv": "8cdf98cda3ef92ba30c03c110567d828c45e8eecbe61cf3eca63d71ca0db87fc",
        "out.meta.json": "7e86185226f56e644593851718b92c7d7a60559d88dd7349057cb9c0f428fa6b",
        "out_crossovers.csv":
            "95faaac95be6c823e5471027a7de0872f2e2b234179254429b9e60c05483c624",
    },
    "beam-pattern": {
        "out.csv": "066ca09168789962bdef13dda28f165167034a44ba0265bce8d95d5778850ece",
        "out.meta.json": "9abe145dcac1de7ecd38d47309b17f5ffac8060be4cf9e61a4014f16411d339c",
    },
}


@pytest.mark.parametrize("command", sorted(INT_PLANNING_DIGESTS))
def test_int_valued_planning_bytes_pinned(command, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(INT_PLANNING))
    digests = INT_PLANNING_DIGESTS[command]
    out = tmp_path / "out.csv"
    null = ("--allow-null",) if command != "beam-pattern" else ()
    assert main([command, "--config", str(cfg), "--out", str(out), *null]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if p.name != "cfg.json"}
    assert got == digests
