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
            "fe7d6a20ebad4cd0b3dd21737bd475a30089510a7700e091fa839bbee5026d28",
    }),
    "power-sweep": ((), {
        "power.csv": "6e9c38c12893cd43136bd65f97a3043e305f373305127dee0033c1b5305a5fc6",
        "power_crossovers.csv":
            "69f7ad421941ebac40eda5c6c0df120bd8f9dec09ba7c653f7bde2ec6f69333b",
        "power.meta.json": "fe6af067b31010988617e5ae20961b64461ea46b5c70b756e4956df510ba95e2",
    }),
    "beam-pattern": ((), {
        "beam.csv": "7a45c24a681f4860a3962441253fc7918fbc75c13378b268e167ddb070b8a593",
        "beam.meta.json": "2ff6bccf201831b7ac961fe29827e6285aa87f06f1383048505084e88e633a92",
    }),
    "throughput-sweep": (("--drops", "5"), {
        "throughput.csv": "28ea2affe48dc636fcb9d635ba4f3702eb637e2e6287d2ba7575e8c12c70a868",
        "throughput.meta.json":
            "eb7589b79300b8dd73192e047f93932a981e4d867f63a019f0e703359b16abee",
    }),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_csv_bytes_pinned(command, tmp_path):
    extra, digests = GOLDEN[command]
    out = tmp_path / next(iter(digests))
    assert main([command, "--out", str(out), *extra]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# Every scheme feasible, ue_nearest association: the combining and rate
# path for finite and infinite fronthaul SNRs.
FEASIBLE_UE_NEAREST = {
    "sweep": {"association_mode": "ue_nearest", "m_values": [16, 64]},
    "budget_w": 1e5,
}
FEASIBLE_UE_NEAREST_DIGEST = "9d801268c75e012d2150a0fedb70e831bf56954d90d6ab06e643c337e2ecf2ed"
FEASIBLE_UE_NEAREST_META_DIGEST = (
    "1768aaa0bc0ad8f3634acace57332517402312609cdfc0d7705f1f72566553ae"
)


def test_feasible_ue_nearest_throughput_bytes_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FEASIBLE_UE_NEAREST))
    out = tmp_path / "throughput.csv"
    args = ["--config", str(cfg), "--out", str(out), "--drops", "5"]
    assert main(["throughput-sweep", *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FEASIBLE_UE_NEAREST_DIGEST
    meta = out.with_suffix(".meta.json").read_bytes()
    assert hashlib.sha256(meta).hexdigest() == FEASIBLE_UE_NEAREST_META_DIGEST


# Unsorted M values with M = 1 and odd M, over a wide, shallow area: every M
# of a drop seed reads its layout and channel draws from that seed's streams.
UNSORTED_WIDE = {
    "sweep": {"m_values": [24, 7, 1, 64, 16]},
    "scenario": {"area_width_m": 1500.0, "area_height_m": 400.0},
}
UNSORTED_WIDE_DIGEST = "188d6a30cffe342f9f627526ea5b982e9698b653fd57b8c80201e795e594c82d"
UNSORTED_WIDE_META_DIGEST = "8492209f9b63f8ec70d40b6c1ce9168f6ddcb3cf99ef80f7be25894b1ffe1c03"


def test_unsorted_wide_area_throughput_bytes_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(UNSORTED_WIDE))
    out = tmp_path / "throughput.csv"
    args = ["--config", str(cfg), "--out", str(out), "--drops", "5"]
    assert main(["throughput-sweep", *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == UNSORTED_WIDE_DIGEST
    meta = out.with_suffix(".meta.json").read_bytes()
    assert hashlib.sha256(meta).hexdigest() == UNSORTED_WIDE_META_DIGEST


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
    "7f86f4038371b64a2bc85a53af448852cb03f2bf12be674259f38d4e883bdd3b"
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
        "out.meta.json": "4e39a69a8fa449f7d2751d763189b7aed33243f6817ad13e8e6e155dd2c3c65e",
    },
    "power-sweep": {  # the 30 GHz crossover is the int range start, 3
        "out.csv": "8cdf98cda3ef92ba30c03c110567d828c45e8eecbe61cf3eca63d71ca0db87fc",
        "out.meta.json": "edde195b14f38098867856abd1ddcc53062d001bd4061824320a1ef6cd6d9fb5",
        "out_crossovers.csv":
            "95faaac95be6c823e5471027a7de0872f2e2b234179254429b9e60c05483c624",
    },
    "beam-pattern": {
        "out.csv": "066ca09168789962bdef13dda28f165167034a44ba0265bce8d95d5778850ece",
        "out.meta.json": "974b70b7b6f5c0a6d817be9cee330e00295d3294e439c1b0d9c66e236b6f1140",
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


# The default fiber at its 20 GHz dispersion null: the RFoF fronthaul SNR is
# -inf, the one meta value spelled "-inf" (BBoF's "inf" sits beside it).
NULL_LENGTH_THROUGHPUT = {
    "fiber": {"length_km": 9.13278785218495},
    "sweep": {"m_values": [16, 64]},
}
NULL_LENGTH_THROUGHPUT_DIGEST = "0b1c535f2eabff25508e5e84ce4041debcd5b2493998d2bfd321aed31d3ffb88"
NULL_LENGTH_THROUGHPUT_META_DIGEST = (
    "248f4d921ed099e0df9c0ed8cf7ec1bfcbc9417d019ac295a2cf253aa66d230f"
)


def test_null_length_throughput_bytes_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NULL_LENGTH_THROUGHPUT))
    out = tmp_path / "throughput.csv"
    args = ["--config", str(cfg), "--out", str(out), "--drops", "5"]
    assert main(["throughput-sweep", *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NULL_LENGTH_THROUGHPUT_DIGEST
    meta = out.with_suffix(".meta.json").read_bytes()
    snr = json.loads(meta)["fronthaul_snr_db"]
    assert (snr["bbof"], snr["rfof"]) == ("inf", "-inf") and isinstance(snr["ifof"], float)
    assert hashlib.sha256(meta).hexdigest() == NULL_LENGTH_THROUGHPUT_META_DIGEST
