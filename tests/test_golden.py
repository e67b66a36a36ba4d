"""Byte-golden CSVs: the default config's outputs are pinned by sha256.

Refactors must leave these digests unchanged; a model change that moves
them updates the table below and says why.
"""
import hashlib
import json

import pytest

from fwcsim.cli import main

GOLDEN = {
    "dispersion-sweep": ((), {
        "dispersion.csv": "66f125719bcda80239056188943440be4ffc437b04827d324bd2a37eebe63a06",
    }),
    "power-sweep": ((), {
        "power.csv": "6e9c38c12893cd43136bd65f97a3043e305f373305127dee0033c1b5305a5fc6",
        "power_crossovers.csv":
            "69f7ad421941ebac40eda5c6c0df120bd8f9dec09ba7c653f7bde2ec6f69333b",
    }),
    "beam-pattern": ((), {
        "beam.csv": "7a45c24a681f4860a3962441253fc7918fbc75c13378b268e167ddb070b8a593",
    }),
    "throughput-sweep": (("--drops", "5"), {
        "throughput.csv": "28ea2affe48dc636fcb9d635ba4f3702eb637e2e6287d2ba7575e8c12c70a868",
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


def test_feasible_ue_nearest_throughput_bytes_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FEASIBLE_UE_NEAREST))
    out = tmp_path / "throughput.csv"
    args = ["--config", str(cfg), "--out", str(out), "--drops", "5", "--workers", "2"]
    assert main(["throughput-sweep", *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FEASIBLE_UE_NEAREST_DIGEST
