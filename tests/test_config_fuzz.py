"""Config fuzz: random JSON values in any settable key never crash the CLI.

Every subcommand must exit 0, 2, 3 or 4. A failure prints exactly one line
and no traceback; a success writes a CSV without NaN and a strict-JSON meta.
Grids stay tiny (numbers are drawn from a small fixed set, lists hold at
most three items) so each example runs in milliseconds: the size bounds
(README, "Size bounds") still admit grids far too large for a fuzz example.
"""
import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from fwcsim.cli import main
from fwcsim.config import ExperimentConfig

BASE = {
    "sweep": {
        "fiber_km": [0.0, 4.0],
        "frequencies_hz": [10e9],
        "m_values": [4],
        "array_elements": 4,
        "num_band_points": 2,
        "theta_grid_deg": [-90.0, 90.0, 30.0],
    },
}
COMMANDS = ("dispersion-sweep", "power-sweep", "throughput-sweep", "beam-pattern")
# Every settable (group, key), and every top-level key (None, key), groups included.
RESOLVED = ExperimentConfig().resolved()
PATHS = sorted(
    [(group, key) for group, value in RESOLVED.items() if isinstance(value, dict)
     for key in value]
) + [(None, key) for key in sorted(RESOLVED)]

LEAVES = st.sampled_from([
    math.nan, math.inf, -math.inf, True, False, None, "", "abc", "bbof", "ue_nearest",
    -1, 0, 1, 2, 8, -1.5, 0.0, 0.25, 2.5, 30.0,
])
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "area_width_m"]), inner, max_size=2),
    ),
    max_leaves=4,
)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(PATHS), VALUES), min_size=1, max_size=2))
def test_random_config_values_exit_cleanly(tmp_path_factory, capsys, edits):
    data = json.loads(json.dumps(BASE))
    for (group, key), value in edits:
        target = data if group is None else data.setdefault(group, {})
        if isinstance(target, dict):  # an earlier edit may have replaced the group
            target[key] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(data))
    for command in COMMANDS:
        out = tmp / f"{command}.csv"
        drops = ["--drops", "2"] if command == "throughput-sweep" else []
        code = main([command, "--config", str(cfg), "--out", str(out), *drops])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (command, data, err)
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err, (command, data, err)
            continue
        cells = {cell for line in out.read_text().splitlines() for cell in line.split(",")}
        assert "nan" not in cells, (command, data)
        meta = json.loads(out.with_suffix(".meta.json").read_text(),
                          parse_constant=_reject_constant)
        assert isinstance(meta, dict)


# Command-line pieces: each subcommand's real options with good and bad values,
# abbreviations, unknown options and a stray word. "{cfg}" is the tiny config
# above, "{tmp}" the example's directory.
ARGV_PIECES = st.sampled_from([
    ("--config", "{cfg}"), ("--config", "{tmp}/missing.json"), ("--config",),
    ("--out", "{tmp}/out.csv"), ("--out", "{tmp}/no/out.csv"), ("--out",),
    ("--seed", "3"), ("--seed", "-1"), ("--seed", "abc"), ("--se", "2"),
    ("--drops", "2"), ("--drops", "0"), ("--drops", "1.5"), ("--dr", "1"),
    ("--allow-null",), ("--allow-null", "yes"), ("--bogus",), ("--bogus", "1"), ("-x",),
    ("extra",),
])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(COMMANDS + (None, "no-such-sweep")),
       st.lists(ARGV_PIECES, max_size=4))
def test_random_argument_lists_exit_cleanly(tmp_path_factory, capsys, monkeypatch, command,
                                             pieces):
    tmp = tmp_path_factory.mktemp("argv")
    monkeypatch.chdir(tmp)  # a default --out lands here
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(BASE))
    argv = [] if command is None else [command]
    argv += [token.format(cfg=cfg, tmp=tmp) for piece in pieces for token in piece]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, err)
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)
