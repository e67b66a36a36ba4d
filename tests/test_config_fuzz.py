"""Config fuzz: random JSON values in any settable key never crash the CLI.

Every subcommand must exit 0, 2, 3 or 4. A failure prints exactly one line
and no traceback; a success writes a CSV without NaN and a strict-JSON meta.
Grids stay tiny (numbers are drawn from a small fixed set, lists hold at
most three items) so each example runs in milliseconds: the size bounds
(README, "Size bounds") still admit grids far too large for a fuzz example.
The size fuzz at the end draws the size keys themselves, small or huge, and
runs them in a child under an address-space limit.
"""
import json
import math
import subprocess
import sys

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


# Size fuzz: each config draws its subcommand's size keys small (at most 64
# steps or items), or one of them huge, the other values cheap. A huge size
# always passes one of the size bounds (README, "Size bounds"), so it must exit
# 2 before allocating. Counts reach 10^9 from just past what the bounds admit
# with every other key at 1: 2^25 drops of one UE fill the 2^30-byte components
# bound, and 10^6 band points or angles the 2,000,000-row bound. Planning lists
# are written out in full, so their lengths stay near the smallest the row
# bound rejects: (2 + carriers) * lengths rows with the three default schemes.
HUGE = {
    "throughput-sweep": {"m_values": (10**6, 10**9), "monte_carlo_drops": (2**25 + 1, 10**9)},
    "beam-pattern": {"array_elements": (10**6, 10**9), "num_band_points": (10**6 + 1, 10**9),
                     "theta_grid_deg": (10**6 + 1, 10**9)},
    "planning": {"fiber_km": (7 * 10**5, 10**6), "frequencies_hz": (2 * 10**6, 21 * 10**5)},
}
# A drawn size as its key's value; theta_grid_deg is drawn as its steps over 180 degrees.
SIZE_VALUES = {
    "m_values": lambda n: [n],
    "monte_carlo_drops": lambda n: n,
    "array_elements": lambda n: n,
    "num_band_points": lambda n: n,
    "theta_grid_deg": lambda n: [-90.0, 90.0, 180.0 / n],
    "fiber_km": lambda n: [0] * n,
    "frequencies_hz": lambda n: [1e10] * n,
}
SMALL_MAX = 64
AS_LIMIT_BYTES = 3 * 2**29  # 1.5 GiB, the address-space limit of the CI size probes
SIZE_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from fwcsim.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


@st.composite
def sizes(draw, kind):
    """{key: size} over the size keys of ``kind``, at most one of them huge."""
    huge = draw(st.sampled_from([None, *HUGE[kind]]))
    return {key: draw(st.integers(*bounds) if key == huge else st.integers(1, SMALL_MAX))
            for key, bounds in HUGE[kind].items()}


def config_text(sizes: dict) -> str:
    """The JSON text of a config with the drawn sizes, every other key at its default."""
    config = {"sweep": {}}
    for key, n in sizes.items():
        (config if key == "monte_carlo_drops" else config["sweep"])[key] = SIZE_VALUES[key](n)
    return json.dumps(config, separators=(",", ":"))


# A batch: three throughput and three beam configs, which exit or run in
# milliseconds, and one planning config, whose huge lists take half a second to
# read, for one of the two planning subcommands.
size_batches = st.tuples(
    st.lists(sizes("throughput-sweep"), min_size=3, max_size=3),
    st.lists(sizes("beam-pattern"), min_size=3, max_size=3),
    st.sampled_from(["dispersion-sweep", "power-sweep"]), sizes("planning"),
).map(lambda parts: [("throughput-sweep", n) for n in parts[0]]
      + [("beam-pattern", n) for n in parts[1]] + [parts[2:]])


@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(size_batches)
def test_random_sizes_exit_cleanly_under_an_address_space_limit(tmp_path_factory, batch):
    """One child per batch runs main on each case under RLIMIT_AS, so a size
    that slips past the bounds fails the test instead of filling memory."""
    tmp = tmp_path_factory.mktemp("sizes")
    argvs = []
    for i, (command, drawn) in enumerate(batch):
        cfg = tmp / f"{i}.json"
        cfg.write_text(config_text(drawn))
        argvs.append([command, "--config", str(cfg), "--out", str(tmp / f"{i}.csv")])
    child = subprocess.run(
        [sys.executable, "-c", SIZE_CHILD.format(limit=AS_LIMIT_BYTES)],
        input=json.dumps(argvs), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    for (command, drawn), (code, err) in zip(batch, json.loads(child.stdout)):
        case = (command, drawn, err)
        assert code in (0, 2, 3, 4), case
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err, case
        if any(n > SMALL_MAX for n in drawn.values()):
            assert code == 2, case
