import dataclasses
import importlib
import inspect
import dataclasses
import json
import math
import os
import pkgutil
import subprocess
import sys
import typing

import numpy as np
import pytest

import fwcsim
from fwcsim import config as config_module
from fwcsim import cli, errors, sweeps, tables
from fwcsim.cli import main
from fwcsim.config import (
    ExperimentConfig,
    SweepParams,
    config_from_dict,
    hash_resolved,
    load_config,
)
from fwcsim.errors import InfeasibleBudgetError, NullSentinelError, ValidationError
from fwcsim.geometry import Area
from fwcsim.optics import FiberParams, Scheme, fading_db_over
from fwcsim.power import solve_tx_power
from fwcsim.sweeps import (
    run_beam_pattern,
    run_dispersion_sweep,
    run_power_sweep,
    run_throughput_sweep,
)
from fwcsim.tables import ResultTable
from test_optics import fading_period_km, null_lengths
from test_planning_engine import reference_system_power

SMALL_SWEEP = {
    "sweep": {"m_values": [4, 8], "fiber_km": [0.0, 1.0, 4.0, 19.0]},
    "monte_carlo_drops": 3,
    "base_seed": 5,
}
# One RFoF curve at 1000 dB/km: the 20 GHz null at 9.13... km and, at 5.0 km, a
# compensation past the float range; the first of them on the axis decides.
NULL_THEN_OVERFLOW = {"schemes": ["rfof"], "fiber": {"attenuation_db_per_km": 1000},
                      "sweep": {"frequencies_hz": [20e9], "fiber_km": [9.13278785218495, 5.0]}}


def small_config(**extra):
    data = json.loads(json.dumps(SMALL_SWEEP))
    data.update(extra)
    return config_from_dict(data)


def test_defaults_resolve_completely():
    cfg = ExperimentConfig()
    resolved = cfg.resolved()
    for key in ("scenario", "fiber", "schemes", "scheme_params", "power", "channel",
                "overhead", "sweep", "budget_w", "monte_carlo_drops", "base_seed",
                "digitization_bits_per_sample_pair"):
        assert key in resolved
    assert "workers" not in resolved
    assert resolved["power"]["p_link0_w"] == pytest.approx(0.1834)
    assert resolved["sweep"]["association_mode"] == "rap_nearest"
    assert resolved["scenario"] == {"area_width_m": 1000.0, "area_height_m": 1000.0}
    assert len(hash_resolved(cfg.resolved())) == 12


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        config_from_dict({"schemes": ["bbof"], "budget": 100})
    with pytest.raises(ValidationError):
        config_from_dict({"fiber": {"dispersion": 17}})
    with pytest.raises(ValidationError):
        config_from_dict({"schemes": ["bbof", "xfof"]})


def test_direct_config_is_type_checked():
    with pytest.raises(ValidationError, match="budget_w must be finite"):
        ExperimentConfig(budget_w=math.nan)
    with pytest.raises(ValidationError, match=r"sweep\.m_values\[1\] must be an integer"):
        ExperimentConfig(sweep=SweepParams(m_values=(4, True)))
    with pytest.raises(ValidationError, match=r"scenario\.area_width_m must be finite"):
        ExperimentConfig(scenario=Area(area_width_m=math.inf))
    with pytest.raises(ValidationError, match=r"schemes\[0\] must be one of"):
        ExperimentConfig(schemes=("xfof",))
    assert ExperimentConfig(sweep=SweepParams(array_spacing_m=None)).sweep.array_spacing_m is None


@pytest.mark.parametrize("build, message", [
    (lambda: SweepParams(m_values=("a",)), r"sweep\.m_values\[0\] must be an integer, got 'a'"),
    (lambda: FiberParams(length_km="x"), r"fiber\.length_km must be a number, got 'x'"),
], ids=["SweepParams", "FiberParams"])
def test_a_group_built_in_python_with_a_wrong_type_names_its_key(build, message):
    """A group's own range checks would compare the value and raise TypeError;
    the type check runs first, as for a JSON config."""
    with pytest.raises(ValidationError, match=message):
        build()


def test_cli_walks_the_config_echo_once(tmp_path, monkeypatch):
    """The echo that ``_base_metadata`` builds for the hash is written as it is."""
    walks, walk = [], tables._json_ready

    def counted(value):
        if isinstance(value, (list, tuple)) and len(value) == 101:  # the default fiber grid
            walks.append(value)
        return walk(value)

    monkeypatch.setattr(tables, "_json_ready", counted)
    assert main(["dispersion-sweep", "--out", str(tmp_path / "d.csv")]) == 0
    assert len(walks) == 1


def test_json_values_are_checked_once(monkeypatch):
    seen = []
    check = config_module._check_numbers

    def counted(values, hint, where, indexed):
        seen.append(where)
        return check(values, hint, where, indexed)

    monkeypatch.setattr(config_module, "_check_numbers", counted)
    cfg = config_from_dict({"sweep": {"fiber_km": [0, 1.5]}, "budget_w": 50})
    assert seen.count("sweep.fiber_km") == 1 and seen.count("budget_w") == 1
    assert cfg.sweep.fiber_km == (0, 1.5)
    seen.clear()
    ExperimentConfig(sweep=cfg.sweep)  # a built group has been checked, a default needs none
    assert seen == []
    ExperimentConfig(budget_w=50.5)
    assert seen == ["budget_w"]
    with pytest.raises(ValidationError, match=r"sweep\.fiber_km\[1\] must be finite"):
        config_from_dict({"sweep": {"fiber_km": [0.0, math.inf]}})
    with pytest.raises(ValidationError, match=r"sweep\.fiber_km\[1\] must be finite"):
        SweepParams(fiber_km=[0.0, math.inf])


def bounded_fields():
    """(group key, field name, item annotation, wrap) of each config field whose
    numbers carry a bound; ``wrap`` turns one item into a field value, the
    rest of a list taken from the field's default."""
    for _, key, fields in config_module._GROUPS.values():
        for name, hint, default in fields:
            args = typing.get_args(hint)
            if typing.get_origin(hint) is tuple:
                item, wrap = args[0], (lambda v, rest=default[1:]: [v, *rest])
            else:
                item, wrap = (args[0] if type(None) in args else hint), (lambda v: v)
            if typing.get_origin(item) is typing.Annotated:
                yield key, name, item, wrap


def test_every_declared_default_holds_to_its_annotation():
    """Groups take a value that is its field's declared default unchecked, so
    this is the one check that a default is of its type and within its bound."""
    assert ("overhead", "max_fraction") in {(key, name) for key, name, *_ in bounded_fields()}
    for group, (_, key, fields) in config_module._GROUPS.items():
        for name, hint, default in fields:
            if default is not dataclasses.MISSING:
                held = config_module._checked(default, hint, f"{key}.{name}")
                assert held == default and type(held) is type(default), (group, name)


def bound_edges(bound):
    """(edge, inclusive, outward) of each end of a bound written "> a", ">= a"
    or "in [a, b)"."""
    if bound.startswith(">"):
        return [(float(bound.split()[1]), bound.startswith(">="), -math.inf)]
    low, high = map(float, bound[4:-1].split(","))
    return [(low, bound[3] == "[", -math.inf), (high, bound[-1] == "]", math.inf)]


@pytest.mark.parametrize("key, name, item, wrap", [
    pytest.param(*field, id=f"{field[0]}.{field[1]}".lstrip(".")) for field in bounded_fields()
])
def test_one_step_outside_each_bound_names_its_key(key, name, item, wrap):
    """The number one ulp (an int: one) outside each end of a field's bound fails
    with a message that starts with the field's dotted key and names the bound
    and the value; an inclusive end itself is accepted."""
    base, bound = typing.get_args(item)
    dotted = f"{key}.{name}".lstrip(".")

    def build(value):
        return config_from_dict({key: {name: wrap(value)}} if key else {name: wrap(value)})

    for edge, inclusive, outward in bound_edges(bound):
        if base is int:
            edge, outside = int(edge), int(edge) + (1 if outward > 0 else -1)
        else:
            outside = math.nextafter(edge, outward)
        outside = outside if inclusive else edge
        with pytest.raises(ValidationError) as caught:
            build(outside)
        message = str(caught.value)
        assert message.startswith(dotted) and message.endswith(
            f" must be {bound}, got {outside!r}"), message
        if inclusive:
            build(edge)


@pytest.mark.parametrize("command, data, message", [
    ("dispersion-sweep", {"fiber_km": [0.001 * i for i in range(5000)] + [-1]},
     "sweep.fiber_km[5000] must be >= 0, got -1"),
    ("throughput-sweep", {"m_values": list(range(1, 5001)) + [7]},
     "sweep.m_values[5000] must be distinct, got 7 again"),
    ("beam-pattern", {"theta_grid_deg": [0.0] * 5001},
     "sweep.theta_grid_deg must be a list of 3 items, got [0.0, 0.0,"),
    ("power-sweep", {f"k{i}": 0 for i in range(5000)}, "unknown key(s) ['k0', 'k1', 'k10',"),
], ids=["fiber_km-negative", "m_values-duplicate", "theta_grid-length", "unknown-keys"])
def test_cli_long_axis_error_names_one_item(tmp_path, capsys, command, data, message):
    """A config error in a list of 5,000 items or more is one short line: it names
    the item, and never echoes the whole list."""
    cfg_path = write_cfg(tmp_path, {"sweep": data})
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200 and message in err, err


def bit_rows(table):
    """The rows of ``table`` with each cell as its repr: equal only bit for bit."""
    return [tuple(map(repr, row)) for row in table.rows]


def test_python_config_is_normalised_like_json():
    """A config built in Python, with scheme names and list axes, holds the
    members and tuples a JSON build holds, hashes the same and runs the same.
    (``Scheme`` is a str enum, so ``==`` cannot tell a name from a member.)"""
    sweep = {"m_values": [4, 8], "fiber_km": [0.0, 1.0, 19.0], "frequencies_hz": [10e9, 20e9],
             "num_band_points": 2, "theta_grid_deg": [-90.0, 90.0, 5.0]}
    data = {"schemes": ["bbof", "rfof"], "sweep": sweep, "monte_carlo_drops": 2}
    built = ExperimentConfig(schemes=["bbof", "rfof"], sweep=SweepParams(**sweep),
                             monte_carlo_drops=2)
    read = config_from_dict(json.loads(json.dumps(data)))
    for cfg in (built, read):
        assert [type(s) for s in cfg.schemes] == [Scheme, Scheme]
        assert type(cfg.schemes) is tuple
        assert all(type(getattr(cfg.sweep, key)) is tuple
                   for key, value in sweep.items() if type(value) is list)
    assert hash(built) == hash(read)
    assert hash_resolved(built.resolved()) == hash_resolved(read.resolved())
    for run in (run_dispersion_sweep, run_power_sweep, run_throughput_sweep, run_beam_pattern):
        assert bit_rows(run(built)) == bit_rows(run(read)), run.__name__


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"base_seed": 3, "monte_carlo_drops": 7}))
    cfg = load_config(path, seed=99, drops=2)
    assert cfg.base_seed == 99
    assert cfg.monte_carlo_drops == 2


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_config(path)
    with pytest.raises(ValidationError):
        load_config(tmp_path / "missing.json")


def test_dispersion_sweep_matches_optics():
    cfg = small_config()
    table = run_dispersion_sweep(cfg)
    assert table.columns == ("scheme", "f_hz", "fiber_km", "fading_db")
    for scheme, f_hz, fiber_km, fading in table.rows:
        if scheme == "bbof":
            assert fading == 0.0
        else:
            (want,) = fading_db_over(cfg.fiber, f_hz, np.array([fiber_km], dtype=float))
            assert fading == pytest.approx(want, rel=1e-12)
    ifof_rows = [r for r in table.rows if r[0] == "ifof"]
    assert all(r[1] == 125e6 for r in ifof_rows)


def test_dispersion_sweep_recovery_row():
    l1 = fading_period_km(ExperimentConfig().fiber, 30e9)
    cfg = small_config(sweep={"fiber_km": [l1], "frequencies_hz": [30e9], "m_values": [4]})
    table = run_dispersion_sweep(cfg)
    rfof = [r for r in table.rows if r[0] == "rfof"]
    assert rfof[0][3] <= 1e-9


def test_dispersion_sweep_null_sentinel():
    ln = null_lengths(ExperimentConfig().fiber, 30e9, 1)[0]
    cfg = small_config(sweep={"fiber_km": [ln], "frequencies_hz": [30e9], "m_values": [4]})
    with pytest.raises(NullSentinelError):
        run_dispersion_sweep(cfg)
    table = run_dispersion_sweep(cfg, allow_null=True)
    rfof = [r for r in table.rows if r[0] == "rfof"]
    assert math.isinf(rfof[0][3])


def test_power_sweep_matches_system_power():
    cfg = small_config()
    table = run_power_sweep(cfg)
    m = cfg.sweep.power_num_raps
    p_tx = cfg.sweep.power_p_tx_w
    for scheme, f_rf, fiber_km, p, cu, rap, comp, total in table.rows:
        radio = dataclasses.replace(cfg.scheme_params, rf_carrier_hz=f_rf)
        fib = dataclasses.replace(cfg.fiber, length_km=fiber_km)
        want_cu, want_rap, want_comp, _, want_total = reference_system_power(
            Scheme(scheme), radio, m, p_tx, fib, cfg.power)
        assert total == pytest.approx(want_total, rel=1e-12)
        assert cu == pytest.approx(want_cu)
        assert rap == pytest.approx(want_rap)
        assert comp == pytest.approx(want_comp)
    bbof_totals = {r[7] for r in table.rows if r[0] == "bbof"}
    assert len(bbof_totals) == 1  # constant across fiber length
    crossings = {c["f_rf_hz"]: c["crossover_km"] for c in table.metadata["crossovers"]}
    assert crossings[10e9] > crossings[20e9]


def test_throughput_sweep_structure_and_solver():
    cfg = small_config()
    table = run_throughput_sweep(cfg)
    assert table.columns == (
        "arch", "scheme", "M", "J", "drops", "p_tx_w", "mean_sumrate_bps", "ci95_bps"
    )
    assert len(table.rows) == 2 * 3 * 2  # arch x scheme x M
    for arch, scheme, m, j, drops, p_tx, mean, ci in table.rows:
        assert j == m // 2
        assert drops == 3
        (expected_p,), (feasible,) = solve_tx_power(scheme, cfg.scheme_params, m, cfg.fiber,
                                                    cfg.budget_w, cfg.power,
                                                    np.array([cfg.fiber.length_km], dtype=float))
        assert feasible == True
        assert p_tx == pytest.approx(expected_p, abs=1e-9)
        assert mean > 0.0


def test_throughput_sweep_infeasible_rows_are_zero():
    # budget powers RFoF at M=4 but not BBoF (fixed 1.35*(59+4*14) = 155.25 W)
    cfg = small_config(budget_w=150.0, sweep={"m_values": [4]})
    table = run_throughput_sweep(cfg)
    by_scheme = {(r[0], r[1]): r for r in table.rows}
    assert by_scheme[("udn", "bbof")][5] == 0.0
    assert by_scheme[("udn", "bbof")][6] == 0.0
    assert by_scheme[("udn", "rfof")][6] > 0.0
    assert table.metadata["solver"]["bbof"]["4"]["feasible"] is False


def test_throughput_sweep_all_infeasible_raises():
    cfg = small_config(budget_w=10.0, sweep={"m_values": [4, 8]})
    with pytest.raises(InfeasibleBudgetError):
        run_throughput_sweep(cfg)


def test_throughput_sweep_deterministic():
    cfg = small_config()
    a = run_throughput_sweep(cfg)
    b = run_throughput_sweep(cfg)
    assert a.rows == b.rows


def test_beam_pattern_matches_array_factor():
    from fwcsim.beamform import (
        ArrayGeometry, array_factor_patterns, phase_only_weights, ttd_weights,
    )
    from fwcsim.units import SPEED_OF_LIGHT_M_S

    cfg = small_config(
        sweep={"theta_grid_deg": [-10.0, 40.0, 1.0], "num_band_points": 3, "m_values": [4]}
    )
    table = run_beam_pattern(cfg)
    f_lo = cfg.sweep.band_hz[0]
    spacing = SPEED_OF_LIGHT_M_S / f_lo / 2.0
    geom = ArrayGeometry.ula(cfg.sweep.array_elements, spacing)
    theta0 = math.radians(cfg.sweep.steer_theta_deg)
    specs = {"phase_only": phase_only_weights(geom, theta0, f_lo),
             "ttd": ttd_weights(geom, theta0)}
    rng = np.random.default_rng(0)
    rows = [table.rows[int(i)] for i in rng.integers(0, len(table.rows), size=40)]
    for mode, f_hz, theta_deg, mag, phase in rows:
        af = array_factor_patterns(geom, (specs[mode],), [f_hz], np.radians([theta_deg]))[0][0][0]
        assert mag == pytest.approx(abs(af), rel=1e-12, abs=1e-12)
    ttd_peaks = [p for p in table.metadata["peaks"] if p["mode"] == "ttd"]
    assert all(abs(p["peak_deg"] - 30.0) <= 0.011 for p in ttd_peaks)


def test_csv_format_contract(tmp_path):
    cfg = small_config()
    table = run_dispersion_sweep(cfg)
    out = tmp_path / "disp.csv"
    table.write_csv(out)
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "scheme,f_hz,fiber_km,fading_db"
    assert len(lines) == len(table.rows) + 1
    table.write_meta(out.with_suffix(".meta.json"))
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["config_hash"] == hash_resolved(cfg.resolved())
    assert meta["config"]["power"]["p_link0_w"] == pytest.approx(0.1834)


def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_success_and_outputs(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_SWEEP)
    out = tmp_path / "tp.csv"
    code = main(["throughput-sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.exists() and out.with_suffix(".meta.json").exists()


def test_every_src_function_is_reached_by_a_subcommand(tmp_path):
    """Every function and method written in src/fwcsim runs in the four
    subcommands on the CI's tiny config, or in a dispersion sweep without a
    config (the default fiber grid). Code reached only by tests fails here."""
    tiny = {"sweep": {"fiber_km": [0.0, 19.0], "m_values": [4, 8], "num_band_points": 2,
                      "theta_grid_deg": [-90, 90, 1.0]}, "monte_carlo_drops": 2}
    cfg_path = write_cfg(tmp_path, tiny)
    called = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        for cmd in ("dispersion-sweep", "power-sweep", "throughput-sweep", "beam-pattern"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 0
        assert main(["dispersion-sweep", "--out", str(tmp_path / "default.csv")]) == 0
    finally:
        sys.setprofile(None)
    src = os.path.dirname(fwcsim.__file__)
    unreached = set()

    def visit(code, name):  # a function and the named functions defined in it
        if code not in called:
            unreached.add(name)
        for inner in code.co_consts:
            if inspect.iscode(inner) and not inner.co_name.startswith("<"):
                visit(inner, f"{name}.<locals>.{inner.co_name}")

    for info in pkgutil.iter_modules(fwcsim.__path__):
        for value in vars(importlib.import_module(f"fwcsim.{info.name}")).values():
            for fn in (value, *vars(value).values()) if inspect.isclass(value) else (value,):
                fn = getattr(fn, "__func__", getattr(fn, "fget", fn))  # methods and properties
                code = getattr(fn, "__code__", None)  # dataclass-made methods live in "<string>"
                if code is not None and os.path.dirname(code.co_filename) == src:
                    visit(code, f"{fn.__module__}.{fn.__qualname__}")
    assert unreached == {
        "fwcsim.cli._Parser.error",  # the usage-error path
        "fwcsim.tables.ResultTable.rows",  # the benchmark's row counter reads it
        # The forked helpers' work, past the tiny config's sizes; this profile does not
        # see a helper's calls. test_csv_split, test_drop_split and test_beam_split
        # check their bytes.
        "fwcsim.tables.ResultTable.write_csv.<locals>.text",
        "fwcsim.tables._rows_in_two.<locals>.part",
    }


@pytest.mark.parametrize(
    "data",
    [{"channel": {"ref_loss_db": 3000}}, {"scheme_params": {"wireless_bandwidth_hz": 1e300}}],
    ids=["ref-loss-3000", "bandwidth-1e300"],
)
def test_cli_weak_links_keep_a_positive_rate(tmp_path, data):
    # SINRs below 1e-16, where 1 + SINR rounds to 1, are weak links, not absent ones.
    cfg_path = write_cfg(tmp_path, {**SMALL_SWEEP, **data})
    out = tmp_path / "tp.csv"
    assert main(["throughput-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    solver = json.loads(out.with_suffix(".meta.json").read_text())["solver"]
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    feasible = [row for row in rows if solver[row[1]][row[2]]["feasible"]]
    assert feasible and all(float(row[header.index("mean_sumrate_bps")]) > 0.0
                            for row in feasible)


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(["dispersion-sweep", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    cfg_path = write_cfg(tmp_path, {"sweep": {"no_such_knob": 1}})
    code = main(["dispersion-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert code == 2


@pytest.mark.parametrize(
    "command, data, message, out",
    [case if len(case) == 4 else (*case, "o.csv") for case in [
        ("dispersion-sweep", {}, "cannot write {tmp}/nodir/o.csv: no directory {tmp}/nodir",
         "nodir/o.csv"),
        ("power-sweep", {}, "cannot write {tmp}: Is a directory", "."),
        ("throughput-sweep", {"monte_carlo_drops": 2.5}, "monte_carlo_drops must be an integer"),
        ("throughput-sweep", {"base_seed": 1.5}, "base_seed must be an integer"),
        ("throughput-sweep", {"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ("throughput-sweep", {"workers": 1}, "unknown key"),
        ("throughput-sweep", {"budget_w": math.nan}, "budget_w must be finite"),
        ("throughput-sweep", {"budget_w": math.inf}, "budget_w must be finite"),
        ("dispersion-sweep", {"scenario": {"num_raps": -5}}, "unknown key"),
        ("dispersion-sweep", {"scenario": {"num_ues": 50}}, "unknown key"),
        ("dispersion-sweep", {"scenario": {"rng_seed": 1}}, "unknown key"),
        ("dispersion-sweep", {"scenario": {"fiber_length_km": 19.0}}, "unknown key"),
        ("power-sweep", {"power": {"pa_gain_db": 10.0}}, "unknown key"),
        ("throughput-sweep", {"scheme_params": {"wireless_bandwidth_hz": 0}},
         "scheme_params.wireless_bandwidth_hz must be > 0, got 0"),
        ("beam-pattern", {"sweep": {"theta_grid_deg": [-90.0, 90.0, 0.0]}},
         "theta_grid_deg step must be nonzero"),
        ("beam-pattern", {"sweep": {"num_band_points": 0}},
         "sweep.num_band_points must be >= 1, got 0"),
        ("throughput-sweep", {"schemes": ["bbof", "rfof", "bbof"]},
         "schemes[2] must be distinct, got 'bbof' again"),
        ("throughput-sweep", {"sweep": {"m_values": [4, 8, 4]}},
         "sweep.m_values[2] must be distinct, got 4 again"),
        ("throughput-sweep", {"sweep": {"m_values": []}}, "sweep.m_values must be nonempty"),
        ("dispersion-sweep", {"sweep": {"fiber_km": []}}, "sweep.fiber_km must be nonempty"),
        ("throughput-sweep", {"overhead": {"coherence_block_symbols": 0}},
         "overhead.coherence_block_symbols must be > 0, got 0"),
        ("throughput-sweep", {"overhead": {"max_fraction": 1.5}},
         "overhead.max_fraction must be in [0, 1), got 1.5"),
        ("power-sweep", {"sweep": {"frequencies_hz": []}},
         "sweep.frequencies_hz must be nonempty"),
        ("dispersion-sweep", {"sweep": {"frequencies_hz": [0]}},
         "sweep.frequencies_hz[0] must be > 0, got 0"),
        ("dispersion-sweep", {"sweep": {"frequencies_hz": [-5e9]}},
         "sweep.frequencies_hz[0] must be > 0, got -5000000000.0"),
        ("power-sweep", {"sweep": {"frequencies_hz": [10e9, 0]}},
         "sweep.frequencies_hz[1] must be > 0, got 0"),
        ("power-sweep", {"sweep": {"frequencies_hz": [-5e9]}},
         "sweep.frequencies_hz[0] must be > 0, got -5000000000.0"),
        ("dispersion-sweep", {"sweep": {"association_mode": "closest"}},
         "sweep.association_mode must be one of ['ue_nearest', 'rap_nearest'], got 'closest'"),
        ("throughput-sweep", {"channel": {"noise_figure_db": math.nan}},
         "channel.noise_figure_db must be finite"),
        ("throughput-sweep", {"channel": {"pathloss_exponent": "abc"}},
         "channel.pathloss_exponent must be a number"),
        ("throughput-sweep", {"scenario": {"area_width_m": math.nan}},
         "scenario.area_width_m must be finite"),
        ("dispersion-sweep", {"fiber": {"wavelength_nm": math.inf}},
         "fiber.wavelength_nm must be finite"),
        ("power-sweep", {"sweep": {"power_p_tx_w": math.nan}},
         "sweep.power_p_tx_w must be finite"),
        ("throughput-sweep", {"scheme_params": {"fronthaul_snr0_db": math.nan}},
         "scheme_params.fronthaul_snr0_db must be finite"),
        ("throughput-sweep", {"sweep": {"m_values": [2.5]}},
         "sweep.m_values[0] must be an integer"),
        ("beam-pattern", {"sweep": {"band_hz": [0.0, 1e9]}},
         "sweep.band_hz[0] must be > 0, got 0.0"),
        ("power-sweep", {"sweep": {"power_p_tx_w": 1e308}, "schemes": ["bbof"]},
         "bbof total power is not finite at 0.0 km"),
        ("power-sweep", {"fiber": {"attenuation_db_per_km": 1000},
                         "sweep": {"fiber_km": [1.0, 5.0]}},
         "ifof total power is not finite at 5.0 km"),
        ("power-sweep", {**NULL_THEN_OVERFLOW, "sweep": {"frequencies_hz": [20e9],
                                                         "fiber_km": [5.0, 9.13278785218495]}},
         "rfof total power is not finite at 5.0 km"),
        ("dispersion-sweep", {"sweep": {"fiber_km": [1e306]}},
         "dispersion phase is not finite at 1e+306 km"),
        ("power-sweep", {"sweep": {"fiber_km": [1e306]}},
         "dispersion phase is not finite at 1e+306 km"),
        ("throughput-sweep", {"fiber": {"length_km": 1e306}},
         "dispersion phase is not finite at 1e+306 km"),
        ("dispersion-sweep", {"sweep": {"frequencies_hz": [1e200]}},
         "dispersion phase is not finite at 0.0 km, 1e+191 GHz"),
        ("power-sweep", {"sweep": {"frequencies_hz": [1e200]}},
         "dispersion phase is not finite at 0.0 km, 1e+191 GHz"),
        ("throughput-sweep", {"scheme_params": {"rf_carrier_hz": 1e200}},
         "dispersion phase is not finite at 19.0 km, 1e+191 GHz"),
        ("throughput-sweep", {"channel": {"ref_loss_db": -1e308}},
         "channel.ref_loss_db must keep the 1 m gain within the float range"),
        ("throughput-sweep", {"channel": {"noise_figure_db": 1e308}},
         "channel.noise_figure_db 1e+308 gives a noise power of inf W"),
        ("throughput-sweep", {"channel": {"noise_figure_db": -1e308}},
         "channel.noise_figure_db -1e+308 gives a noise power of 0.0 W"),
        ("dispersion-sweep", {"channel": {"pathloss_exponent": 2.0}},
         "channel.pathloss_exponent must be > 2, got 2.0"),
        ("throughput-sweep", {"scenario": {"area_width_m": 1e308}},
         "area 1e+308 m x 1000.0 m is too large"),
        ("throughput-sweep", {"scenario": {"area_width_m": 1e150}},
         "lower channel.pathloss_exponent, channel.ref_loss_db or the scenario area"),
        ("throughput-sweep", {"channel": {"pathloss_exponent": 1e300}},
         "lower channel.pathloss_exponent, channel.ref_loss_db or the scenario area"),
        ("beam-pattern", {"sweep": {"steer_theta_deg": 200.0}},
         "sweep.steer_theta_deg must be in [-90, 90], got 200.0"),
        ("beam-pattern", {"sweep": {"steer_theta_deg": -90.5}},
         "sweep.steer_theta_deg must be in [-90, 90], got -90.5"),
        ("power-sweep", {"sweep": {"power_num_raps": 0}},
         "sweep.power_num_raps must be >= 1, got 0"),
        ("throughput-sweep", {"sweep": {"power_num_raps": 0}},
         "sweep.power_num_raps must be >= 1, got 0"),
        ("power-sweep", {"sweep": {"array_elements": 0}},
         "sweep.array_elements must be >= 1, got 0"),
        ("dispersion-sweep", {"sweep": {"array_spacing_m": 0.0}},
         "sweep.array_spacing_m must be > 0, got 0.0"),
        ("beam-pattern", {"sweep": {"array_spacing_m": -0.01}},
         "sweep.array_spacing_m must be > 0, got -0.01"),
        ("beam-pattern", {"sweep": {"crossover_range_km": [-1, 5]}},
         "sweep.crossover_range_km[0] must be >= 0, got -1"),
        ("power-sweep", {"sweep": {"crossover_range_km": [5, 5]}},
         "sweep.crossover_range_km must satisfy start < stop, got (5, 5)"),
        ("beam-pattern", {"sweep": {"power_p_tx_w": -1.0}},
         "sweep.power_p_tx_w must be >= 0, got -1.0"),
        ("throughput-sweep", {"sweep": {"fiber_km": [0.0, -1.0]}},
         "sweep.fiber_km[1] must be >= 0, got -1.0"),
        ("throughput-sweep", {"digitization_bits_per_sample_pair": -30, "schemes": ["ifof"]},
         "digitization_bits_per_sample_pair must be > 0, got -30"),
        ("throughput-sweep", {"digitization_bits_per_sample_pair": 0},
         "digitization_bits_per_sample_pair must be > 0, got 0"),
        ("beam-pattern", {"digitization_bits_per_sample_pair": -1.5},
         "digitization_bits_per_sample_pair must be > 0, got -1.5"),
        ("power-sweep", {"power": {"pa_eff_rfof": 5e-324, "feeder_loss": 0.5}},
         "power.pa_eff_rfof * (1 - power.feeder_loss) underflows to 0, got 5e-324 and 0.5"),
        ("throughput-sweep", {"power": {"pa_eff_bbof": 5e-324}},
         "power.pa_eff_bbof * (1 - power.feeder_loss) underflows to 0, got 5e-324 and 0.5"),
        ("beam-pattern", {"sweep": {"array_spacing_m": 1e300}},
         "sweep.array_spacing_m gives an element spacing of 1e+300 m, so the 8-element"),
        ("beam-pattern", {"sweep": {"band_hz": [1e-300, 1e-300]}},
         "sweep.band_hz gives an element spacing of inf m, so the 8-element array's"),
        ("throughput-sweep", {"fiber": {"length_km": -1}}, "fiber.length_km must be >= 0, got -1"),
        ("throughput-sweep", {"budget_w": 0}, "budget_w must be > 0, got 0"),
        ("throughput-sweep", {"sweep": {"m_values": [0]}},
         "sweep.m_values[0] must be >= 1, got 0"),
        ("power-sweep", {"schemes": []}, "schemes must be nonempty"),
        ("throughput-sweep", {"sweep": {"association_mode": 5}},
         "sweep.association_mode must be one of ['ue_nearest', 'rap_nearest'], got 5"),
        ("beam-pattern", [1, 2], "top-level config must be a JSON object"),
        ("dispersion-sweep", {"fiber": {"wavelength_nm": 0}},
         "fiber.wavelength_nm must be > 0, got 0"),
        ("power-sweep", {"fiber": {"attenuation_db_per_km": -0.1}},
         "fiber.attenuation_db_per_km must be >= 0, got -0.1"),
        ("throughput-sweep", {"scenario": {"area_width_m": 0}},
         "scenario.area_width_m must be > 0, got 0"),
        ("throughput-sweep", {"scenario": {"area_height_m": -2.0}},
         "scenario.area_height_m must be > 0, got -2.0"),
        ("power-sweep", {"power": {"p_bbu_w": -1}}, "power.p_bbu_w must be >= 0, got -1"),
        ("power-sweep", {"power": {"pa_eff_rfof": 0}},
         "power.pa_eff_rfof must be in (0, 1], got 0"),
        ("throughput-sweep", {"power": {"feeder_loss": 1}},
         "power.feeder_loss must be in [0, 1), got 1"),
        ("dispersion-sweep", {"scheme_params": {"if_carrier_hz": 0}},
         "scheme_params.if_carrier_hz must be > 0, got 0"),
        ("throughput-sweep", {"schemes": ["xfof"]},
         "schemes[0] must be one of ['bbof', 'ifof', 'rfof'], got 'xfof'"),
        ("beam-pattern", {"sweep": {"band_hz": [20e9, 10e9]}},
         "sweep.band_hz must satisfy start <= stop, got (20000000000.0, 10000000000.0)"),
        # (stop - start) * step underflows to -0.0: the signs still disagree
        ("beam-pattern", {"sweep": {"theta_grid_deg": [0.0, -1e-200, 1e-200]}},
         "sweep.theta_grid_deg step must be nonzero and lead from start to stop, "
         "got (0.0, -1e-200, 1e-200)"),
    ]],
    ids=["out-missing-directory", "out-is-a-directory", "drops-2.5", "seed-1.5", "seed-negative", "workers-1", "budget-nan", "budget-inf",
         "scenario.num_raps", "scenario.num_ues", "scenario.rng_seed",
         "scenario.fiber_length_km", "power.pa_gain_db", "bandwidth-0", "theta-step-0",
         "band-points-0", "schemes-duplicate", "m_values-duplicate", "m_values-empty",
         "fiber_km-empty", "coherence-block-0", "max-fraction-1.5", "frequencies-empty",
         "dispersion-frequencies-0", "dispersion-frequencies-negative", "power-frequencies-0",
         "power-frequencies-negative", "association-mode-unknown",
         "noise-figure-nan", "pathloss-string", "area-width-nan", "wavelength-inf",
         "power-p-tx-nan", "fronthaul-snr0-nan", "m_values-2.5", "band-start-0",
         "power-p-tx-overflow", "attenuation-overflow", "overflow-then-null",
         "dispersion-fiber-km-1e306", "power-fiber-km-1e306", "length-km-1e306",
         "dispersion-carrier-1e200",
         "power-carrier-1e200", "rf-carrier-1e200", "ref-loss-neg-1e308",
         "noise-figure-1e308", "noise-figure-neg-1e308", "dispersion-pathloss-2",
         "area-width-1e308", "area-width-1e150-underflow", "pathloss-1e300-underflow",
         "steer-theta-200", "steer-theta-neg-90.5", "power-num-raps-0",
         "throughput-power-num-raps-0", "power-array-elements-0", "dispersion-array-spacing-0",
         "beam-array-spacing-negative", "beam-crossover-range-negative",
         "power-crossover-range-empty", "beam-power-p-tx-negative",
         "throughput-fiber-km-negative", "digitization-negative-ifof-only",
         "digitization-0-with-bbof", "beam-digitization-negative",
         "pa-eff-rfof-feeder-underflow", "pa-eff-bbof-feeder-underflow",
         "beam-array-spacing-1e300", "beam-band-1e-300", "fiber-length-negative", "budget-0",
         "m_values-0", "schemes-empty", "association-mode-int", "top-level-list",
         "wavelength-0", "attenuation-negative", "area-width-0", "area-height-negative",
         "p-bbu-negative", "pa-eff-rfof-0", "feeder-loss-1", "if-carrier-0", "schemes-unknown",
         "band-reversed", "theta-step-underflow"],
)
def test_cli_bad_config_value_exit_2(tmp_path, capsys, command, data, message, out):
    cfg_path = write_cfg(tmp_path, {**SMALL_SWEEP, **data} if isinstance(data, dict) else data)
    args = [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
    # a config error stays one, with or without --allow-null
    takes_null = command in ("dispersion-sweep", "power-sweep")
    for extra in ([], ["--allow-null"]) if takes_null else ([],):
        assert main(args + extra) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message.format(tmp=tmp_path) in err, err
        assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command, blocked", [
    ("dispersion-sweep", "o.meta.json"), ("power-sweep", "o_crossovers.csv"),
])
def test_cli_unwritable_companion_file_exit_2(tmp_path, capsys, command, blocked):
    (tmp_path / blocked).mkdir()  # a directory where the file goes
    assert main([command, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {tmp_path / blocked}: Is a directory\n"


@pytest.mark.parametrize("theta0_deg", [90.0, -90.0])
def test_cli_beam_pattern_runs_at_endfire(tmp_path, theta0_deg):
    # the steering range is closed: endfire itself still runs
    cfg_path = write_cfg(tmp_path, {"sweep": {"steer_theta_deg": theta0_deg}})
    out = tmp_path / "b.csv"
    assert main(["beam-pattern", "--config", str(cfg_path), "--out", str(out)]) == 0
    peaks = json.loads(out.with_suffix(".meta.json").read_text())["peaks"]
    assert peaks[0]["mode"] == "phase_only" and peaks[0]["squint_prediction_deg"] == theta0_deg
    assert peaks[0]["peak_deg"] == pytest.approx(theta0_deg, abs=0.011)


def test_cli_infeasible_exit_3(tmp_path):
    cfg_path = write_cfg(tmp_path, {**SMALL_SWEEP, "budget_w": 10.0})
    code = main(["throughput-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert code == 3


@pytest.mark.parametrize("command, data, allowed", [
    ("dispersion-sweep", None, (0, None)),
    ("dispersion-sweep", NULL_THEN_OVERFLOW, (0, None)),
    ("power-sweep", NULL_THEN_OVERFLOW, (2, "rfof total power is not finite at 5.0 km")),
], ids=["30ghz-null", "null-then-overflow", "power-null-then-overflow"])
def test_cli_null_sentinel_exit_4(tmp_path, capsys, command, data, allowed):
    """A null exits 4 with one stderr line naming the first null. With
    --allow-null the sentinel is written, unless a later length's power
    overflows: then exit 2, naming that length (``data`` None: the default
    fiber's first 30 GHz null)."""
    ln = null_lengths(ExperimentConfig().fiber, 30e9, 1)[0]
    data = data or {"sweep": {"fiber_km": [ln], "frequencies_hz": [30e9]}}
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "d.csv"
    args = [command, "--config", str(cfg_path), "--out", str(out)]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"null at {data['sweep']['fiber_km'][0]} km" in err, err
    code, message = allowed
    assert main(args + ["--allow-null"]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and "inf" in out.read_text()
    else:
        assert err.count("\n") == 1 and message in err and not out.exists(), err


def test_every_error_class_has_an_exit_code(tmp_path, capsys, monkeypatch):
    """Each simulator error class leaves main with its own documented exit code
    and one stderr line, never a traceback."""
    classes = [value for value in vars(errors).values() if isinstance(value, type)
               and issubclass(value, errors.FwcError) and value is not errors.FwcError]
    codes = {}
    for cls in classes:
        def fail(cfg, cls=cls):
            raise cls("no such point")

        monkeypatch.setitem(cli._RUNNERS, "beam-pattern", ("o.csv", fail, ()))
        codes[cls] = main(["beam-pattern", "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("no such point\n"), (cls, err)
    assert sorted(codes.values()) == [2, 3, 4], codes


def test_cli_power_sweep_null_sentinel_exit_4(tmp_path, capsys):
    ln = null_lengths(ExperimentConfig().fiber, 30e9, 1)[0]
    cfg_path = write_cfg(tmp_path, {"sweep": {"fiber_km": [ln], "frequencies_hz": [30e9]}})
    out = tmp_path / "p.csv"
    assert main(["power-sweep", "--config", str(cfg_path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "for rfof at 30 GHz" in err, err
    assert not out.exists()
    args = ["power-sweep", "--config", str(cfg_path), "--out", str(out), "--allow-null"]
    assert main(args) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[-1] for r in rows if r[0] == "rfof"] == ["inf"]
    assert all(math.isfinite(float(r[-1])) for r in rows if r[0] != "rfof")


def test_cli_power_sweep_null_without_overhead_is_inf(tmp_path):
    # With zero supply and cooling fractions the overhead term is 0 * inf at a
    # null; the total must still be the infinite sentinel, never NaN.
    ln = null_lengths(ExperimentConfig().fiber, 30e9, 1)[0]
    cfg_path = write_cfg(tmp_path, {
        "power": {"supply_loss_frac": 0, "cooling_frac": 0},
        "sweep": {"fiber_km": [1.0, ln], "frequencies_hz": [30e9]},
    })
    out = tmp_path / "p.csv"
    assert main(["power-sweep", "--config", str(cfg_path), "--out", str(out)]) == 4
    assert not out.exists()
    args = ["power-sweep", "--config", str(cfg_path), "--out", str(out), "--allow-null"]
    assert main(args) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[2], r[-2], r[-1]) for r in rows if r[0] == "rfof"][1] == (repr(ln), "inf", "inf")
    assert "nan" not in out.read_text()


def test_write_meta_is_strict_json(tmp_path):
    path = tmp_path / "m.meta.json"
    table = ResultTable(("a",), metadata={"x": [math.inf, -math.inf], "y": {"z": 1.5}})
    table.write_meta(path)
    assert json.loads(path.read_text()) == {"x": ["inf", "-inf"], "y": {"z": 1.5}}
    with pytest.raises(ValueError):
        ResultTable(("a",), metadata={"x": math.nan}).write_meta(path)


def test_cli_power_sweep_writes_crossovers(tmp_path):
    cfg_path = write_cfg(tmp_path, {"sweep": {"fiber_km": [0.0, 5.0, 15.0, 20.0],
                                              "frequencies_hz": [10e9, 20e9]}})
    out = tmp_path / "power.csv"
    assert main(["power-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    companion = out.with_name("power_crossovers.csv")
    assert companion.exists()
    lines = companion.read_text().splitlines()
    assert lines[0] == "scheme_a,scheme_b,f_rf_hz,crossover_km,found"
    assert len(lines) == 3


@pytest.mark.parametrize("schemes", [["bbof", "ifof"], ["ifof", "rfof"]])
def test_cli_power_sweep_without_rfof_and_bbof_writes_no_crossovers(tmp_path, schemes):
    cfg_path = write_cfg(tmp_path, {"schemes": schemes, "sweep": {"fiber_km": [0.0, 5.0]}})
    out = tmp_path / "power.csv"
    assert main(["power-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "power.csv",
                                                            "power.meta.json"]
    assert json.loads(out.with_suffix(".meta.json").read_text())["crossovers"] == []


@pytest.mark.parametrize("option", [("--seed", "1"), ("--drops", "2")], ids=["seed", "drops"])
@pytest.mark.parametrize("command", sorted(cli._RUNNERS))
def test_cli_seed_and_drops_only_on_throughput_sweep(tmp_path, capsys, command, option):
    # Only the throughput sweep reads base_seed and monte_carlo_drops.
    out = tmp_path / "o.csv"
    args = [command, "--config", str(write_cfg(tmp_path, SMALL_SWEEP)), "--out", str(out)]
    if command == "throughput-sweep":
        assert main(args + list(option)) == 0
        echo = json.loads(out.with_suffix(".meta.json").read_text())["config"]
        seed_and_drops = {"--seed": (1, 3), "--drops": (5, 2)}[option[0]]
        assert (echo["base_seed"], echo["monte_carlo_drops"]) == seed_and_drops
        return
    assert main(args + list(option)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["beam-pattern", "--seed", "1"],
    ["throughput-sweep", "--drops", "abc"],
    [],
    ["no-such-sweep"],
    ["power-sweep", "--config"],
], ids=["option-elsewhere", "bad-value", "no-subcommand", "unknown-subcommand", "no-value"])
def test_cli_usage_errors_print_one_line_and_return_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # where each subcommand's default --out would go
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["beam-pattern", "-h"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: fwcsim" in capsys.readouterr().out


def test_cli_subprocess_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_SWEEP)
    outputs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "fwcsim.cli", "throughput-sweep",
               "--config", str(cfg_path), "--out", str(out), "--seed", "5"]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# 20,000 fiber lengths and 2,000 carriers: 4e7 planning rows from a 0.2 MB config.
PLANNING_PROBE = {"sweep": {"fiber_km": [i * 1e-3 for i in range(20000)],
                            "frequencies_hz": [1e9 + 1e6 * i for i in range(2000)]}}
# Configs that each once ended in a numpy MemoryError traceback (13.4 GiB,
# 298 GiB and 763 MiB asked for; the planning rows after 14 s) or filled memory.
SIZE_PROBES = {
    "theta-step-1e-7": ("beam-pattern", {"sweep": {"theta_grid_deg": [-90.0, 90.0, 1e-7]}},
                        "sweep.theta_grid_deg"),
    "m-200000": ("throughput-sweep", {"sweep": {"m_values": [200000]}, "budget_w": 1e9},
                 "sweep.m_values"),
    "elements-1e8": ("beam-pattern", {"sweep": {"array_elements": 100_000_000}},
                     "sweep.array_elements"),
    "planning-dispersion": ("dispersion-sweep", PLANNING_PROBE,
                            "sweep.fiber_km and sweep.frequencies_hz"),
    "planning-power": ("power-sweep", PLANNING_PROBE, "sweep.fiber_km and sweep.frequencies_hz"),
}
# The probe's address space: a case the size bounds miss fails with a
# MemoryError here instead of swapping.
PROBE_RLIMIT_AS = 1536 * 2**20
PROBE_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from fwcsim.cli import main
start = time.perf_counter()
code = main(sys.argv[2:])
print(time.perf_counter() - start)
sys.exit(code)
"""


@pytest.mark.parametrize("probe", sorted(SIZE_PROBES))
def test_oversized_config_exits_2_before_allocating(tmp_path, probe):
    command, data, key = SIZE_PROBES[probe]
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_CHILD, str(PROBE_RLIMIT_AS), command,
         "--config", str(write_cfg(tmp_path, data)), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"config error: {key} ")
    assert float(proc.stdout) < 1.0  # seconds from main() to its exit code
    assert not out.exists()


BENCH_PLANNING_SWEEP = {
    "fiber_km": [round(0.005 * i, 6) for i in range(5001)],
    "frequencies_hz": [10e9 + 5e9 * i for i in range(7)],
    "array_elements": 64, "num_band_points": 21, "theta_grid_deg": [-90.0, 90.0, 0.05],
}


@pytest.mark.parametrize("data", [
    {},
    {"monte_carlo_drops": 100},
    {"sweep": {"m_values": [1024], "association_mode": "ue_nearest"}, "budget_w": 1e5,
     "monte_carlo_drops": 20},
    {"sweep": BENCH_PLANNING_SWEEP},
], ids=["default", "case_study", "dense_m1024", "planning"])
def test_default_and_bench_configs_are_admitted(data):
    cfg = config_from_dict(data)
    sweeps._admit_throughput(cfg, sweeps._ue_counts(cfg.sweep.m_values))
    sweeps._admit_beam(cfg)
    sweeps._admit_planning(cfg)


@pytest.mark.parametrize("data, key", [
    ({"monte_carlo_drops": 10**9}, "monte_carlo_drops"),
    ({"sweep": {"m_values": [16, 7000]}}, "sweep.m_values"),
    ({"sweep": {"num_band_points": 10**6}}, "sweep.theta_grid_deg and sweep.num_band_points"),
    ({"sweep": {"theta_grid_deg": [-90.0, 90.0, 5e-324]}}, "sweep.theta_grid_deg"),
], ids=["drops", "m-7000", "band-points", "subnormal-step"])
def test_size_bounds_name_the_key(data, key):
    cfg = config_from_dict(data)
    with pytest.raises(ValidationError, match=f"^{key} asks for"):
        sweeps._admit_throughput(cfg, sweeps._ue_counts(cfg.sweep.m_values))
        sweeps._admit_beam(cfg)


@pytest.mark.parametrize("bound, data, key", [
    (None, {"sweep": {"frequencies_hz": [1e9 + i for i in range(19800)]}},
     "sweep.fiber_km and sweep.frequencies_hz asks for a CSV"),
    (256 * 100, {}, "sweep.fiber_km asks for per-curve arrays"),
], ids=["rows", "per-curve-arrays"])
def test_planning_size_bounds_name_the_keys(monkeypatch, bound, data, key):
    """The default 101 lengths: 19,802 curves (2,000,002 rows) pass the row
    bound by one curve, and a byte bound one length short of the axis."""
    if bound is not None:
        monkeypatch.setattr(sweeps, "MAX_ARRAY_BYTES", bound)
    cfg = config_from_dict(data)
    for run in (run_dispersion_sweep, run_power_sweep):
        with pytest.raises(ValidationError, match=f"^{key} of "):
            run(cfg)


@pytest.mark.parametrize("data, key", [
    ({"sweep": {"fiber_km": [0.0], "frequencies_hz": [1e9 + i for i in range(20_000)]}},
     "sweep.fiber_km and sweep.frequencies_hz"),
    ({"sweep": {"num_band_points": 10_001, "theta_grid_deg": [0.0, 0.0, 1.0]}},
     "sweep.theta_grid_deg and sweep.num_band_points"),
], ids=["carriers", "band-points"])
def test_size_bound_messages_print_the_size_past_the_bound(monkeypatch, data, key):
    """20,002 rows over a bound of 20,000 print whole, not as 2e+04, and a size a
    fraction past the bound rounds up, so no size reads as the bound itself."""
    monkeypatch.setattr(sweeps, "MAX_CSV_ROWS", 20_000)
    cfg = config_from_dict(data)
    run = run_beam_pattern if "num_band_points" in data["sweep"] else run_dispersion_sweep
    with pytest.raises(ValidationError, match=f"^{key} asks for a CSV of 20002 rows, over "
                                              "the size bound of 20000 rows$"):
        run(cfg)
    with pytest.raises(ValidationError, match="^k asks for a CSV of 20001 rows, over"):
        sweeps._admit("k", "a CSV", 20_000.25, 20_000, "rows")
