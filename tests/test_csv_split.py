"""The two-way CSV write: from ``tables.SPLIT_ROWS`` rows a forked helper
formats the second half of a table. Its bytes must be those of the serial
write at every split point, the helper must be reaped on every path, and a
failed helper must leave the serial bytes in the file."""
import contextlib
import errno
import gc
import json
import math
import os
import signal

import pytest

from fwcsim import tables
from fwcsim.cli import main
from fwcsim.tables import SPLIT_ROWS, Repeat, ResultTable, format_cell


def serial_bytes(table: ResultTable) -> bytes:
    """The CSV written row by row through format_cell; a table without columns
    writes an empty line per row."""
    lines = [",".join(table.columns)]
    for n, cells in table.blocks:
        columns = [[c.value] * n if isinstance(c, Repeat) else c for c in cells]
        lines += [",".join(format_cell(column[i]) for column in columns) for i in range(n)]
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers write_csv forks while the test runs, with two
    CPUs usable whatever the host has, so the write splits. A helper that is
    never reaped would block the test: after 60 s SIGALRM ends the run
    instead."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    signal.alarm(60)
    yield pids
    signal.alarm(0)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def axis(n):
    return [0.1 * i + 1e-9 for i in range(n)]


def one_block(rows):
    table = ResultTable(("a", "x", "y"))
    table.extend_columns(Repeat("rfof"), axis(rows), [float(-i) / 7 for i in range(rows)])
    return table


def shared_axis(blocks, rows):
    """``blocks`` blocks that all hold one axis list object, so the id cache
    serves it on both sides of the split; the midpoint falls inside block
    ``blocks // 2`` when ``blocks`` is odd."""
    km = axis(rows)
    table = ResultTable(("scheme", "f_hz", "km", "fading", "ok"))
    for b in range(blocks):
        table.extend_columns(Repeat("s%d" % b), Repeat(1e9 * b), km,
                             [k * b / 3 for k in km], Repeat(b % 2 == 0))
    return table


def mixed_cells(rows):
    """Columns that are not all floats take format_cell's path, cut at the
    midpoint like any other."""
    table = ResultTable(("n", "flag", "v"))
    table.extend_columns(list(range(rows)), [i % 3 == 0 for i in range(rows)],
                         [None if i % 5 == 0 else float(i) for i in range(rows)])
    return table


def no_columns(rows):
    return ResultTable((), blocks=[(rows // 2, ()), (rows - rows // 2, ())])


TABLES = {
    "below-threshold": lambda: one_block(SPLIT_ROWS - 1),
    "at-threshold": lambda: one_block(SPLIT_ROWS),
    "above-threshold-odd": lambda: one_block(SPLIT_ROWS + 1),
    "midpoint-inside-a-shared-block": lambda: shared_axis(5, SPLIT_ROWS // 4 + 3),
    "midpoint-between-shared-blocks": lambda: shared_axis(4, SPLIT_ROWS // 4 + 3),
    "mixed-cells": lambda: mixed_cells(SPLIT_ROWS + 7),
    "no-columns": lambda: no_columns(SPLIT_ROWS + 5),
}


@pytest.mark.parametrize("make", TABLES.values(), ids=TABLES.keys())
def test_split_write_matches_the_serial_bytes(tmp_path, forks, make):
    table = make()
    rows = sum(n for n, _ in table.blocks)
    table.write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == serial_bytes(table)
    assert len(forks) == (rows >= SPLIT_ROWS)
    assert_no_child_left()


def test_without_fork_the_write_is_serial(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    table = shared_axis(5, SPLIT_ROWS // 4 + 3)
    table.write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == serial_bytes(table)


def test_one_usable_cpu_writes_serially_with_no_helper(tmp_path, monkeypatch):
    """On one CPU the split is slower than the serial write: no fork is tried."""
    forks = []

    def failed_fork():  # a fork would leave the write serial, and is recorded
        forks.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failed_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    table = shared_axis(5, SPLIT_ROWS // 4 + 3)
    table.write_csv(tmp_path / "t.csv")
    assert forks == []
    assert (tmp_path / "t.csv").read_bytes() == serial_bytes(table)


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_helper_is_reaped_and_its_half_formatted_here(tmp_path, monkeypatch, forks,
                                                                failure):
    parent, blocks_text = os.getpid(), tables._blocks_text

    def failing_in_helper(blocks):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("helper fails")
        return blocks_text(blocks)

    monkeypatch.setattr(tables, "_blocks_text", failing_in_helper)
    table = shared_axis(5, SPLIT_ROWS // 4 + 3)
    table.write_csv(tmp_path / "t.csv")
    assert len(forks) == 1
    assert (tmp_path / "t.csv").read_bytes() == serial_bytes(table)
    assert_no_child_left()


def test_a_failed_fork_leaves_the_write_serial(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    table = one_block(SPLIT_ROWS + 1)
    table.write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == serial_bytes(table)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_out_exits_2_and_reaps_the_helper(tmp_path, capsys, forks):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"num_band_points": 6}}))  # 21,612 rows
    assert main(["beam-pattern", "--config", str(cfg), "--out", "/dev/full"]) == 2
    assert len(forks) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert_no_child_left()


# The planning subcommands past SPLIT_ROWS: 5 curves x 5,001 lengths (25,005
# rows) for the dispersion and power sweeps, and 6 band points x 2 modes x
# 1,801 angles (21,612 rows) for the beam pattern, whose band stays serial.
PLANNING_SPLITS = {
    "dispersion-sweep": {"sweep": {"fiber_km": [0.005 * i for i in range(5001)]}},
    "power-sweep": {"sweep": {"fiber_km": [0.005 * i for i in range(5001)]}},
    "beam-pattern": {"sweep": {"num_band_points": 6}},
}


def cli_files(tmp_path, command, name):
    """Run ``command`` on its PLANNING_SPLITS config into a new directory and
    return the bytes of every file it wrote there."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PLANNING_SPLITS[command]))
    out = tmp_path / name
    out.mkdir()
    assert main([command, "--config", str(cfg), "--out", str(out / "o.csv")]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(PLANNING_SPLITS))
def test_planning_files_are_the_same_with_and_without_a_helper(tmp_path, monkeypatch, forks,
                                                               command):
    """The CSV, the meta (its JSON encoded while the CSV helper formats its half)
    and any companion are the bytes of the one-CPU write."""
    split = cli_files(tmp_path, command, "split")
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli_files(tmp_path, command, "serial") == split
    assert len(forks) == 1
    names = {"o.csv", "o.meta.json"} | ({"o_crossovers.csv"} if command == "power-sweep" else set())
    assert set(split) == names


def test_a_csv_write_failing_in_the_helpers_half_leaves_no_sidecar(tmp_path, monkeypatch, capsys,
                                                                    forks):
    """The helper's rows fail to format (here with a full disk, on both sides), so
    the CSV write fails after the meta's JSON was encoded: exit 2 with one
    stderr line, no meta and no companion file, the helper reaped."""
    row_range = tables._row_range

    def full_past_the_midpoint(blocks, start, stop):
        if start > 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return row_range(blocks, start, stop)

    monkeypatch.setattr(tables, "_row_range", full_past_the_midpoint)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PLANNING_SPLITS["power-sweep"]))
    out = tmp_path / "power.csv"
    assert main(["power-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: cannot write {out}: No space left on device\n"
    assert len(forks) == 1
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "power.csv"]


@pytest.mark.parametrize("rows", [SPLIT_ROWS + 1, 3], ids=["helper", "no-helper"])
def test_during_runs_once_between_this_process_rows_and_the_helpers(tmp_path, monkeypatch,
                                                                     forks, rows):
    """``write_csv`` returns what ``during`` returns. ``during`` runs once: after
    this process formatted its rows, and before it reads the helper's bytes."""
    events, blocks_text, forked = [], tables._blocks_text, tables._forked

    def recorded_blocks_text(blocks):
        for text in blocks_text(blocks):
            events.append("rows")
            yield text

    @contextlib.contextmanager
    def recorded_forked(n, part, wanted):
        with forked(n, part, wanted) as (stop, tail):
            yield stop, tail and (lambda: events.append("tail") or tail())

    monkeypatch.setattr(tables, "_blocks_text", recorded_blocks_text)
    monkeypatch.setattr(tables, "_forked", recorded_forked)
    table = one_block(rows)
    assert table.write_csv(tmp_path / "t.csv", lambda: events.append("during") or "done") == "done"
    assert events == ["rows", "during"] + ["tail"] * len(forks)
    assert len(forks) == (rows >= SPLIT_ROWS)
    assert (tmp_path / "t.csv").read_bytes() == serial_bytes(table)
    assert_no_child_left()


@pytest.mark.parametrize("rows", [SPLIT_ROWS + 1, 3], ids=["helper", "no-helper"])
def test_a_meta_that_fails_to_encode_leaves_the_whole_csv_and_no_meta(tmp_path, forks, rows):
    """A NaN in the metadata raises while any helper formats its half: the CSV
    still gets every row, as a serial write leaves it, the helper is reaped, and
    no meta file is written."""
    table = one_block(rows)
    table.metadata["x"] = math.nan
    with pytest.raises(ValueError):
        table.write(tmp_path / "t.csv")
    assert len(forks) == (rows >= SPLIT_ROWS)
    assert_no_child_left()
    assert (tmp_path / "t.csv").read_bytes() == serial_bytes(table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_a_sequence_is_formatted_once_and_its_text_kept_while_a_block_still_holds_it(monkeypatch):
    """The axis that every block holds is formatted once, and its text is let
    go with the last block; each block's own column is formatted with its block
    and its text let go at once: then only this test's dict refers to it."""
    table = shared_axis(3, 4)
    column_text, texts = tables._column_text, {}
    lists = {id(c) for _, cells in table.blocks for c in cells if isinstance(c, list)}

    def recorded(column):  # a Repeat's one-cell list is not recorded
        if id(column) not in lists:
            return column_text(column)
        assert id(column) not in texts
        texts[id(column)] = column_text(column)
        return texts[id(column)]

    monkeypatch.setattr(tables, "_column_text", recorded)
    blocks = tables._blocks_text(table.blocks)
    km = id(table.blocks[0][1][2])
    for k, (_, cells) in enumerate(table.blocks):
        next(blocks)
        assert set(texts) == {km} | {id(c[3]) for _, c in table.blocks[:k + 1]}
        assert gc.get_referrers(texts[id(cells[3])]) == [texts]
        assert len(gc.get_referrers(texts[km])) == (2 if k < 2 else 1)
    assert list(blocks) == []
