"""The two-way CSV write: from ``tables.SPLIT_ROWS`` rows a forked helper
formats the second half of a table. Its bytes must be those of the serial
write at every split point, the helper must be reaped on every path, and a
failed helper must leave the serial bytes in the file."""
import json
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
