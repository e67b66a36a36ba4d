"""Result tables with pinned CSV schemas and config-echo sidecars.

CSV contract: header row mandatory, LF line endings, '.' decimal separator,
floats via repr (shortest round-trip) so identical configs yield identical
bytes.
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import os
import signal
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from pathlib import Path

import numpy as np


class _Walked(dict):
    """A dict that ``_json_ready`` built; walking it again returns it as it is."""


def _json_ready(value):
    """``value`` as plain JSON values: dataclasses as dicts by field, tuples as
    lists, enum members as their values and infinite floats as "inf" or "-inf".
    A dict this function built, such as the config echo inside a table's
    metadata, is not walked twice."""
    if isinstance(value, float):  # first: most values are the floats of an axis
        return ("inf" if value > 0 else "-inf") if math.isinf(value) else value
    if isinstance(value, _Walked):
        return value
    if isinstance(value, dict):
        return _Walked({k: _json_ready(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return _Walked({f.name: _json_ready(getattr(value, f.name))
                        for f in dataclasses.fields(value)})
    return value


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _column_text(column) -> list[str]:
    """Each cell of ``column`` as format_cell writes it.

    A float64 array is formatted in bulk where ``_BULK_REPR`` holds, any other
    ndarray is its ``tolist()``. A column of floats (numpy float64 included) is one
    map of ``float.__repr__``, which raises TypeError at the first cell that is no
    float; any other column goes cell by cell.
    """
    if _BULK_REPR and isinstance(column, np.ndarray) and column.dtype == np.float64:
        return _float_text(column)
    column = column.tolist() if isinstance(column, np.ndarray) else column
    try:
        return list(map(float.__repr__, column))
    except TypeError:
        return list(map(format_cell, column))


# Bulk repr needs x87's 80-bit long double: its 64-bit significand holds y below.
_BULK_REPR = np.finfo(np.longdouble).nmant == 63
_CHUNK = 4096  # values per pass, so scratch memory does not grow with a column


@functools.cache
def _repr_tables():
    """10**0..10**27 in long double (exact: 5**27 < 2**63) and 10**0..10**18; the
    digits of 0..9999 as 4-byte cells, then with trailing zeros as NUL; and per
    digit count, which of a 17-digit number's five cells take the NUL ones."""
    two = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), np.uint8)
    two, cut = two.reshape(100, 2), two.reshape(100, 2).copy()
    cut[::10, 1] = cut[0] = 0
    quads = np.empty((2, 100, 100, 4), np.uint8)
    quads[:, :, :, :2], quads[0, :, :, 2:], quads[1, :, :, 2:] = two[:, None], two, cut
    quads[1, :, 0, :2] = cut
    return (np.cumprod(np.array([1] + [10] * 27, np.longdouble)),
            10 ** np.arange(19, dtype=np.int64), quads.view(np.uint32).ravel(),
            10_000 * ((np.arange(18)[:, None] + 2) // 4 <= np.arange(5)))


@functools.cache
def _layout(key: int):
    """A (decpt, digit count, sign) key's constant text by the 'r' rules, and the
    (text column, digit column, length) runs that copy in digits from column 3.
    Count 0 stands for any with the point before or inside the digits: the runs
    then copy 17 columns, NUL from the last digit on."""
    decpt, nd, sign = (key >> 6) - 32, key >> 1 & 31, "-" * (key & 1)
    s = len(sign)
    if not nd:
        text = f"{sign}0.{'0' * -decpt}" if decpt <= 0 else f"{sign}{'X' * decpt}."
        runs = [(s + 2 - decpt, 3, 17)] if decpt <= 0 else [
            (s, 3, decpt), (s + decpt + 1, 3 + decpt, 17 - decpt)]
    elif decpt <= -4 or decpt > 16:
        text = f"{sign}X{'.' * (nd > 1)}{'X' * (nd - 1)}e{decpt - 1:+03d}"
        runs = [(s, 3, 1), (s + 2, 4, nd - 1)]
    else:
        text, runs = f"{sign}{'X' * nd}{'0' * (decpt - nd)}.0", [(s, 3, nd)]
    return np.array(text, "S25").view("V25"), [run for run in runs if run[2]]


def _float_text(x: np.ndarray) -> list[str]:
    """``float.__repr__`` of each value of a 1-D float64 array: the shortest digits
    that round-trip, nearest the value (Ryu's answer, Adams 2018).

    y = |x| * 10**q in [1e16, 1e17) in long double is within 2**-8 of the truth,
    and the ends of x's rounding interval, scaled, lie 0.55 or more from it. With
    [A, B] the integers inside, r is the largest power of ten with a multiple in
    [A, B] and k the multiple nearest y. A tie, or an end near a multiple of 10,
    within 0.005, and 0, inf, nan and |x| outside [1e-10, 1e16) go to ``repr``.
    """
    if len(x) > _CHUNK:
        return [t for lo in range(0, len(x), _CHUNK)
                for t in _float_text(x[lo:lo + _CHUNK])]
    p10, u10, quads, nul = _repr_tables()
    n, a = len(x), np.abs(x)
    ok = (a >= 1e-10) & (a < 1e16)
    a[~ok] = 1.0
    q = 16 - np.floor(np.log10(a)).astype(np.intp)
    tens = p10[q]
    y = a.astype(np.longdouble) * tens
    near = np.rint(y)
    K, dy = near.astype(np.int64), (y - near).astype(float)  # exact: 11 bits at most
    scale = tens.astype(float)  # the half-ulps are powers of two: scaled, near exact
    lo, hi = dy - (a - np.nextafter(a, 0)) / 2 * scale, dy + np.spacing(a) / 2 * scale
    A, B = np.ceil(lo), np.floor(hi)
    ok &= (K >= 10**16) & (K < 14 * 10**16)
    edge = np.flatnonzero((np.abs(A - lo - 0.5) > 0.495) | (np.abs(hi - B - 0.5) > 0.495))
    for end in (lo[edge], hi[edge]):  # is an integer this near the end inside?
        whole = np.rint(end)
        ok[edge[(np.abs(end - whole) < 0.005) & ((K[edge] + whole.astype(int)) % 10 == 0)]] = False
    A, B = K + A.astype(np.int64), K + B.astype(np.int64)
    width = B - A
    r = (B - B // 10 * 10 <= width).astype(np.intp)
    up = np.flatnonzero(ok & (B - B // 100 * 100 <= width))
    while up.size:  # only the values whose r still grows
        r[up] += 1
        step, top = u10[r[up] + 1], B[up]
        up = up[top - top // step * step <= width[up]]
    step = u10[r]
    k = K // step
    f = ((K - k * step).astype(float) + dy) / step  # y / step - k, within 0.5 of 0 at r = 0
    ok &= np.abs(np.abs(f) - 0.5) > 0.005
    k += f > 0.5
    v = k * step
    k += (v < A).astype(int) - (v > B)  # the multiple nearest y may lie outside [A, B]
    v = k * step
    nd = 17 - r + (v >= 10**17) - (v < 10**16)
    decpt = nd + r - q
    key = (decpt + 32) << 6 | np.where((decpt > -4) & (decpt < nd), 0, nd) << 1 | np.signbit(x)
    # Sorted by key, each layout's rows are one run: its text, then its digits.
    order = np.argsort(key.astype(np.uint16), kind="stable")
    k, nd = k[order] * u10[17 - nd[order]], nd[order]  # 17 digits
    cells = np.empty((n, 5), np.intp)
    for j in range(4, 0, -1):
        high = k // 10_000
        cells[:, j], k = k - high * 10_000, high
    cells[:, 0] = k
    digits = quads[cells + np.take(nul, nd, axis=0)]  # 20 digits; the first in column 3
    counts, text, start = np.bincount(key), np.empty(n, "V25"), 0
    for g, stop in zip(np.flatnonzero(counts).tolist(), np.cumsum(counts[counts > 0]).tolist()):
        template, runs = _layout(g)
        text[start:stop] = template
        for t, d, m in runs:
            np.ndarray(stop - start, f"V{m}", text, 25 * start + t, (25,))[...] = \
                np.ndarray(stop - start, f"V{m}", digits, 20 * start + d, (20,))
        start = stop
    text[order] = text.copy()  # back to the values' order
    texts = text.view(np.uint8).astype(np.uint32).view("U25").tolist()
    bad = np.flatnonzero(~ok)
    for i, v in zip(bad.tolist(), x[bad].tolist()):
        texts[i] = repr(v)
    return texts


# Rows from which write_csv formats the second half of a table in a forked
# helper. The fork, the copy-on-write faults it brings and the reaping cost
# several ms. On a 2-vCPU VM the split ties or wins at 45,009 rows, also with
# float64 columns formatted in bulk (README, "Two-way split").
SPLIT_ROWS = 20_000


def _blocks_text(blocks):
    """The CSV text of each of ``blocks`` in turn, as bytes; a sequence object that
    several blocks hold is formatted once, and its text kept until the last of them."""
    blocks = list(blocks)
    held = Counter(id(cell) for _, cells in blocks for cell in cells)
    texts = {}  # id(sequence) -> its formatted cells
    for n, cells in blocks:
        # Cell j of a row sits at 2j, its "," or final "\n" at 2j + 1; each
        # column fills its slots by one slice assignment. No columns: "\n" rows.
        width = 2 * len(cells) or 1
        lines = [","] * (width * n)
        lines[width - 1::width] = ["\n"] * n
        for j, cell in enumerate(cells):
            if isinstance(cell, Repeat):
                lines[2 * j::width] = _column_text([cell.value]) * n
                continue
            if id(cell) not in texts:
                texts[id(cell)] = _column_text(cell)
            held[id(cell)] -= 1  # the text goes with the last block that holds it
            lines[2 * j::width] = texts[id(cell)] if held[id(cell)] else texts.pop(id(cell))
        yield "".join(lines).encode()


def _row_range(blocks, start: int, stop: int):
    """The blocks of rows ``start`` to ``stop`` of ``blocks``; a block across
    either end is cut, and every other block is yielded as it is."""
    done = 0
    for n, cells in blocks:
        lo, hi = max(start - done, 0), min(stop - done, n)
        done += n
        if (lo, hi) == (0, n):
            yield n, cells
        elif lo < hi:
            yield hi - lo, tuple(c if isinstance(c, Repeat) else c[lo:hi] for c in cells)


@functools.cache
def _openblas_threads():
    """OpenBLAS's thread-count getter and setter in numpy's BLAS, or None."""
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed np.core
    # dlsym on numpy's extension module searches its dependencies, the BLAS among them.
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                 "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        get, set_ = (getattr(lib, name % verb, None) for verb in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS at one thread for the block and yield True, or yield False where
    ``_openblas_threads`` finds nothing. A count of one is not set again: in a
    forked helper OpenBLAS's first set starts a pool thread that can spin."""
    get, set_ = _openblas_threads() or (lambda: 1, None)
    threads = get()
    if threads != 1:
        set_(1)
    try:
        yield set_ is not None
    finally:
        if threads != 1:
            set_(threads)


@contextlib.contextmanager
def _forked(n: int, part, wanted: bool):
    """Split a job of ``n`` rows in two: a helper forked on entry runs ``part(n // 2,
    n)``, which returns bytes, and this yields ``(n // 2, tail)``; ``tail()`` returns
    those bytes once they have come. This alone decides whether a job forks: only
    when ``wanted``, ``n >= 2``, ``os.fork`` exists and two or more CPUs are usable.
    With no helper (a failed fork too) it yields ``(n, None)`` and runs nothing. If
    the helper's bytes fall short (``part`` raised or the helper was killed),
    ``tail`` runs ``part`` here, so a failure raises as it would serially. The
    helper is reaped on every path, killed first if the block raises, and leaves
    through ``os._exit``: it runs no exit handler, flushes no inherited buffer and
    never touches this process's files."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not wanted or n < 2 or not hasattr(os, "fork") or cpus < 2:
        yield n, None
        return
    stop = n // 2
    read_fd, write_fd = os.pipe()
    try:
        # Python 3.12+ warns that fork in a process with threads may deadlock the
        # child. fwcsim's only other threads are OpenBLAS's pool, and OpenBLAS's own
        # fork handler (pthread_atfork) stops that pool before the fork, so the
        # helper inherits no lock a pool thread holds; its first threaded BLAS call
        # would start a pool of its own.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no helper: the caller does every row
        os.close(read_fd)
        os.close(write_fd)
        yield n, None
        return
    if pid == 0:  # the helper
        code = 1
        try:
            os.close(read_fd)
            data = part(stop, n)  # all of it before the pipe fills
            with open(write_fd, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "big"))
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    reader = open(read_fd, "rb", buffering=0)

    def tail():
        data = reader.readall()  # the length in 8 bytes, then the data
        if int.from_bytes(data[:8], "big") == len(data) - 8:
            return memoryview(data)[8:]
        return part(stop, n)

    try:
        yield stop, tail
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:  # after the caller's block, so the helper's exit overlaps it
        reader.close()
        os.waitpid(pid, 0)


def _rows_in_two(fill, cells: np.ndarray, wanted: bool) -> None:
    """Fill every row of the float64 array ``cells`` in place through ``fill(lo,
    hi)``, which fills rows ``[lo, hi)``, at one BLAS thread. Where ``_forked``
    forks a helper (only where the thread count can be set, so the helper runs at
    one thread too), the helper fills the rows from ``len(cells) // 2`` on and one
    slice assignment copies them in."""
    def part(lo, hi):
        fill(lo, hi)
        return cells[lo:hi].tobytes()

    with (_one_blas_thread() as single,
          _forked(len(cells), part, single and wanted) as (stop, tail)):
        fill(0, stop)
        if tail:
            cells[stop:] = np.frombuffer(tail()).reshape(cells[stop:].shape)


@dataclass(frozen=True)
class Repeat:
    """One cell value repeated down every row of a column block."""

    value: object


@dataclass
class ResultTable:
    """A table stored as column blocks, written to CSV one column at a time.

    Each block is (row count, one entry per column). An entry is a sequence
    with one cell per row (an ndarray's cells are its ``tolist()``) or a
    ``Repeat`` of one cell. ``companions`` maps a file-name suffix to a table
    written beside this one.
    """

    columns: tuple[str, ...]
    metadata: dict = field(default_factory=dict)
    companions: dict[str, "ResultTable"] = field(default_factory=dict)
    blocks: list[tuple[int, tuple]] = field(default_factory=list, repr=False)

    @property
    def rows(self) -> list[tuple]:
        """The rows as tuples, rebuilt from the blocks on each access."""
        return [row for n, cells in self.blocks for row in zip(*(
            repeat(c.value, n) if isinstance(c, Repeat)
            else c.tolist() if isinstance(c, np.ndarray) else c for c in cells))]

    def append(self, *values) -> None:
        self.extend_columns(*([v] for v in values))

    def extend_columns(self, *columns) -> None:
        """Append one row per position of the equal-length sequences in ``columns``;
        a ``Repeat`` entry puts its value in each of those rows."""
        if len(columns) != len(self.columns):
            raise ValueError(f"{len(columns)} cells or columns for {len(self.columns)} columns")
        lengths = {len(c) for c in columns if not isinstance(c, Repeat)}
        if len(lengths) != 1:
            raise ValueError(f"column lengths {sorted(lengths)} are not one row count")
        self.blocks.append((lengths.pop(), columns))

    def write_csv(self, path: str | Path, during=lambda: None):
        """The header, then the rows; returns ``during()``, run once this process
        has written its rows. From SPLIT_ROWS rows, where ``_forked`` forks a
        helper, the helper formats the rows from the midpoint on meanwhile. Both
        halves go through ``_blocks_text`` and CSV rows do not depend on each
        other, so the bytes are those of a serial write, also if ``during`` raises."""
        total = sum(n for n, _ in self.blocks)

        def text(lo, hi):
            return b"".join(_blocks_text(_row_range(self.blocks, lo, hi)))

        with _forked(total, text, total >= SPLIT_ROWS) as (stop, tail):
            with open(path, "wb") as fh:
                fh.write((",".join(self.columns) + "\n").encode())
                fh.writelines(_blocks_text(_row_range(self.blocks, 0, stop)))
                try:
                    return during()
                finally:
                    if tail:
                        fh.write(tail())

    def _meta_text(self) -> str:
        return json.dumps(_json_ready(self.metadata), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def write_meta(self, path: str | Path, text: str | None = None) -> None:
        """Strict JSON: infinities are spelled out, and a NaN raises ValueError.
        ``text`` is that JSON where the caller encoded it already."""
        Path(path).write_text(text or self._meta_text())

    def write(self, path: Path) -> None:
        """The CSV at ``path``, then the meta at ``<stem>.meta.json`` and each
        companion at ``<stem>_<suffix>.csv``. The meta's JSON is encoded while a
        CSV helper formats its rows, and written after the CSV."""
        self.write_meta(path.with_suffix(".meta.json"), self.write_csv(path, self._meta_text))
        for suffix, companion in self.companions.items():
            companion.write_csv(path.with_name(f"{path.stem}_{suffix}.csv"))
