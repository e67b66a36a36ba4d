"""Result tables with pinned CSV schemas and config-echo sidecars.

CSV contract: header row mandatory, LF line endings, '.' decimal separator,
floats via repr (shortest round-trip) so identical configs yield identical
bytes.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from pathlib import Path


def _json_ready(value):
    """``value`` as plain JSON values: dataclasses as dicts by field, tuples as
    lists, enum members as their values and infinite floats as "inf" or "-inf"."""
    if isinstance(value, float):  # first: most values are the floats of an axis
        return ("inf" if value > 0 else "-inf") if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {f.name: _json_ready(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _column_text(column) -> list[str]:
    """Each cell of ``column`` as format_cell writes it.

    A column of floats (numpy float64 included, whose float repr format_cell
    writes) is one map of ``float.__repr__``, which raises TypeError at the first
    cell that is no float; any other column goes cell by cell.
    """
    try:
        return list(map(float.__repr__, column))
    except TypeError:
        return list(map(format_cell, column))


@dataclass(frozen=True)
class Repeat:
    """One cell value repeated down every row of a column block."""

    value: object


@dataclass
class ResultTable:
    """A table stored as column blocks, written to CSV one column at a time.

    Each block is (row count, one entry per column). An entry is a sequence
    with one cell per row or a ``Repeat`` of one cell. A sequence object that
    several blocks share, such as a common axis, is formatted once per write.
    ``companions`` maps a file-name suffix to a table written beside this one.
    """

    columns: tuple[str, ...]
    metadata: dict = field(default_factory=dict)
    companions: dict[str, "ResultTable"] = field(default_factory=dict)
    blocks: list[tuple[int, tuple]] = field(default_factory=list, repr=False)

    @property
    def rows(self) -> list[tuple]:
        """The rows as tuples, rebuilt from the blocks on each access."""
        return [row for n, cells in self.blocks for row in zip(
            *(repeat(c.value, n) if isinstance(c, Repeat) else c for c in cells))]

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

    def write_csv(self, path: str | Path) -> None:
        texts = {}  # id(sequence) -> its formatted cells
        with open(path, "wb") as fh:
            fh.write((",".join(self.columns) + "\n").encode())
            for n, cells in self.blocks:
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
                    lines[2 * j::width] = texts[id(cell)]
                fh.write("".join(lines).encode())

    def write_meta(self, path: str | Path) -> None:
        """Strict JSON: infinities are spelled out, and a NaN raises ValueError."""
        text = json.dumps(_json_ready(self.metadata), sort_keys=True, indent=2, allow_nan=False)
        Path(path).write_text(text + "\n")
