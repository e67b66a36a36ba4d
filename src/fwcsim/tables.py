"""Result tables with pinned CSV schemas and config-echo sidecars.

CSV contract: header row mandatory, LF line endings, '.' decimal separator,
floats via repr (shortest round-trip) so identical configs yield identical
bytes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path


def _json_safe(value):
    """``value`` with every infinite float spelled "inf" or "-inf"."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


# Cells of exactly these types format as format_cell would, without its checks;
# bool, numpy scalars and any other type still go through format_cell.
_EXACT_FORMAT = {float: float.__repr__, str: str, int: int.__repr__}


@dataclass
class ResultTable:
    kind: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def extend_columns(self, *columns) -> None:
        """Append one row per position of the equal-length sequences ``columns``."""
        if len(columns) != len(self.columns):
            raise ValueError(
                f"{len(columns)} columns given for {len(self.columns)} columns"
            )
        self.rows.extend(zip(*columns, strict=True))

    def write_csv(self, path: str | Path) -> None:
        lines = [",".join(self.columns)]
        fast = _EXACT_FORMAT.get
        lines.extend(",".join([fast(type(v), format_cell)(v) for v in row]) for row in self.rows)
        Path(path).write_bytes(("\n".join(lines) + "\n").encode())

    def write_meta(self, path: str | Path) -> None:
        """Strict JSON: infinities are spelled out, and a NaN raises ValueError."""
        text = json.dumps(_json_safe(self.metadata), sort_keys=True, indent=2, allow_nan=False)
        Path(path).write_text(text + "\n")


def meta_path_for(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")
