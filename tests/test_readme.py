"""The README's Python API sketch runs as written."""
import re
from pathlib import Path

from fwcsim.config import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _readme_config_keys() -> list[tuple[str | None, str]]:
    """(group, key) of each row of the README "Configuration defaults" table;
    top-level keys have the group None."""
    section = README.read_text().split("## Configuration defaults", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    keys, group = [], None
    for row in rows:
        group_cell, key_cell = (cell.strip() for cell in row.split("|")[1:3])
        if group_cell:
            group = None if group_cell == "top level" else group_cell.strip("`")
        names = re.findall(r"`(\w+)`", key_cell)
        keys += [(group, name) for name in names] if names else [(None, group)]
    return keys


def test_readme_config_table_matches_defaults():
    resolved = ExperimentConfig().resolved()
    leaves = [(group, key) for group, value in resolved.items() if isinstance(value, dict)
              for key in value]
    leaves += [(None, key) for key, value in resolved.items() if not isinstance(value, dict)]
    assert sorted(_readme_config_keys(), key=str) == sorted(leaves, key=str)
