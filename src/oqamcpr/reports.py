"""Deterministic CSV and run-manifest writing.

Floats are rendered with ``repr`` (shortest round-trip form), manifests
with sorted keys and no timestamps, so re-running a scenario from its
manifest reproduces every output byte for byte.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

OUTPUT_DIR_ENV = "OQAMCPR_OUTPUT_DIR"


def format_number(value) -> str:
    if type(value) is float:  # the common case, first
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, header, rows, comments=()) -> Path:
    with path.open("w") as out:  # line by line: no second copy of the table in memory
        out.writelines(f"# {c}\n" for c in comments)
        out.write(",".join(header) + "\n")
        out.writelines(",".join(map(format_number, row)) + "\n" for row in rows)
    return path


def read_csv(path: str | Path):
    """Read a CSV written by this tool: (header, columns dict of float lists)."""
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if not lines:
        raise ValueError(f"{path}: no data")
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: row {n} has {len(parts)} fields, expected {len(header)}")
        for name, part in zip(header, parts):
            try:
                columns[name].append(float(part))
            except ValueError as exc:
                raise ValueError(f"{path}: row {n}: bad number {part!r}") from exc
    if not columns[header[0]]:
        raise ValueError(f"{path}: no data rows")
    return header, columns


def resolve_output_dir(explicit: str | None, config_dir: str | None) -> Path:
    """Precedence: CLI flag, then environment override, then config, then cwd."""
    chosen = explicit or os.environ.get(OUTPUT_DIR_ENV) or config_dir or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_manifest(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def value_slug(value) -> str:
    """Filesystem-safe tag for a swept parameter value."""
    return (
        f"{value:g}".replace("+", "").replace("-", "m").replace(".", "p")
    )
