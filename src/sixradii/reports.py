"""Deterministic CSV and JSON report writers.

CSV uses '.' decimals, a mandatory header row, and newline-terminated rows;
floats are written with repr (shortest round-trip form) so files compare
byte for byte across runs and platforms. Provenance JSON records the
config keys the command reads and their digest but nothing volatile (no
timestamps, no thread counts), keeping outputs reproducible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from . import __version__
from .config import RunConfig, digest, serialize


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: Mapping) -> None:
    """Strict JSON: a value that could not be computed is null, and a NaN raises ValueError."""
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def provenance_payload(
    command: str, cfg: RunConfig, reads: Collection[str], parameters: Mapping, results: Mapping
) -> dict:
    """The provenance record of a command that reads the config keys ``reads``."""
    return {
        "command": command,
        "version": __version__,
        **({"seed": cfg.seed} if "seed" in reads else {}),
        "config": serialize(cfg, reads),
        "config_digest": digest(cfg, reads),
        "parameters": dict(parameters),
        "results": dict(results),
    }
