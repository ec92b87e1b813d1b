"""Deterministic CSV and JSON report writers.

CSV uses '.' decimals, a mandatory header row, and newline-terminated rows;
cells are formatted by :func:`sixradii.config.format_value`, which writes
floats with repr (shortest round-trip form), so files compare byte for byte
across runs and platforms. Provenance JSON records the config keys the
command reads and their digest but nothing volatile (no timestamps, no
thread counts), keeping outputs reproducible.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from . import __version__
from .config import RunConfig, digest, format_value, serialize


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: Mapping) -> None:
    """Strict JSON: a value that could not be computed is null, and a NaN raises ValueError."""
    import json  # here, so that a command that writes no JSON report does not load it

    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def provenance_payload(
    command: str, cfg: RunConfig, reads: Collection[str], parameters: Mapping, results: Mapping
) -> dict:
    """The provenance record of a command that reads the config keys ``reads``.

    A seeded command's results come from numpy's PCG64 streams, so its
    record names the numpy version too; it is read from the loaded module
    only, so that a command that ran no kernel loads no numpy for it.
    """
    numpy = sys.modules.get("numpy") if "seed" in reads else None
    return {
        "command": command,
        "version": __version__,
        **({"numpy": numpy.__version__} if numpy is not None else {}),
        **({"seed": cfg.seed} if "seed" in reads else {}),
        "config": serialize(cfg, reads),
        "config_digest": digest(cfg, reads),
        "parameters": dict(parameters),
        "results": dict(results),
    }
