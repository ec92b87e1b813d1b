"""Machine block of the benchmark report: CPUs, versions, cache, copy bandwidth.

The last-level cache size is read from /sys. The copy bandwidth is measured
with numpy on two arrays of at least four times the summed last-level caches,
in a fresh process so that the arrays are gone when it exits:

    python3 bench/machine.py --copy-bytes 1342177280
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

_CPU_DIR = Path("/sys/devices/system/cpu")
_FALLBACK_ARRAY_BYTES = 1 << 30


def _size_bytes(text: str) -> int:
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def last_level_cache_bytes() -> int | None:
    """Sum of the distinct last-level cache instances serving this machine's CPUs."""
    instances: dict[str, int] = {}
    top_level = 0
    for cpu in sorted(_CPU_DIR.glob("cpu[0-9]*")):
        for index in sorted((cpu / "cache").glob("index[0-9]*")):
            try:
                if (index / "type").read_text().strip() == "Instruction":
                    continue
                level = int((index / "level").read_text())
                size = _size_bytes((index / "size").read_text())
                shared = (index / "shared_cpu_list").read_text().strip()
            except (OSError, ValueError):
                continue
            if level > top_level:
                top_level, instances = level, {}
            if level == top_level:
                instances[shared] = size
    return sum(instances.values()) or None


def machine_block() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "llc_bytes": last_level_cache_bytes(),
    }


def measure_copy_bandwidth(llc_bytes: int | None) -> dict:
    """Best-of-three numpy copy bandwidth, counting bytes read plus written."""
    array_bytes = 4 * llc_bytes if llc_bytes else _FALLBACK_ARRAY_BYTES
    out = subprocess.run(
        [sys.executable, __file__, "--copy-bytes", str(array_bytes)],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _copy_bandwidth(array_bytes: int) -> dict:
    import numpy as np

    src = np.ones(array_bytes // 8)
    dst = np.zeros_like(src)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return {"array_bytes": src.nbytes, "copy_gbps": 2 * src.nbytes / best / 1e9}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="measure numpy copy bandwidth")
    parser.add_argument("--copy-bytes", type=int, required=True)
    print(json.dumps(_copy_bandwidth(parser.parse_args().copy_bytes)))
