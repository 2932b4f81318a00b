"""Host and input record attached to every result (read-only probes)."""

from __future__ import annotations

import os
import platform
from pathlib import Path

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _size_bytes(text: str) -> int:
    text = text.strip()
    mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:].upper(), 1)
    return int(text.rstrip("KMGkmg")) * mult


def last_level_cache_bytes() -> int | None:
    """Size of the highest-level cache cpu0 reports, or None if unreadable."""
    best = None
    try:
        for index in CACHE_DIR.glob("index*"):
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "llc_bytes": last_level_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def input_record(wl, npoints: int, csv_bytes: int | None, llc_bytes: int | None) -> dict:
    """Byte sizes of one job's data. The working set is series + segment
    spectra + grid (complex128 values and int32 bins)."""
    series = wl.n * 8
    spectra = wl.k * wl.m * 16
    grid = npoints * (16 + 4 * (wl.order - 1))
    working_set = series + spectra + grid
    return {
        "series_bytes": series,
        "spectra_bytes": spectra,
        "grid_bytes": grid,
        "csv_bytes": csv_bytes,
        "points": npoints,
        "working_set_bytes": working_set,
        "working_set_over_llc": working_set / llc_bytes if llc_bytes else None,
    }
