"""Benchmark harness: timed, memory-metered estimation runs.

Two memory figures are reported per run: ``peak_extra_bytes`` is the
deterministic, allocator-instrumented high-water mark of the smoothing
working set (see :mod:`hospectra.meter`; for parallel runs, the sum of the
per-worker peaks); ``peak_rss_bytes`` is the OS-reported process maximum
RSS, which is informational and monotone over the process lifetime.

Cells run sequentially so timings do not contaminate each other. Limits
are enforced between repeats: a cell whose first repeat exceeds the time
or memory threshold is recorded with status ``"exceeded"`` and not
repeated; nothing is killed mid-computation.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .meter import WORKSPACE
from .parallel import WorkerConfig, parallel_estimate
from .series import SegmentConfig, TimeSeries, generate_qpc
from .spectra import EstimationConfig
from .window_sums import SmoothingPlan

__all__ = [
    "BenchReport",
    "reference_window",
    "measure_run",
    "measure_peak_memory",
    "run_benchmarks",
    "reports_to_json",
]

#: Reference smoothing-window ladder keyed by series length (the sizes
#: used in the benchmark comparisons); other sizes are interpolated on
#: the same roughly n^0.62 growth curve.
REFERENCE_WINDOWS = {
    128: 21, 256: 33, 512: 49, 1024: 77, 2048: 117, 4096: 181, 8192: 279,
}


def reference_window(n: int) -> int:
    if n in REFERENCE_WINDOWS:
        return REFERENCE_WINDOWS[n]
    w = int(round(21.0 * (n / 128.0) ** 0.622)) | 1
    # clamp to the largest odd window below n / 2: (x - 1) | 1 is the largest odd <= x
    return max(1, min(w, ((n - 1) // 2 - 1) | 1))


@dataclass
class BenchReport:
    """One measured benchmark cell. Field names are the JSON schema."""

    plan: str
    order: int
    n: int
    M: int
    K: int
    M3: int
    P: int
    wall_seconds: float
    peak_extra_bytes: int
    peak_rss_bytes: int
    checksum: float
    status: str = "ok"

    def to_dict(self) -> dict:
        return asdict(self)


def peak_rss_bytes() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def measure_run(series: TimeSeries, cfg: EstimationConfig, workers: WorkerConfig | None = None):
    """One estimation run: returns ``(grid, wall_seconds, peak_extra_bytes)``.

    Collects garbage before starting the clock so that heap churn left by
    earlier runs is not billed to this one."""
    gc.collect()
    WORKSPACE.reset()
    t0 = time.perf_counter()
    grid = parallel_estimate(series, cfg, workers or WorkerConfig(p=1))
    wall = time.perf_counter() - t0
    return grid, wall, WORKSPACE.peak


def measure_peak_memory(
    series: TimeSeries, cfg: EstimationConfig, workers: WorkerConfig | None = None
) -> int:
    """Instrumented high-water mark of the smoothing working set for one
    run: engine buffers plus any grids the plan materializes, excluding the
    input series and the segment DFTs. The lean plans leave out the output
    values too; the materialized plans count them and the index tuples they
    gather at (see :mod:`hospectra.meter`)."""
    _, _, peak = measure_run(series, cfg, workers)
    return int(peak)


def _resolve_windows(windows, sizes):
    if windows == "reference":
        return [reference_window(n) for n in sizes]
    if isinstance(windows, int):
        return [windows] * len(sizes)
    windows = list(windows)
    if len(windows) == 1:
        return windows * len(sizes)
    if len(windows) != len(sizes):
        raise ParameterError(
            f"got {len(windows)} windows for {len(sizes)} sizes; "
            "give one window, one per size, or 'reference'"
        )
    return windows


def run_benchmarks(
    orders,
    sizes,
    plans,
    threads_list=(1,),
    repeats: int = 3,
    time_limit: float = 60.0,
    mem_limit: int = 4 * 2**30,
    seed: int = 1234,
    windows="reference",
) -> list[BenchReport]:
    """Run the cross-product of (order, size, plan, threads) sequentially.

    Each cell estimates the spectrum of a seeded phase-coupled test series
    of length ``n`` with one segment of the same length. ``wall_seconds``
    is the median over ``repeats`` runs unless the first run exceeds a
    limit, in which case the cell is recorded as exceeded and not repeated.
    """
    orders = list(orders)
    sizes = list(sizes)
    plans = [SmoothingPlan.parse(p) if isinstance(p, str) else p for p in plans]
    threads_list = list(threads_list)
    if not orders or not sizes or not plans or not threads_list:
        raise ParameterError("empty benchmark cross-product")
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    # every cell's configs first, so a bad one is refused before any cell runs
    cells = [(EstimationConfig(order=order, segment=SegmentConfig(m=n, k=1), m3=m3, plan=plan),
              WorkerConfig(p=p))
             for order in orders for n, m3 in zip(sizes, _resolve_windows(windows, sizes))
             for plan in plans for p in threads_list]
    series_cache: dict[int, TimeSeries] = {}
    reports = []
    for cfg, workers in cells:
        n = cfg.segment.m
        if n not in series_cache:
            series_cache[n] = generate_qpc(0.1, 0.15, n, noise_sigma=0.5, seed=seed)
        series = series_cache[n]
        grid, wall, peak = measure_run(series, cfg, workers)
        checksum = float(np.abs(grid.values).sum())
        walls, status = [wall], "exceeded" if wall > time_limit or peak > mem_limit else "ok"
        if status == "ok":
            walls += [measure_run(series, cfg, workers)[1] for _ in range(repeats - 1)]
        reports.append(
            BenchReport(
                plan=cfg.plan.name, order=cfg.order, n=n, M=n, K=1, M3=cfg.m3, P=workers.p,
                wall_seconds=float(statistics.median(walls)),
                peak_extra_bytes=int(peak),
                peak_rss_bytes=peak_rss_bytes(),
                checksum=checksum,
                status=status,
            )
        )
    return reports


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
