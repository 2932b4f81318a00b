"""Deterministic data-parallel estimation.

Work is split over OS processes by partitioning the principal domain; each
worker computes its points with the same window-aligned engine units a
single-worker sweep would use, so the result is bit-identical for every
worker count. Workers share nothing but the read-only segment spectra
(shipped once) and a shared-memory output buffer with disjoint regions.

The materialized plans (NAIVE, WS, PREFIX) carry row-to-row arithmetic
state across the whole grid; splitting them would change the summation
order, so they always execute single-worker regardless of the requested
count (the lean source-on-demand plans are the ones worth scaling anyway).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from .dft import SegmentSpectrumSet, dft_segments
from .errors import ParameterError
from .meter import WORKSPACE
from .series import SegmentConfig, TimeSeries, segment_and_demean
from .spectra import (
    EstimationConfig,
    SpectrumGrid,
    estimate_from_spectra,
    principal_domain,
    smoothed_values,
)
from .window_sums import MATERIALIZED_PLANS, SmoothingPlan

__all__ = ["WorkerConfig", "partition_domain", "parallel_estimate"]


@dataclass(frozen=True)
class WorkerConfig:
    """Worker count and output-partition strategy.

    ``point_blocks`` splits the lexicographic point list into contiguous
    chunks whose sizes differ by at most one. ``row_blocks`` assigns whole
    leading-index rows, balancing point counts at row granularity.
    Assignments depend only on (p, domain), never on timing.
    """

    p: int = 1
    partition: str = "row_blocks"

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError(f"worker count must be >= 1, got {self.p}")
        if self.partition not in ("row_blocks", "point_blocks"):
            raise ParameterError(
                f"partition must be 'row_blocks' or 'point_blocks', got {self.partition!r}"
            )


def _split_bounds(domain, workers: WorkerConfig) -> list[int]:
    """Cut offsets (including 0 and len) realizing the partition policy."""
    dom = np.asarray(domain)
    total = len(dom)
    p = workers.p
    if p == 1 or total == 0:
        return [0, total] + [total] * (p - 1)
    if workers.partition == "point_blocks":
        q, r = divmod(total, p)
        sizes = [q + 1] * r + [q] * (p - r)
        return [0] + list(np.cumsum(sizes))
    _, first_idx, counts = np.unique(dom[:, 0], return_index=True, return_counts=True)
    cum = np.cumsum(counts)
    targets = np.arange(1, p) * (total / p)
    group_bounds = np.searchsorted(cum, targets, side="left") + 1
    cuts = [
        int(first_idx[b]) if b < len(first_idx) else total for b in group_bounds
    ]
    return [0] + cuts + [total]


def partition_domain(domain, workers: WorkerConfig) -> list:
    """Split a lex-ordered domain into ``workers.p`` disjoint contiguous
    parts whose concatenation reproduces the input.

    ``point_blocks`` parts differ in size by at most one; ``row_blocks``
    parts are balanced at whole-row granularity."""
    dom = np.asarray(domain)
    bounds = _split_bounds(dom, workers)
    return [dom[bounds[i] : bounds[i + 1]] for i in range(workers.p)]


def _worker_run(payload: dict) -> int:
    """Compute one partition's values into the shared output buffer and
    report this process's smoothing working-set peak. The partition
    travels as two domain offsets, not as index arrays."""
    WORKSPACE.reset()
    spec_set = SegmentSpectrumSet(spectra=payload["spectra"])
    cfg = EstimationConfig(
        order=payload["order"],
        segment=SegmentConfig(m=spec_set.m, k=spec_set.k),
        m3=payload["m3"],
        plan=SmoothingPlan[payload["plan"]],
        conjugate_last=payload["conjugate_last"],
    )
    start, stop = payload["start"], payload["stop"]
    values = smoothed_values(spec_set, cfg, start, stop)
    shm = shared_memory.SharedMemory(name=payload["shm_name"])
    try:
        buf = np.ndarray(payload["total"], dtype=np.complex128, buffer=shm.buf)
        buf[start:stop] = values
    finally:
        shm.close()
    return WORKSPACE.peak


def parallel_estimate(
    series: TimeSeries, cfg: EstimationConfig, workers: WorkerConfig
) -> SpectrumGrid:
    """Same contract and bit-identical output as ``estimate_spectrum``,
    computed by ``workers.p`` processes."""
    cfg.segment.validate_for(series)
    spec_set = dft_segments(segment_and_demean(series, cfg.segment))
    if workers.p == 1 or cfg.plan in MATERIALIZED_PLANS:
        return estimate_from_spectra(spec_set, cfg)
    dom = principal_domain(cfg.order, spec_set.m)
    total = len(dom)
    if total == 0:
        return estimate_from_spectra(spec_set, cfg)
    bounds = _split_bounds(dom, workers)
    shm = shared_memory.SharedMemory(create=True, size=total * 16)
    try:
        payload_common = {
            "spectra": spec_set.spectra,
            "order": cfg.order,
            "m3": cfg.m3,
            "plan": cfg.plan.name,
            "conjugate_last": cfg.conjugate_last,
            "shm_name": shm.name,
            "total": total,
        }
        with ProcessPoolExecutor(max_workers=workers.p) as pool:
            futures = []
            for i in range(workers.p):
                start, stop = int(bounds[i]), int(bounds[i + 1])
                if start == stop:
                    continue
                payload = dict(payload_common, start=start, stop=stop)
                futures.append(pool.submit(_worker_run, payload))
            peaks = [f.result() for f in futures]
        WORKSPACE.absorb_concurrent(peaks)
        values = np.ndarray(total, dtype=np.complex128, buffer=shm.buf).copy()
    finally:
        shm.close()
        shm.unlink()
    return SpectrumGrid(
        order=cfg.order, m=spec_set.m, m3=cfg.m3, plan=cfg.plan,
        indices=dom, values=values,
    )
