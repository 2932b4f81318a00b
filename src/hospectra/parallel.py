"""Deterministic data-parallel estimation.

Each worker process gets the segment spectra, the estimation config and one
contiguous slice of the principal domain, and runs the sequential
:func:`hospectra.spectra.smoothed_values` on it, which computes any slice
bit-identically to the whole-domain sweep. Workers write into disjoint
regions of one shared-memory buffer. The pool has one process per non-empty
slice; on every exit, a worker's exception included, the pool is shut down
and the buffer unlinked.

The materialized plans (NAIVE, WS, PREFIX) run single-worker whatever the
requested count: any slice of theirs is bit-identical too, but each worker
would rebuild the whole grid (NAIVE: the domain's bounding box).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from .dft import SegmentSpectrumSet, dft_segments
from .errors import ParameterError
from .meter import WORKSPACE
from .series import TimeSeries, segment_and_demean
from .spectra import (
    EstimationConfig,
    SpectrumGrid,
    estimate_from_spectra,
    principal_domain,
    smoothed_values,
)
from .window_sums import MATERIALIZED_PLANS

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


def partition_domain(domain, workers: WorkerConfig) -> list[int]:
    """Cut offsets ``[0, c1, ..., len(domain)]`` of a lex-ordered domain:
    worker ``i`` gets ``domain[cuts[i]:cuts[i + 1]]``, which may be empty.

    ``point_blocks`` parts differ in size by at most one; ``row_blocks``
    parts are balanced at whole-row granularity."""
    total = len(domain)
    p = workers.p
    if workers.partition == "point_blocks":
        q, r = divmod(total, p)
        return [0] + np.cumsum([q + 1] * r + [q] * (p - r)).tolist()
    _, first_idx, counts = np.unique(domain[:, 0], return_index=True, return_counts=True)
    cum = np.cumsum(counts)
    targets = np.arange(1, p) * (total / p)
    group_bounds = np.searchsorted(cum, targets, side="left") + 1
    cuts = [int(first_idx[b]) if b < len(first_idx) else total for b in group_bounds]
    return [0] + cuts + [total]


def _worker_run(
    spec_set: SegmentSpectrumSet, cfg: EstimationConfig, start: int, stop: int, shm_name: str
) -> int:
    """Compute domain positions ``[start, stop)`` into the shared output
    buffer and report this process's smoothing working-set peak."""
    WORKSPACE.reset()
    values = smoothed_values(spec_set, cfg, start, stop)
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        np.ndarray(stop, dtype=np.complex128, buffer=shm.buf)[start:] = values
    finally:
        shm.close()
    return WORKSPACE.peak


def parallel_estimate(
    series: TimeSeries, cfg: EstimationConfig, workers: WorkerConfig
) -> SpectrumGrid:
    """Same contract and bit-identical output as ``estimate_spectrum``,
    computed by up to ``workers.p`` processes."""
    spec_set = dft_segments(segment_and_demean(series, cfg.segment))
    if workers.p == 1 or cfg.plan in MATERIALIZED_PLANS:
        return estimate_from_spectra(spec_set, cfg)
    dom = principal_domain(cfg.order, spec_set.m)
    cuts = partition_domain(dom, workers)
    slices = [(start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop]
    shm = shared_memory.SharedMemory(create=True, size=len(dom) * 16)
    try:
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            futures = [
                pool.submit(_worker_run, spec_set, cfg, start, stop, shm.name)
                for start, stop in slices
            ]
            peaks = [f.result() for f in futures]
        WORKSPACE.absorb_concurrent(peaks)
        values = np.ndarray(len(dom), dtype=np.complex128, buffer=shm.buf).copy()
    finally:
        shm.close()
        shm.unlink()
    return SpectrumGrid(
        order=cfg.order, m=spec_set.m, m3=cfg.m3, plan=cfg.plan,
        indices=dom, values=values,
    )
