"""Deterministic data-parallel estimation.

The parent forks one worker per non-empty slice of the principal domain.
Each inherits the spectra, the config and one anonymous shared mapping, so
nothing is pickled; it writes :func:`hospectra.spectra.smoothed_values` of
its slice (bit-identical to the whole-domain sweep) into its own part of
the mapping, which is the grid's values, then sends its working-set peak or
its exception through its own pipe and exits. The first failure is raised
at once; on every exit the parent kills and joins all workers. The fork
context is explicit (Python 3.14 changes the default); Linux is assumed.

The materialized plans (NAIVE, WS, PREFIX) run single-worker whatever the
requested count: any slice of theirs is bit-identical too, but each worker
would rebuild the whole grid (NAIVE: the domain's bounding box).
"""

from __future__ import annotations

import mmap
import multiprocessing
from dataclasses import dataclass
from multiprocessing.connection import wait

import numpy as np

from .dft import dft_segments
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
    total, p = len(domain), workers.p
    if workers.partition == "point_blocks":
        q, r = divmod(total, p)
        return [0] + np.cumsum([q + 1] * r + [q] * (p - r)).tolist()
    starts = np.flatnonzero(np.diff(domain[:, 0], prepend=-1))  # first point of each row
    targets = np.arange(1, p) * (total / p)
    group_bounds = np.searchsorted(np.append(starts[1:], total), targets, side="left") + 1
    cuts = [int(starts[b]) if b < len(starts) else total for b in group_bounds]
    return [0] + cuts + [total]


def _worker_run(spec_set, cfg, start, stop, values, conn) -> None:
    """Fill ``values[start:stop]``; send the working-set peak or the exception."""
    try:
        WORKSPACE.reset()
        values[start:stop] = smoothed_values(spec_set, cfg, start, stop)
        conn.send(WORKSPACE.peak)
    except Exception as exc:
        conn.send(exc)


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
    fork = multiprocessing.get_context("fork")
    values = np.frombuffer(mmap.mmap(-1, 16 * len(dom)), np.complex128)
    workers_of, peaks = {}, []
    try:
        for start, stop in zip(cuts, cuts[1:]):
            if start < stop:
                reader, writer = fork.Pipe(duplex=False)
                proc = fork.Process(target=_worker_run,
                                     args=(spec_set, cfg, start, stop, values, writer))
                proc.start()
                writer.close()
                workers_of[reader] = (proc, start, stop)
        pending = dict(workers_of)
        while pending:
            for reader in wait(list(pending)):
                proc, start, stop = pending.pop(reader)
                try:
                    result = reader.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"worker for domain slice [{start}, {stop}) exited "
                                       f"with code {proc.exitcode} without a result") from None
                if isinstance(result, Exception):
                    raise result
                peaks.append(result)
    finally:
        for reader, (proc, _, _) in workers_of.items():
            reader.close()
            proc.kill()
            proc.join()
    WORKSPACE.absorb_concurrent(peaks)
    return SpectrumGrid(order=cfg.order, m=spec_set.m, m3=cfg.m3, plan=cfg.plan,
                        indices=dom, values=values)
