"""Deterministic data-parallel estimation.

The parent builds the principal domain's run table once, a
:class:`~hospectra.tiled.Runs`, cuts the domain from it without expanding it, and
forks one worker per non-empty slice, importing ``multiprocessing`` only then.
Each inherits the spectra, the config, the table and one anonymous shared mapping,
the grid's values, so nothing is pickled. It asks the kernel to kill it when the
parent dies, which a signal can do without running any ``finally``; one
:func:`~hospectra.spectra.estimate_slice` call on its cut of the table,
``runs.cut(start, stop)``, then writes its values (bit-identical to the
whole-domain sweep) straight into the mapping. It sends its working-set peak or
its exception through its own pipe and exits. The parent only waits: the first
failure is raised at once, and on every exit it kills and joins all workers. The
fork context is explicit (Python 3.14 changes the default); Linux is assumed.

The materialized plans (NAIVE, WS, PREFIX) run single-worker whatever the
requested count: any slice of theirs is bit-identical too, but each worker
would rebuild the whole grid (NAIVE: the domain's bounding box).
"""

from __future__ import annotations

import mmap
import os
import signal
from dataclasses import dataclass

import numpy as np

from .dft import dft_segments
from .errors import ParameterError
from .meter import WORKSPACE
from .series import TimeSeries, segment_and_demean
from .spectra import (EstimationConfig, SpectrumGrid, domain_runs, estimate_from_spectra,
                      estimate_slice)
from .window_sums import MATERIALIZED_PLANS

__all__ = ["WorkerConfig", "parallel_estimate"]


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


def _cuts(runs, workers: WorkerConfig) -> list[int]:
    """Cut offsets ``[0, ..., size]`` of the domain whose whole run table is ``runs``:
    worker ``i`` gets ``[cuts[i], cuts[i + 1])``, maybe empty. ``point_blocks`` parts differ
    in size by at most one; a ``row_blocks`` cut is the first position of a leading index
    at or past its share, or the domain's size."""
    total, p = runs.size, workers.p
    if workers.partition == "point_blocks":
        q, r = divmod(total, p)
        return [0] + np.cumsum([q + 1] * r + [q] * (p - r)).tolist()
    rows = np.append(runs.offsets[np.flatnonzero(np.diff(runs.lead[:, 0], prepend=-1))], total)
    return [0] + rows[np.searchsorted(rows, np.arange(1, p) * (total / p))].tolist() + [total]


def _worker_run(parent, spec_set, cfg, runs, start, stop, values, conn) -> None:
    """Fill ``values[start:stop]``, cut from ``runs``; send the working-set peak or the error.
    Killed when the process ``parent`` dies, even before this call: ``PR_SET_PDEATHSIG``."""
    import ctypes

    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG = 1
    if os.getppid() != parent:  # it died first
        os._exit(1)
    try:
        WORKSPACE.reset()
        estimate_slice(spec_set, cfg, runs.cut(start, stop), values[start:stop])
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
    import multiprocessing
    from multiprocessing.connection import wait

    runs = domain_runs(cfg.order, spec_set.m)
    cuts, fork = _cuts(runs, workers), multiprocessing.get_context("fork")
    values = np.frombuffer(mmap.mmap(-1, 16 * cuts[-1]), np.complex128)
    workers_of, peaks = {}, []
    try:
        for start, stop in zip(cuts, cuts[1:]):
            if start < stop:
                reader, writer = fork.Pipe(duplex=False)
                proc = fork.Process(target=_worker_run,
                                     args=(os.getpid(), spec_set, cfg, runs, start, stop,
                                           values, writer))
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
    # the workers ran at once, each with its own meter: the sum of their peaks on top of
    # what is registered here is the deterministic model of the joint high-water mark
    WORKSPACE.drop(WORKSPACE.note_bytes(sum(peaks)))
    return SpectrumGrid(order=cfg.order, m=spec_set.m, m3=cfg.m3, plan=cfg.plan, values=values)
