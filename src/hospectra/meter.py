"""High-water accounting of the smoothing working set.

The smoothing engines register every working buffer they allocate (row
bands, square blocks, materialized boxes and the values gathered from them,
transients as large as a buffer, and the sliding tail the lean fetch object
holds from one plane to the next, every held column) with a process-global
meter. It models the working set deterministically, so plan comparisons
isolate the engines.
It leaves out smaller NumPy temporaries and what lies outside the engines'
buffers: the input (series, or matrix, wrap-padded if periodic), the segment
DFTs, the principal domain's run table and the block branch's lexsorted copy,
the lean path's per-band run lists, and the output, bar one case: the
materialized plans count the slice's ``values`` (all the output: a grid derives
its index tuples) and the index tuples they expand while they gather from the
smoothed box. OS-level peak RSS is reported separately by the benchmark harness.
"""

from __future__ import annotations

from contextlib import contextmanager


class AllocationMeter:
    """Tracks currently-registered bytes and their high-water mark."""

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def reset(self) -> None:
        self.current = 0
        self.peak = 0

    def note(self, *arrays) -> int:
        """Register arrays as live working memory; returns the byte total."""
        return self.note_bytes(sum(a.nbytes for a in arrays))

    def note_bytes(self, nbytes: int) -> int:
        self.current += int(nbytes)
        if self.current > self.peak:
            self.peak = self.current
        return int(nbytes)

    def drop(self, nbytes: int) -> None:
        self.current -= int(nbytes)

    @contextmanager
    def held(self, *arrays):
        """Scope in which the given arrays count toward the working set."""
        nbytes = self.note(*arrays)
        try:
            yield
        finally:
            self.drop(nbytes)


#: Process-global meter used by the smoothing engines.
WORKSPACE = AllocationMeter()
