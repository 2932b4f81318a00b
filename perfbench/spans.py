"""In-memory spans and the benchmark's own drive of the ``tiled`` engines.

Spans are recorded around calls into hospectra's public functions from the
benchmark's side; nothing inside the program is instrumented. A span has a
name, a job id shared by every span of one job, its parent span, a start and
an end.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records nested spans; children inherit the job id of their parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str | None = None):
        parent = self._open[-1] if self._open else None
        if job is None:
            if parent is None:
                raise ValueError(f"root span {name!r} needs a job id")
            job = self.spans[parent]["job"]
        rec = {"id": len(self.spans), "name": name, "job": job, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``; 0.0 when there are
        none (the layer is not on this workload's path)."""
        d = self.durations(name)
        return statistics.median(d) if d else 0.0


class CountingFetch:
    """Segment-averaged raw products, built from the direct-method formula
    ``F(k1) F(k2) ... conj(F(k1 + k2 + ...)) / M``, with indices shifted by
    the centred window offset and wrapped mod M. Counts calls, cells and
    the time spent inside; for order 4 it also notes each block origin."""

    def __init__(self, spectra: np.ndarray, w: int, order: int) -> None:
        self.k, self.m = spectra.shape
        self.f = spectra
        self.fc = np.conj(spectra)
        self.h = w // 2
        self.scale = 1.0 / (self.m * self.k)
        self.order = order
        self.calls = 0
        self.cells = 0
        self.seconds = 0.0
        self.blocks: set = set()

    def __call__(self, rows, cols, k3=None):
        t0 = time.perf_counter()
        m, h = self.m, self.h
        r = (np.asarray(rows) - h) % m
        c = (np.asarray(cols) - h) % m
        if self.order == 3:
            rc = (r + c) % m
            acc = self.f[0][r] * self.f[0][c] * self.fc[0][rc]
            for i in range(1, self.k):
                acc = acc + self.f[i][r] * self.f[i][c] * self.fc[i][rc]
        else:
            d = (int(k3) - h) % m
            rcd = (r + c + d) % m
            acc = (self.f[0][r] * self.f[0][c]) * (self.f[0][d] * self.fc[0][rcd])
            for i in range(1, self.k):
                acc = acc + (self.f[i][r] * self.f[i][c]) * (self.f[i][d] * self.fc[i][rcd])
            self.blocks.add((int(np.asarray(rows).flat[0]), int(np.asarray(cols).flat[0])))
        out = acc * self.scale
        self.calls += 1
        self.cells += out.size
        self.seconds += time.perf_counter() - t0
        return out


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end positions of runs of equal rows in a lex-ordered array."""
    change = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(keys)]])
    return starts, ends


def drive_tiled(hs, spectra: np.ndarray, indices: np.ndarray, w: int, plan: str) -> dict:
    """Smooth the principal domain given by ``indices`` through the public
    ``smoothed_cells_2d``/``smoothed_cells_3d`` with a counting fetch.

    Returns the smoothed values (same normalisation as the program's grid)
    and the engine counters. A unit is one yielded ``(row, col, values)``
    chunk for order 3 and one block of the leading two axes for order 4.
    """
    order = indices.shape[1] + 1
    m = spectra.shape[1]
    fetch = CountingFetch(spectra, w, order)
    out = np.empty(len(indices), dtype=np.complex128)
    t0 = time.perf_counter()
    if order == 3:
        starts, ends = _runs(indices[:, :1])
        rows = indices[starts, 0].tolist()
        first = indices[starts, 1].tolist()
        last = (indices[ends - 1, 1] + 1).tolist()
        where = {r: (int(s), c) for r, s, c in zip(rows, starts, first)}
        units = 0
        for row, c0, vals in hs.tiled.smoothed_cells_2d(
            fetch, m, m, w, plan, list(zip(rows, first, last))
        ):
            base, col = where[row]
            pos = base + c0 - col
            out[pos : pos + vals.size] = vals
            units += 1
    else:
        starts, ends = _runs(indices[:, :2])
        hs.tiled.smoothed_cells_3d(
            fetch, m, w, plan,
            indices[starts, 0].astype(np.int64), indices[starts, 1].astype(np.int64),
            indices[starts, 2].astype(np.int64), indices[ends - 1, 2].astype(np.int64) + 1,
            starts.astype(np.int64), out,
        )
        units = len(fetch.blocks)
    engine_s = time.perf_counter() - t0
    out /= float(w) ** (order - 1)
    return {
        "values": out,
        "engine_s": engine_s,
        "fetch_s": fetch.seconds,
        "fetch_calls": fetch.calls,
        "cells_fetched": fetch.cells,
        "units": units,
    }
