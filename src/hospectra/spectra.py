"""Higher-order spectrum estimation via the direct method, at any order >= 3.

Pipeline: segment and demean, per-segment DFT, raw products of ``order``
factors over boxes of the periodic frequency grid (the whole grid for WS
and PREFIX), summed over the segments, box smoothing through a window-sum
plan, averaging, and restriction to the principal domain.

Smoothing is centered: a window of side ``m3`` covers offsets
``[-m3//2, m3 - 1 - m3//2]`` per axis (symmetric for odd ``m3``, one cell
longer on the trailing side for even ``m3``), with periodic index wrapping
so every window is full and the normalization is exactly ``m3**(order-1)``.

Every order runs one pipeline; only the number of frequency axes, ``n =
order - 1``, differs. The principal domain, the ordered simplex ``0 <= kn <=
... <= k1`` with ``k1 + ... + kn < m/2``, is kept as a run table: a run is
the set of points sharing their first ``n - 1`` indices, whose last index
takes consecutive values. Built once per estimate by :func:`domain_runs`, the
:class:`~hospectra.tiled.Runs` table is cut into any contiguous slice, which
the one source-on-demand engine, :func:`~hospectra.tiled.smoothed_runs`,
takes as is. An estimate writes values
only; a grid derives its index tuples from ``(order, m)`` when read.

Every plan sums the raw products over the segments, then smooths once: the
materialized plans (NAIVE, WS, PREFIX) one box read over all segments, in
valid mode, and gather the domain's points from it; the lean plans sum inside
their fetch object, which from order 4 on folds every index past the second into
the last factor and slides the last one from plane to plane. By linearity this
is the mean of the segments' smoothed estimates within rounding (the test suite
pins this). One multiply of the ``float64`` parts by
``1/(K*M*M3**(order-1))``, the bits of NumPy's complex division by that real
(``tools/grid_digest.golden`` pins them), and an added ``0.0`` (``-0.0`` to
``+0.0``) follow either path, so at ``M3 = 1`` every plan gives the same bytes. All
plans but NAIVE share two 1-D kernels from :mod:`hospectra.tiled`:
:func:`~hospectra.tiled.running_sums` (WS, and FAST's row pass) and
:func:`~hospectra.tiled.box_sums` (PREFIX, the EFFICIENT and STREAMING row
passes, and every lean column pass).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dft import SegmentSpectrumSet, dft_segments
from .errors import ParameterError
from .meter import WORKSPACE
from .series import CSV_CHUNK_ROWS, SegmentConfig, TimeSeries, segment_and_demean, write_csv_rows
from .tiled import Runs, smoothed_runs
from .window_sums import MATERIALIZED_PLANS, SmoothingPlan, smooth

__all__ = [
    "EstimationConfig",
    "SpectrumPoint",
    "SpectrumGrid",
    "raw_product_value",
    "principal_domain",
    "domain_runs",
    "estimate_slice",
    "estimate_spectrum",
    "estimate_from_spectra",
    "compare_grids",
    "write_grid_csv",
]


class SpectrumPoint(NamedTuple):
    """One principal-domain point: frequency-bin index tuple and value."""

    k: tuple
    value: complex


@dataclass(frozen=True)
class EstimationConfig:
    """Everything needed to turn a series into a smoothed spectrum."""

    order: int
    segment: SegmentConfig
    m3: int
    plan: SmoothingPlan = SmoothingPlan.EFFICIENT
    conjugate_last: bool = True

    def __post_init__(self):
        _check_order(self.order)
        if self.m3 < 1:
            raise ParameterError(f"smoothing window must be >= 1, got {self.m3}")
        if 2 * self.m3 >= self.segment.m:
            raise ParameterError(
                f"smoothing window {self.m3} must satisfy m3 < m/2 "
                f"(segment length m = {self.segment.m})"
            )


class SpectrumGrid:
    """Smoothed estimate over the principal domain in lexicographic index order:
    ``values[t]`` is the estimate at the bin tuple ``indices[t]``. Only ``values`` is
    stored; ``indices``, unless given (a partial grid's, say, kept as is), is derived
    on every read as ``principal_domain(order, m)``."""

    def __init__(self, order: int, m: int, m3: int, plan, indices=None, values=None):
        if indices is not None and values is not None and (
                np.shape(indices) != (len(values), order - 1)):
            raise ParameterError(f"indices of shape {np.shape(indices)} for {len(values)} "
                                 f"values at order {order}")
        self.order, self.m, self.m3, self.plan = order, m, m3, plan
        self._indices, self.values = indices, values

    @property
    def indices(self) -> np.ndarray:
        return principal_domain(self.order, self.m) if self._indices is None else self._indices

    def peak_point(self) -> SpectrumPoint:
        t = int(np.argmax(np.abs(self.values)))
        k = self._indices[t] if self._indices is not None else _expand(
            domain_runs(self.order, self.m).cut(t, t + 1))[0]  # one point, not the domain
        return SpectrumPoint(tuple(k.tolist()), complex(self.values[t]))


def raw_product_value(f, *bins, conjugate_last: bool = True) -> complex:
    """Raw product of order ``len(bins) + 1`` for one segment spectrum ``f`` at
    ``bins``: ``f[k1] * ... * f[kn] * conj(f[(k1 + ... + kn) % m]) / m``,
    multiplied left to right (the conjugate is dropped when ``conjugate_last``
    is false)."""
    f = np.asarray(f)
    last = f[sum(map(int, bins)) % f.size]
    if conjugate_last:
        last = np.conj(last)
    return complex(math.prod((f[k] for k in bins[1:]), start=f[bins[0]]) * last / f.size)


def _check_order(order: int) -> None:
    if order < 3:
        raise ParameterError(f"order must be >= 3, got {order}")


def domain_runs(order: int, m: int) -> Runs:
    """The run table of the whole ``principal_domain(order, m)``: a run is the set of
    points sharing their leading ``order-2`` indices, whose last index runs from 0.

    Built one index level at a time: below indices summing to ``s`` with
    last index ``k``, the next index takes ``min(k, (m - 1 - 2 s) // 2) + 1``
    values, so a level expands by ``np.repeat`` and the table holds
    O(m^(order-2)) runs while the domain holds O(m^(order-1)) points.
    """
    _check_order(order)
    if m < 2:
        raise ParameterError(f"segment length must be >= 2, got {m}")
    lead = np.empty((1, 0), dtype=np.int64)
    prev = np.array([m])  # no bound on k1 beyond the sum condition
    total = np.zeros(1, dtype=np.int64)
    for _ in range(order - 2):
        lens = np.minimum(prev, (m - 1 - 2 * total) // 2) + 1
        parent = np.repeat(np.arange(len(lens)), lens)
        prev = np.arange(len(parent)) - (np.cumsum(lens) - lens)[parent]
        lead = np.column_stack([lead[parent], prev])
        total = total[parent] + prev
    lens = np.minimum(prev, (m - 1 - 2 * total) // 2) + 1
    return Runs(lead, np.zeros_like(lens), lens, np.cumsum(lens) - lens)


def _expand(runs: Runs) -> np.ndarray:
    """Index tuples of a run table, written column by column into one
    ``int32`` array with no temporary larger than one column."""
    lens = runs.stops - runs.first
    out = np.empty((runs.size, runs.lead.shape[1] + 1), dtype=np.int32)
    for j in range(runs.lead.shape[1]):
        out[:, j] = np.repeat(runs.lead[:, j].astype(np.int32), lens)
    out[:, -1] = np.arange(runs.size, dtype=np.int32)
    out[:, -1] -= np.repeat((runs.offsets - runs.first).astype(np.int32), lens)
    return out


def principal_domain(order: int, m: int) -> np.ndarray:
    """Lexicographically ordered principal-domain index tuples.

    All ``(k1, ..., kn)``, ``n = order - 1``, with ``0 <= kn <= ... <= k1``
    and ``k1 + ... + kn < m/2``, the ordered simplex: at order 3 the
    ``(k1, k2)`` with ``0 <= k2 <= k1`` and ``k1 + k2 < m/2``.
    """
    return _expand(domain_runs(order, m))


# -- raw products ------------------------------------------------------------


def _cols(a, lo, n):
    """Columns ``lo .. lo + n - 1`` of ``a``, one row per segment, wrapped periodically."""
    return a.take(np.arange(lo, lo + n), axis=1, mode="wrap")


def _fold(spectra, last, o, depth, n):
    """``sum(f[o + d] * last[:, d + t] for d < depth)`` for ``t < n``, per segment (rows of
    ``spectra`` and of ``last``, C-contiguous), as a new ``(K, n)`` array: one matmul over a
    Hankel view of ``last``. For ``depth, n >= 2`` that view is no BLAS operand, so NumPy's own
    loop sums each cell over ``d`` in order, from its own column only, on any CPU alike."""
    s0, s1 = last.strides
    hank = np.ndarray((len(last), depth, n), last.dtype, last, 0, (s0, s1, s1))  # a view of last
    return np.matmul(_cols(spectra, o, depth)[:, None], hank).reshape(len(last), n)


def _raw_block(spectra, origin, shape, last):
    """Unscaled raw products ``(f[k1]*f[k2]) * (f[k3]*...*last[k1+...])``
    over the box ``origin + [0, shape)`` of the periodic grid, summed over
    the segments (rows of ``spectra``) in order. Each axis's factor is one
    wrapped read; ``last`` is the last factor over the box's index sums from
    ``sum(origin)`` on, one row per segment, read through a Hankel view, so no
    index array as large as the box is built. ``last`` is not written."""
    k, axes = len(spectra), len(shape)
    f1, f2, *mid = (
        _cols(spectra, o, n).reshape((k,) + (1,) * a + (n,) + (1,) * (axes - 1 - a))
        for a, (o, n) in enumerate(zip(origin, shape))
    )
    s0, s1 = last.strides
    hank = np.ndarray((k, *shape), last.dtype, last, 0, (s0,) + (s1,) * axes)  # a view of last
    acc = None
    for tail, a, b, *rest in zip(hank, f1, f2, *mid):
        for f in rest[::-1]:
            tail = f * tail
        if acc is None:
            acc = (a * b) * tail
        else:  # each term is freed once added: the sum and one term are live
            acc += (a * b) * tail
    return acc


class _LeanFetch:
    """The lean plans' fetch, a context manager: raw products summed over the segments,
    unscaled, for the box of ``rows x cols`` at ``(r0, c0)`` (the ``tiled`` contract), each
    plane summed over its index's ``w`` values, every index shifted by the offset ``w // 2``.

    The one builder of a box's last factor, from a source conjugated once: plain at order 3
    and at ``w = 1``, where a plane is one more axis of the box; else the last plane index
    slides and every earlier one is folded in afresh per plane, last first. The fetch holds,
    per segment, ``T[t] = sum(f[p + d] * last[s + p + d + t] for d < w)`` at plane ``k``
    (origin ``p = k - w // 2``) and index sum origin ``s`` (the box's and every earlier
    index's origins), counted as working memory until the ``with`` block ends. The step to
    ``k + 1`` adds the entering plane's products and subtracts the leaving one's, ``O(n)``
    per segment (the recurrence of :func:`~hospectra.tiled.running_sums`), over every held
    column. The sums restart as the array :func:`_fold` returns at every multiple of ``w`` of
    ``k`` (floor division for negative planes), on a new ``s`` and for more columns than are
    held; a column depends only on itself, so a plane's bits depend only on ``(s, k)``."""

    def __init__(self, spectra, w, conjugate_last):
        self.spectra, self.w = spectra, w
        self.last = np.conj(spectra) if conjugate_last else spectra  # the last factor's source
        self.key, self.sums = None, None  # (s, k) and T at it, (K, held columns)

    def __enter__(self):
        return self

    def __exit__(self, *exc):  # also a restart's release
        if self.sums is not None:
            WORKSPACE.drop(self.sums.nbytes)
        self.key, self.sums = None, None

    def _slide(self, s, k, n):
        """``T`` at ``(s, k)`` over ``n`` columns or more, from column 0."""
        f, src, w = self.spectra, self.last, self.w
        c, h, m = k - k % w, w // 2, f.shape[1]
        if (self.key is None or self.key[0] != s or not c <= self.key[1] <= k
                or self.sums.shape[1] < n):
            self.__exit__()  # restart at the chunk's first plane
            self.sums = _fold(f, _cols(src, s + c - h, n + w - 1), c - h, w, n)
            WORKSPACE.note(self.sums)
            self.key = (s, c)
        sums, n = self.sums, self.sums.shape[1]
        for p in range(self.key[1] - h, k - h):  # the plane at origin p + w enters, p leaves
            ends = _cols(src, s + p, n + w)
            sums += f[:, (p + w) % m, None] * ends[:, w:]
            sums -= f[:, p % m, None] * ends[:, :n]
        self.key = (s, k)
        return sums

    def __call__(self, r0, c0, rows, cols, *planes):
        w = self.w
        origin, n = [x - w // 2 for x in (r0, c0, *planes)], rows + cols - 1  # box index sums
        if not planes or w == 1:
            shape = (rows, cols) + (1,) * len(planes)
            return _raw_block(self.spectra, origin, shape,
                              _cols(self.last, sum(origin), n)).reshape(rows, cols)
        origin.pop()
        n += (len(origin) - 2) * (w - 1)  # a halo per fold
        last = self._slide(sum(origin), planes[-1], n)
        for o in origin[:1:-1]:
            n -= w - 1
            last = _fold(self.spectra, last, o, w, n)
        return _raw_block(self.spectra, origin[:2], (rows, cols), last)


def _raw_box(spectra, origin, shape, conjugate_last):
    """The materialized plans' ``_raw_block``, counted as working memory until it
    is freed, after a transient of its product chain: ``min(K, 2)`` boxes more,
    one fewer at order 3, where NumPy makes each product in its ``a * b``
    temporary (for boxes of 256 KiB or more)."""
    last = _cols(np.conj(spectra) if conjugate_last else spectra, sum(origin),
                 sum(shape) - len(shape) + 1)
    box = _raw_block(spectra, origin, shape, last)
    nbytes = WORKSPACE.note(box)
    WORKSPACE.drop(WORKSPACE.note_bytes((min(len(spectra), 2) - (len(shape) == 2)) * nbytes))
    weakref.finalize(box, WORKSPACE.drop, nbytes)
    return box


# -- smoothing ---------------------------------------------------------------


def estimate_slice(spec_set: SegmentSpectrumSet, cfg: EstimationConfig, runs: Runs, values) -> None:
    """The smoothed, segment-averaged values at the principal-domain points of ``runs``, a
    slice's run table (``domain_runs(order, m).cut(start, stop)``), into ``values``: either
    path's unscaled sums over the ``K`` segments times ``1/(K*M*M3**(order-1))``, a complex
    division's bits (``tools/grid_digest.golden``). Any split of the domain into slices
    reproduces the whole-domain grid bit for bit, which the parallel workers rely on. The
    lean plans write ``values`` only; the materialized plans expand the slice's index
    tuples and meter them with ``values``. Spectra, a run table or ``values`` that do not
    fit ``cfg`` or one another are refused before any work, for an empty slice too."""
    m, w = spec_set.m, cfg.m3
    if (cfg.segment.k, cfg.segment.m) != (spec_set.k, m):
        raise ParameterError(f"config ({cfg.segment.k}x{cfg.segment.m}) does not match "
                             f"spectra ({spec_set.k}x{m})")
    if runs.lead.shape[1] != cfg.order - 2:
        raise ParameterError(f"a run table of {runs.lead.shape[1]} lead columns at order {cfg.order}")
    if len(values) != runs.size:
        raise ParameterError(f"{len(values)} values for a slice of {runs.size} points")
    if runs.size == 0:
        return
    if cfg.plan in MATERIALIZED_PLANS:
        axes = cfg.order - 1
        indices = _expand(runs)
        if cfg.plan is SmoothingPlan.NAIVE:  # the domain's bounding box plus the window
            shape = tuple(int(n) + w for n in indices.max(axis=0))
        else:  # the grid wrapped one window on; one more last-axis cell avoids 2^k strides
            shape = (m + w - 1,) * (axes - 1) + (m + w,)
        with WORKSPACE.held(values, indices):
            # no name keeps the box, so the first WS or PREFIX pass frees it (Python >= 3.11)
            sm = smooth(_raw_box(spec_set.spectra, (-(w // 2),) * axes, shape, cfg.conjugate_last),
                        w, cfg.plan)
            vals = sm[tuple(indices.T)]
            with WORKSPACE.held(sm, vals):
                values[:] = vals
    else:
        with _LeanFetch(spec_set.spectra, w, cfg.conjugate_last) as fetch:
            smoothed_runs(fetch, m, w, cfg.plan.name, runs, values)
    parts = values.view(np.float64)  # a real multiply: faster, with the division's bits
    parts *= 1.0 / float(spec_set.k * m * w ** (cfg.order - 1))
    parts += 0.0  # -0.0 to +0.0, whichever path summed it


def estimate_from_spectra(spec_set: SegmentSpectrumSet, cfg: EstimationConfig) -> SpectrumGrid:
    """Run the smoothing and averaging stages on precomputed segment DFTs."""
    runs = domain_runs(cfg.order, spec_set.m)
    values = np.empty(runs.size, dtype=np.complex128)
    estimate_slice(spec_set, cfg, runs, values)
    return SpectrumGrid(order=cfg.order, m=spec_set.m, m3=cfg.m3, plan=cfg.plan, values=values)


def estimate_spectrum(series: TimeSeries, cfg: EstimationConfig) -> SpectrumGrid:
    """The direct method end to end: segment, demean, transform, raw
    products, smoothing, segment averaging, principal-domain restriction."""
    segs = segment_and_demean(series, cfg.segment)
    return estimate_from_spectra(dft_segments(segs), cfg)


def compare_grids(a: SpectrumGrid, b: SpectrumGrid) -> float:
    """Maximum relative deviation between two grids over the same domain:
    ``max |a-b| / max(|a|, |b|, 1e-12)``."""
    if (a.order, a.m, a.m3) != (b.order, b.m, b.m3) or a.values.shape != b.values.shape:
        raise ParameterError(
            f"grid mismatch: ({a.order},{a.m},{a.m3},{a.values.shape}) vs "
            f"({b.order},{b.m},{b.m3},{b.values.shape})"
        )
    if a.values.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a.values), np.abs(b.values)), 1e-12)
    return float(np.max(np.abs(a.values - b.values) / denom))


def write_grid_csv(grid: SpectrumGrid, path) -> None:
    """Grid interchange format: header ``k1,k2[,k3],re,im``, one principal-
    domain point per row in lexicographic order, bins as ``%d`` and both
    parts as ``%.17g``.

    Rows are formatted in chunks by :func:`~hospectra.series.write_csv_rows`, a
    derived grid's bins expanded per chunk from one run table.
    """
    names, n = [f"k{i + 1}" for i in range(grid.order - 1)], len(grid.values)
    runs = domain_runs(grid.order, grid.m) if grid._indices is None else None
    with open(str(path), "wb") as fh:
        fh.write((",".join(names + ["re", "im"]) + "\n").encode())
        for start in range(0, n, CSV_CHUNK_ROWS):
            part = slice(start, min(start + CSV_CHUNK_ROWS, n))
            bins = grid._indices[part] if runs is None else _expand(runs.cut(start, part.stop))
            write_csv_rows(fh, [*bins.T, grid.values.real[part], grid.values.imag[part]])
