"""Source-on-demand window-sum engines and the two shared 1-D window-sum kernels.

The engines compute sliding box sums along runs of cells without
materializing the source: values are pulled through ``fetch(r0, c0, rows, cols,
*planes)``, the box of ``rows x cols`` source cells at ``(r0, c0)``, all integers, and
one index ``k`` per further axis, that plane summed over ``k .. k+w-1`` of each.
Periodic index wrapping lives in ``fetch`` or in a wrap-padded source: the
engines are boundary-agnostic, and their units start at non-negative multiples
of their shape. A fetch may hold state between calls: the lean plans' fetch
object keeps its last index's sums from one plane to the next (``O(K n)`` for
``K`` segments and the ``n`` index sums of its widest request since a restart,
metered while held), so the block branch asks for a block's planes in
ascending order of that index.

Two kernels do the summing, one axis per call: :func:`running_sums` (the
WS plan's running-sum recurrence) and :func:`box_sums` (the PREFIX plan's
cumsum difference). The lean plans apply them to units of the output
aligned to a fixed grid in output coordinates, each a row pass (sums of
``w`` source rows per source column) then :func:`box_sums` across, the one
column pass; along an order-3 band a unit carries the row sums of the
``w-1`` source columns it shares with the next:

* FAST      - ``w`` x full-width bands of one unit, :func:`running_sums`
              down a ``2w-1``-row source patch (O(cols*w) memory, each source
              cell fetched at most twice).
* EFFICIENT - square blocks of ``B = max(S, w)`` output cells per side,
              :func:`box_sums` down a ``(B+w-1)^2`` patch (O(max(S, w)^2)
              memory, each source cell fetched at most twice; from order 4 on,
              each summed cell at most 4 times, by the halos of its blocks).
* STREAMING - ``1 x S`` pieces of a row, EFFICIENT's kernels over a ``w``-row
              source patch fetched at most ``S`` columns per call (O(w)
              memory, O(w^2) from order 4 on; each source cell fetched ``w`` times).

One engine, :func:`smoothed_runs`, serves every order from one :class:`Runs` table
and writes each unit into ``out`` once it is summed: :func:`_bands` walks the bands
of runs with one lead column, :func:`_blocks` the blocks of runs with more.
Units depend only on (fetch, w, unit origin) and a kernel's cell only on its
own lines, so splitting the output across workers reproduces a serial sweep
bit for bit. :func:`smoothed_cells_2d` and :func:`smoothed_cells_3d` are the
benchmark's adapters over it; nothing in the package calls them.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .meter import WORKSPACE

__all__ = ["Runs", "box_sums", "running_sums", "smoothed_cells_2d", "smoothed_cells_3d",
           "smoothed_runs"]

#: EFFICIENT units are square blocks of ``max(S, w)`` output cells a side; STREAMING's, ``1 x S``.
S = 48


class Runs(NamedTuple):
    """A run table: run ``t`` holds the cells of leading indices ``lead[t]`` and last index
    ``k`` in ``[first[t], stops[t])``, cell ``k`` at position ``offsets[t] + k - first[t]``.
    ``size`` and ``cut`` need non-empty runs laid end to end from 0, as every domain's or cut's."""

    lead: np.ndarray  # (runs, lead columns)
    first: np.ndarray  # (runs,)
    stops: np.ndarray  # (runs,)
    offsets: np.ndarray  # (runs,)

    @property
    def size(self) -> int:
        return int(self.offsets[-1] + self.stops[-1] - self.first[-1]) if len(self.first) else 0

    def cut(self, start: int, stop: int) -> Runs:
        """The table of positions ``[start, stop)``, laid out from 0, in O(log(runs)) plus
        its runs; empty if ``stop <= start``."""
        if stop <= start:
            return Runs(*(a[:0] for a in self))
        if not (0 <= start < stop <= self.size):
            raise ParameterError(f"slice [{start}, {stop}) outside domain of size {self.size}")
        r0, r1 = np.searchsorted(self.offsets, [start, stop - 1], side="right") - (1, 0)
        lead, first, stops, offs = (a[r0:r1] for a in self)  # the runs it meets
        skip = np.maximum(start - offs, 0)  # a slice may start or stop mid-run
        return Runs(lead, first + skip, np.minimum(stops, first + stop - offs), offs + skip - start)


def box_sums(a, w, axis=0):
    """Valid-mode box sums of side ``w`` along ``axis``: output cell ``i``
    sums the window anchored at input cell ``i``, so the axis shrinks by
    ``w - 1``.

    One cumulative sum and one shifted difference (the summed-area table,
    Crow 1984). NumPy's cumsum adds in sequence along its axis, so a cell's
    value depends only on the input along its own line, never on the
    array's extent across it. A window of 1 is an exact copy.
    For float and complex arrays: sums accumulate in ``a``'s dtype.
    """
    if w == 1:
        return a.copy()
    lead = (slice(None),) * axis
    # C order even for a strided view: a difference along a leading
    # axis then runs over whole memory lines, which NumPy does not buffer
    cs = np.cumsum(a, axis=axis, out=np.empty(a.shape, a.dtype))
    out = cs[lead + (slice(w - 1, None),)].copy()
    out[lead + (slice(1, None),)] -= cs[lead + (slice(None, out.shape[axis] - 1),)]
    WORKSPACE.drop(WORKSPACE.note_bytes(cs.nbytes + out.nbytes))
    return out


def running_sums(a, w, axis=0):
    """Valid-mode box sums of side ``w`` along ``axis``, as :func:`box_sums`,
    by the running-sum recurrence in telescoped form.

    The first window is summed, and each later one is the first plus the
    cumulative sum of the cells entering minus the cells leaving, computed
    in place in the output. A cell depends only on its own line, bar axis 0
    of a one-column array, whose first window NumPy sums pairwise; the lean
    engines call it only down FAST's full-width band, never on one column.
    A window of 1 is an exact copy.
    """
    if w == 1:
        return a.copy()
    shape = list(a.shape)
    shape[axis] -= w - 1
    out = np.empty(shape, dtype=a.dtype)
    x, o = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)  # views
    o[0] = x[:w].sum(axis=0)
    np.subtract(x[w:], x[:-w], out=o[1:])
    np.cumsum(o[1:], axis=0, out=o[1:])
    o[1:] += o[0]
    WORKSPACE.drop(WORKSPACE.note_bytes(out.nbytes))
    return out


def _column_sums(part, w):
    # box_sums along axis 1 of the row sums, bit for bit, run on the
    # transposed view: a difference along an inner axis makes NumPy buffer
    # about three times its result, one along a leading axis nothing
    return box_sums(part.T, w).T


def _block(fetch, r0, c0, rows, cols, w, *plane, kernel):
    patch = fetch(r0, c0, rows + w - 1, cols + w - 1, *plane)
    if w == 1:  # the identity
        return patch
    nbytes = WORKSPACE.note(patch)
    try:
        return kernel(patch, w)
    finally:
        WORKSPACE.drop(nbytes)


_efficient_rows = partial(_block, kernel=box_sums)


def _streamed(fetch, r0, c0, rows, cols, w):
    # EFFICIENT's row pass, at most S source columns per fetch (the O(w) tier)
    n = cols + w - 1
    return np.concatenate([_efficient_rows(fetch, r0, a, rows, min(S, c0 + n - a) - w + 1, w)
                           for a in range(c0, c0 + n, S)], axis=1)


#: plan -> (unit shape from (output columns, w), row pass); every unit's column pass is
#: :func:`_column_sums`. A row pass ``row_pass(fetch, r0, c0, rows, cols, w)`` gives the
#: ``rows x (cols + w - 1)`` sums of ``w`` source rows from ``r0`` on, per source column
#: from ``c0`` on; the column pass sums ``w`` of those per output cell. The unit shape is
#: also the face of a block.
_UNITS = {
    "FAST": (lambda cols, w: (w, cols), partial(_block, kernel=running_sums)),
    "EFFICIENT": (lambda cols, w: (max(S, w),) * 2, _efficient_rows),
    "STREAMING": (lambda cols, w: (1, S), _streamed),
}


def _groups(lead, face):
    """Yield (unit origin, slice of its runs) for runs sorted by unit of the leading axes,
    lazily from arrays: a STREAMING band is one run, and lists would grow with the runs."""
    new = np.diff(lead // face, axis=0, prepend=lead[:1] // face - 1).any(axis=1)
    starts = np.flatnonzero(new)
    origins, ends = lead[starts] // face * face, np.append(starts[1:], len(lead))
    return ((o.tolist(), slice(s, e)) for o, s, e in zip(origins, starts, ends))


def _bands(fetch, m, w, plan_name, runs, out):
    """:func:`smoothed_runs` over runs with one lead column, band by band of units.

    A unit is the column pass over its plan's row pass. The row pass keeps each column's
    bits, so the row sums of the ``w-1`` source columns a unit shares with the next unit
    of its band are carried (a copy, not a view pinning the part). A unit lands by one
    indexed write if its band's runs cover its columns and skip no row, else one slice
    per run row, and is held until the next unit's column pass ends, as metered."""
    shape, row_pass = _UNITS[plan_name]
    uh, uw = shape(m, w)
    held = carried = 0  # the bytes of the unit held until the next is summed, and of the carry
    try:
        for (r0,), u in _groups(runs.lead, (uh,)):
            rows, lo, hi, pos = (a.tolist() for a in (runs.lead[u, 0], runs.first[u], runs.stops[u],
                                                      runs.offsets[u] - runs.first[u]))
            c0s = range(min(lo) // uw * uw, max(hi), uw)  # the band's column units
            # rows up to the last run's: by the own-line property, a shorter unit has the same bits
            top, dense, carry = rows[0] - r0, rows[-1] - rows[0] == len(rows) - 1, None
            for c0 in c0s:
                cols = min(uw, m - c0)
                skip = 0 if carry is None else w - 1
                part = row_pass(fetch, r0, c0 + skip, rows[-1] - r0 + 1, cols - skip, w)
                if skip:
                    part = np.concatenate([carry, part], axis=1)
                WORKSPACE.drop(carried)  # carry on only if the band has a next unit
                carry = part[:, cols:].copy() if c0 + uw < c0s.stop else None
                carried = 0 if carry is None else WORKSPACE.note(carry)
                if w > 1:  # else the identity
                    held += WORKSPACE.note(part)  # the part, during the column pass
                    part = _column_sums(part, w)
                WORKSPACE.drop(held)  # the part and the previous unit
                held, unit = WORKSPACE.note(part), part  # the previous unit is freed here
                if dense and max(lo) <= c0 and c0 + cols <= min(hi):
                    # intp, in the unit's memory order: else NumPy copies the index or the unit
                    at = np.empty_like(unit[top:], dtype=np.intp)
                    np.add.outer(np.array(pos, dtype=np.intp) + c0, np.arange(cols), out=at)
                    WORKSPACE.drop(WORKSPACE.note(at))  # its peak: the write notes nothing
                    out[at] = unit[top:]
                    del at  # the index does not outlive its write
                else:
                    for row, s, e, p in zip(rows, lo, hi, pos):
                        s, e = max(s, c0), min(e, c0 + cols)
                        if s < e:
                            out[p + s : p + e] = unit[row - r0, s - c0 : e - c0]
    finally:
        WORKSPACE.drop(held + carried)


def _blocks(fetch, m, w, plan_name, runs, out):
    """:func:`smoothed_runs` over runs with two or more lead columns: each block of the
    first two, the plan's unit shape (its face), at each value of the others is EFFICIENT's
    row pass and column pass over a summed plane per last index its runs cover."""
    face = _UNITS[plan_name][0](m, w) + (1,) * (runs.lead.shape[1] - 2)  # a plane per other
    order = np.lexsort((runs.lead // face).T[::-1])  # stable: a block keeps its runs' order
    lead, first, stops, offsets = (a[order] for a in runs)
    for (b0, c0, *planes), u in _groups(lead, face):
        ii, jj = (lead[u, :2] - (b0, c0)).T
        st, sp, bb = first[u], stops[u], offsets[u]
        for k in range(int(st.min()), int(sp.max())):
            on = (st <= k) & (k < sp)
            if on.any():  # a slice's first run may start after its block's others stop
                i, j = ii[on], jj[on]
                # cut at the active runs' far corner: a cell depends only on its own lines
                vals = _efficient_rows(fetch, b0, c0, int(i.max()) + 1, int(j.max()) + 1, w,
                                       *planes, k)
                if w > 1:  # else the identity
                    nbytes = WORKSPACE.note(vals)  # the row sums, during the column pass
                    vals = _column_sums(vals, w)
                    WORKSPACE.drop(nbytes)
                nbytes = WORKSPACE.note(vals)
                out[bb[on] + (k - st[on])] = vals[i, j]
                WORKSPACE.drop(nbytes)


def smoothed_runs(fetch, m, w, plan_name, runs, out):
    """Periodic ``w``-box sums along the runs of the :class:`Runs` table ``runs``, written
    in place: cell ``k`` of run ``t`` lands in ``out[runs.offsets[t] + (k - runs.first[t])]``.
    Every axis has extent ``m``; runs with one lead column come sorted by it; with more,
    ``fetch`` sums planes."""
    if w < 1:
        raise ParameterError(f"window must be >= 1, got {w}")
    (_bands if runs.lead.shape[1] == 1 else _blocks)(fetch, m, w, plan_name, runs, out)


def _ranges(r0, c0, rows, cols):  # a box as the adapters' callers' fetch takes it
    return np.arange(r0, r0 + rows)[:, None], np.arange(c0, c0 + cols)[None, :]


def smoothed_cells_2d(fetch, n_rows_out, n_cols_out, w, plan_name, spans):
    """The benchmark's order-3 adapter: :func:`smoothed_runs` with each non-empty sorted
    ``(row, col_start, col_stop)`` span, at most one per row, as a run (``n_rows_out``
    unused), for a ``fetch(rows, cols)`` of index ranges, summed at the call into one
    ``complex128`` array; yields ``(row, col_start, values)`` per span."""
    spans = np.array([s for s in spans if s[1] < s[2]], dtype=np.int64).reshape(-1, 3)
    lens = spans[:, 2] - spans[:, 1]
    runs = Runs(spans[:, :1], spans[:, 1], spans[:, 2], np.cumsum(lens) - lens)
    out = np.empty(runs.size, dtype=np.complex128)
    smoothed_runs(lambda *box: fetch(*_ranges(*box)), n_cols_out, w, plan_name, runs, out)
    return ((r, s, out[o : o + e - s]) for r, s, e, o in np.c_[spans, runs.offsets].tolist())


def smoothed_cells_3d(fetch3, m, w, plan_name, k1s, k2s, starts, stops, bases, out):
    """The benchmark's order-4 adapter: :func:`smoothed_runs` with lead ``(k1s, k2s)``, first
    ``starts``, offsets ``bases``, for a ``fetch3(rows, cols, k3)`` of index ranges and one
    plane; each request sums its ``w`` planes."""
    def summed(r0, c0, rows, cols, k3):
        ranges = _ranges(r0, c0, rows, cols)
        return reduce(np.add, (fetch3(*ranges, k3 + t) for t in range(w)))
    smoothed_runs(summed, m, w, plan_name, Runs(np.c_[k1s, k2s], starts, stops, bases), out)
