"""Source-on-demand window-sum engines and the two shared 1-D window-sum kernels.

The engines compute sliding box sums along runs of cells without
materializing the source: values are pulled through ``fetch(rows, cols,
*planes)``, broadcastable consecutive ascending index ranges and one index
``k`` per further axis, that plane summed over ``k .. k+w-1`` of each.
Periodic index wrapping lives in ``fetch``: the engines are boundary-agnostic.

Two kernels do the summing, one pass per axis: :func:`running_sums` (the
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

One engine, :func:`smoothed_runs`, serves every order from one run table:
with one lead column, each band of units is walked column unit by column unit
and a unit lands in ``out`` by one indexed write if all the band's runs cover
its columns, else (a diagonal or tail unit) one slice per row, the chunks
:func:`smoothed_cells_2d` yields; with two or more lead columns, each block of
the first two, the plan's unit shape (its face), at each value of the others
is EFFICIENT's row pass and column pass over a summed plane per last index its
runs cover, cut at the far corner of the runs active there. Units depend only
on (fetch, w, unit origin) and a kernel's cell only on its own lines, so
splitting the output across workers reproduces a serial sweep bit for bit.
"""

from __future__ import annotations

from functools import partial, reduce

import numpy as np

from .meter import WORKSPACE

__all__ = ["box_sums", "running_sums", "smoothed_cells_2d", "smoothed_cells_3d", "smoothed_runs"]

#: EFFICIENT units are square blocks of ``max(S, w)`` output cells a side; STREAMING's, ``1 x S``.
S = 48


def box_sums(a, w, axes=(0, 1)):
    """Valid-mode box sums of side ``w`` along ``axes``: output cell ``i``
    sums the window anchored at input cell ``i``, so each listed axis
    shrinks by ``w - 1``.

    Per axis, one cumulative sum and one shifted difference (the
    summed-area table, Crow 1984). NumPy's cumsum adds in sequence along its
    axis, so a cell's value depends only on the input along its own line,
    never on the array's extent across it. A window of 1 is an exact copy.
    For float and complex arrays: sums accumulate in ``a``'s dtype.
    """
    if w == 1:
        return a.copy()
    nbytes = 0
    for axis in axes:
        lead = (slice(None),) * axis
        # C order even for a strided view: a difference along a leading
        # axis then runs over whole memory lines, which NumPy does not buffer
        cs = np.cumsum(a, axis=axis, out=np.empty(a.shape, a.dtype))
        a = cs[lead + (slice(w - 1, None),)].copy()
        a[lead + (slice(1, None),)] -= cs[lead + (slice(None, a.shape[axis] - 1),)]
        nbytes += cs.nbytes + a.nbytes
        del cs
    WORKSPACE.drop(WORKSPACE.note_bytes(nbytes))
    return a


def running_sums(a, w, axes=(0, 1)):
    """Valid-mode box sums of side ``w`` along ``axes``, as :func:`box_sums`,
    by the running-sum recurrence in telescoped form.

    Per axis, the first window is summed, and each later one is the first
    plus the cumulative sum of the cells entering minus the cells leaving,
    computed in place in the pass's output. A cell depends only on its own
    line, bar axis 0 of a one-column array, whose first window NumPy sums
    pairwise; the lean engines call it only down FAST's full-width band,
    never on one column. A window of 1 is an exact copy.
    """
    if w == 1:
        return a.copy()
    nbytes = 0
    for axis in axes:
        shape = list(a.shape)
        shape[axis] -= w - 1
        out = np.empty(shape, dtype=a.dtype)
        x, o = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)  # views
        o[0] = x[:w].sum(axis=0)
        np.subtract(x[w:], x[:-w], out=o[1:])
        np.cumsum(o[1:], axis=0, out=o[1:])
        o[1:] += o[0]
        a = out
        nbytes += out.nbytes
    WORKSPACE.drop(WORKSPACE.note_bytes(nbytes))
    return a


def _column_sums(part, w):
    # the column pass of box_sums(a, w) on row sums, bit for bit, run on the
    # transposed view: a difference along an inner axis makes NumPy buffer
    # about three times its result, one along a leading axis nothing
    return box_sums(part.T, w, axes=(0,)).T


def _block(fetch, r0, c0, rows, cols, w, *plane, kernel):
    patch = fetch(np.arange(r0, r0 + rows + w - 1)[:, None],
                  np.arange(c0, c0 + cols + w - 1)[None, :], *plane)
    if w == 1:  # the identity
        return patch
    nbytes = WORKSPACE.note(patch)
    try:
        return kernel(patch, w)
    finally:
        WORKSPACE.drop(nbytes)


_efficient_rows = partial(_block, kernel=partial(box_sums, axes=(0,)))


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
    "FAST": (lambda cols, w: (w, cols), partial(_block, kernel=partial(running_sums, axes=(0,)))),
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


def _bands(fetch, m, w, plan_name, lead, first, stops, offsets):
    """Yield ``(r0, c0, vals, runs)`` per unit, ``runs`` as (rows, first, stops, pos) lists.

    A unit is the column pass over its plan's row pass. The row pass keeps each
    column's bits, so the row sums of the ``w-1`` source columns a unit shares with
    the next unit of its band are carried (a copy, not a view pinning the part)."""
    shape, row_pass = _UNITS[plan_name]
    uh, uw = shape(m, w)
    held = carried = 0  # the bytes of the unit held until the next lands, and of the carry
    try:
        for (r0,), u in _groups(lead, (uh,)):
            runs = [a.tolist() for a in (lead[u, 0], first[u], stops[u], offsets[u] - first[u])]
            c0s = range(min(runs[1]) // uw * uw, max(runs[2]), uw)  # the band's column units
            # rows up to the last run's: by the own-line property, a shorter unit has the same bits
            rows, carry = runs[0][-1] - r0 + 1, None
            for c0 in c0s:
                cols = min(uw, m - c0)
                skip = 0 if carry is None else w - 1
                part = row_pass(fetch, r0, c0 + skip, rows, cols - skip, w)
                if skip:
                    part = np.concatenate([carry, part], axis=1)
                WORKSPACE.drop(carried)  # carry on only if the band has a next unit
                carry = part[:, cols:].copy() if c0 + uw < c0s.stop else None
                carried = 0 if carry is None else WORKSPACE.note(carry)
                if w > 1:  # else the identity
                    held += WORKSPACE.note(part)  # the part, during the column pass
                    part = _column_sums(part, w)
                WORKSPACE.drop(held)  # the part and the previous unit
                held = WORKSPACE.note(part)
                yield r0, c0, part, runs
    finally:
        WORKSPACE.drop(held + carried)


def _pieces(r0, c0, vals, runs):
    """Yield ``(pos + col, values)`` per run row of a unit from :func:`_bands`."""
    for row, s, e, p in zip(*runs):
        s, e = max(s, c0), min(e, c0 + vals.shape[1])
        if s < e:
            yield p + s, vals[row - r0, s - c0 : e - c0]


def _land(out, r0, c0, vals, runs):
    """Write a unit from :func:`_bands` into ``out``: by one indexed write if its band's runs
    cover its columns and skip no row, else one slice per run row."""
    rows, lo, hi, pos = runs
    if max(lo) <= c0 and c0 + vals.shape[1] <= min(hi) and rows[-1] - rows[0] == len(rows) - 1:
        vals = vals[rows[0] - r0 :]
        # intp, in the unit's memory order: else NumPy copies the index or the unit
        at = np.empty_like(vals, dtype=np.intp)
        np.add.outer(np.array(pos, dtype=np.intp) + c0, np.arange(vals.shape[1]), out=at)
        with WORKSPACE.held(at):
            out[at] = vals
    else:
        for p, v in _pieces(r0, c0, vals, runs):
            out[p : p + v.size] = v


def smoothed_runs(fetch, m, w, plan_name, lead, first, stops, offsets, out):
    """Periodic ``w``-box sums along runs of cells, written in place: run
    ``t`` holds the cells with leading indices ``lead[t]`` (one or more
    columns) and last index ``k`` in ``[first[t], stops[t])``, and cell ``k``
    lands in ``out[offsets[t] + (k - first[t])]``. Every axis has extent ``m``;
    runs with one lead column come sorted by it; with more, ``fetch`` sums planes."""
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    if lead.shape[1] == 1:
        for unit in _bands(fetch, m, w, plan_name, lead, first, stops, offsets):
            _land(out, *unit)  # the unit stays alive until the next lands, as in the meter
        return
    face = _UNITS[plan_name][0](m, w) + (1,) * (lead.shape[1] - 2)  # a plane per further index
    order = np.lexsort((lead // face).T[::-1])  # stable: a block keeps its runs' order
    lead, first, stops, offsets = (a[order] for a in (lead, first, stops, offsets))
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


def smoothed_cells_2d(fetch, n_rows_out, n_cols_out, w, plan_name, spans):
    """Yield ``(row, col_start, values)`` per span and unit, one unit at a time, over
    sorted ``(row, col_start, col_stop)`` spans, at most one per row (``n_rows_out`` unused)."""
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    # int32 halves this table, which the meter does not model; a larger index raises
    spans = np.array([s for s in spans if s[1] < s[2]], dtype=np.int32).reshape(-1, 3)
    # a cell's position is row * n_cols_out + col
    sweep = _bands(fetch, n_cols_out, w, plan_name, spans[:, :1], spans[:, 1], spans[:, 2],
                   spans[:, 0] * np.int64(n_cols_out) + spans[:, 1])
    return ((*divmod(p, n_cols_out), v) for unit in sweep for p, v in _pieces(*unit))


def smoothed_cells_3d(fetch3, m, w, plan_name, k1s, k2s, starts, stops, bases, out):
    """:func:`smoothed_runs` with lead ``(k1s, k2s)``, first ``starts``, offsets ``bases``,
    for a ``fetch3(rows, cols, k3)`` of one plane: each request sums its ``w`` planes."""
    def summed(rows, cols, k3):
        return reduce(np.add, (fetch3(rows, cols, k3 + t) for t in range(w)))
    smoothed_runs(summed, m, w, plan_name, np.column_stack([k1s, k2s]), starts, stops, bases, out)
