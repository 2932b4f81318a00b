"""Source-on-demand window-sum engines with fixed unit decomposition.

These engines compute 2-D (and, for the spectrum pipeline, 3-D) sliding
box sums without materializing the source: values are pulled through a
``fetch`` callable that accepts broadcastable integer index arrays. Index
wrapping for periodic boundaries lives inside ``fetch``, so the engines
themselves are boundary-agnostic.

The work is decomposed into units aligned to a fixed ``w``-grid in output
coordinates:

* FAST      - row bands of height ``w``; a band holds ``w`` source rows and
              carries the column-strip row through the band with the rolling
              update in telescoped form (O(cols*w) memory, each source cell
              fetched at most twice).
* EFFICIENT - ``w x w`` tiles computed from a ``(2w-1) x (2w-1)`` source
              patch (O(w^2) memory, each source cell fetched O(1) times).
* STREAMING - width-``w`` column blocks of a single output row, built from
              one column strip at a time (O(w) memory, each source cell
              fetched O(w) times).

EFFICIENT tiles and the 3-D plane blocks reduce their patches with
:func:`box_sums`, the shared cumsum-difference (summed-area-table)
kernel, which the materialized PREFIX plan also calls.

Every unit's arithmetic depends only on (fetch, w, unit origin). Any
partition of the output across workers therefore reproduces a serial sweep
bit for bit, which is what the parallel layer relies on.
"""

from __future__ import annotations

import numpy as np

from .meter import WORKSPACE

__all__ = ["box_sums", "smoothed_cells_2d", "smoothed_cells_3d"]


def box_sums(a, w, axes=(0, 1)):
    """Valid-mode box sums of side ``w`` along ``axes``: output cell ``i``
    sums the window anchored at input cell ``i``, so each listed axis
    shrinks by ``w - 1``.

    Per axis, one cumulative sum and one shifted difference (the
    summed-area table, Crow 1984). NumPy's cumsum adds in sequence along its
    axis, so a cell's value depends only on the input along its own line,
    never on the array's extent across it. A window of 1 is an exact copy.
    """
    if w == 1:
        return a.copy()
    nbytes = 0
    for axis in axes:
        lead = (slice(None),) * axis
        cs = np.cumsum(a, axis=axis)
        a = cs[lead + (slice(w - 1, None),)].copy()
        a[lead + (slice(1, None),)] -= cs[lead + (slice(None, a.shape[axis] - 1),)]
        nbytes += cs.nbytes + a.nbytes
        del cs
    WORKSPACE.drop(WORKSPACE.note_bytes(nbytes))
    return a


def _clip_spans(spans_in_band, c0, bw):
    for row, start, stop in spans_in_band:
        s = max(start, c0)
        e = min(stop, c0 + bw)
        if s < e:
            yield row, s, e


def _fast_2d(fetch, n_rows_out, n_cols_out, w, spans):
    ncs = n_cols_out + w - 1  # strip columns needed for a full output row
    cols = np.arange(ncs)[None, :]
    by_band: dict[int, list] = {}
    for span in spans:
        by_band.setdefault(span[0] // w * w, []).append(span)
    for b0 in sorted(by_band):
        band_spans = by_band[b0]
        last = band_spans[-1][0]
        nrows = last - b0 + 1
        # column strips for the whole band: anchor the first row, then the
        # rolling update in telescoped (running-sum-of-increments) form.
        # cumsum prefixes do not depend on later rows, so a worker covering
        # only part of the band reproduces the same values bit for bit.
        band_src = fetch(np.arange(b0, b0 + w)[:, None], cols)
        strips = np.empty((nrows, ncs), dtype=band_src.dtype)
        strips[0] = band_src.sum(axis=0)
        nbytes = WORKSPACE.note(band_src, strips)
        try:
            if nrows > 1:
                incoming = fetch(np.arange(b0 + w, b0 + w + nrows - 1)[:, None], cols)
                nbytes += WORKSPACE.note(incoming)
                np.subtract(incoming, band_src[: nrows - 1], out=incoming)
                np.cumsum(incoming, axis=0, out=incoming)
                np.add(incoming, strips[0], out=strips[1:])
            if w == 1:
                row_vals = strips
            else:
                # box_sums would allocate a second band-sized buffer; the
                # strips are this band's own, so the cumsum runs in place
                np.cumsum(strips, axis=1, out=strips)
                row_vals = strips[:, w - 1 :].copy()
                row_vals[:, 1:] -= strips[:, : n_cols_out - 1]
                nbytes += WORKSPACE.note(row_vals)
            for r, start, stop in band_spans:
                yield r, start, row_vals[r - b0, start:stop]
        finally:
            WORKSPACE.drop(nbytes)


def _efficient_2d(fetch, n_rows_out, n_cols_out, w, spans):
    by_band: dict[int, list] = {}
    for span in spans:
        by_band.setdefault(span[0] // w * w, []).append(span)
    for b0 in sorted(by_band):
        band_spans = by_band[b0]
        bh = min(w, n_rows_out - b0)
        c_lo = min(s[1] for s in band_spans)
        c_hi = max(s[2] for s in band_spans)
        for c0 in range(w * (c_lo // w), c_hi, w):
            bw = min(w, n_cols_out - c0)
            patch = fetch(
                np.arange(b0, b0 + bh + w - 1)[:, None],
                np.arange(c0, c0 + bw + w - 1)[None, :],
            )
            nbytes = WORKSPACE.note(patch)
            try:
                tile = box_sums(patch, w)
                for row, s, e in _clip_spans(band_spans, c0, bw):
                    yield row, s, tile[row - b0, s - c0 : e - c0]
            finally:
                WORKSPACE.drop(nbytes)


def _streaming_2d(fetch, n_rows_out, n_cols_out, w, spans):
    for row, start, stop in spans:
        rows_idx = np.arange(row, row + w)
        for c0 in range(w * (start // w), stop, w):
            bw = min(w, n_cols_out - c0)
            nst = bw + w - 1
            first = fetch(rows_idx, c0).sum()
            sums = np.empty(nst, dtype=np.asarray(first).dtype)
            sums[0] = first
            for t in range(1, nst):
                sums[t] = fetch(rows_idx, c0 + t).sum()
            out = np.empty(bw, dtype=sums.dtype)
            out[0] = sums[:w].sum()
            for j in range(1, bw):
                out[j] = out[j - 1] - sums[j - 1] + sums[j + w - 1]
            nbytes = WORKSPACE.note(sums, out, rows_idx)
            WORKSPACE.drop(nbytes)
            s = max(start, c0)
            e = min(stop, c0 + bw)
            if s < e:
                yield row, s, out[s - c0 : e - c0]


_ENGINES_2D = {
    "FAST": _fast_2d,
    "EFFICIENT": _efficient_2d,
    "STREAMING": _streaming_2d,
}


def smoothed_cells_2d(fetch, n_rows_out, n_cols_out, w, plan_name, spans):
    """Yield ``(row, col_start, values)`` chunks covering the given spans.

    ``spans`` is a sorted sequence of ``(row, col_start, col_stop)`` with at
    most one entry per row. ``fetch(rows, cols)`` must accept broadcastable
    integer arrays; periodic wrapping is fetch's responsibility.
    """
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    spans = [s for s in spans if s[1] < s[2]]
    if not spans:
        return iter(())
    return _ENGINES_2D[plan_name](fetch, n_rows_out, n_cols_out, w, spans)


# 3-D extension: separable box sums, one rolling pass along the third axis
# over 2-D-smoothed planes restricted to a block of the leading two axes.
# The per-plan block shapes keep each tier's memory within one extra factor
# of w: FAST (w, m), EFFICIENT (w, w), STREAMING (1, w).

_BLOCK_3D = {
    "FAST": lambda m, w: (w, m),
    "EFFICIENT": lambda m, w: (w, w),
    "STREAMING": lambda m, w: (1, w),
}


def _plane_block(fetch3, c, b0, c0, bh, bw, w):
    patch = fetch3(
        np.arange(b0, b0 + bh + w - 1)[:, None],
        np.arange(c0, c0 + bw + w - 1)[None, :],
        c,
    )
    with WORKSPACE.held(patch):
        return box_sums(patch, w)


def smoothed_cells_3d(fetch3, m, w, plan_name, k1s, k2s, starts, stops, bases, out):
    """Periodic 3-D box sums evaluated at scattered cells.

    Cell ``t`` is the output column ``(k1s[t], k2s[t])`` with third-axis
    range ``[starts[t], stops[t])``; its values land in
    ``out[bases[t] + (k3 - starts[t])]``. The third axis is swept with a
    ring of ``w`` 2-D-smoothed block planes, re-anchored at every
    ``w``-aligned position so that any sweep entry point produces identical
    values.
    """
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    bh_max, bw_max = _BLOCK_3D[plan_name](m, w)
    groups: dict[tuple, list] = {}
    for t in range(len(k1s)):
        key = (int(k1s[t]) // bh_max, int(k2s[t]) // bw_max)
        groups.setdefault(key, []).append(t)
    for key in sorted(groups):
        idx = np.asarray(groups[key])
        b0 = key[0] * bh_max
        c0 = key[1] * bw_max
        bh = min(bh_max, m - b0)
        bw = min(bw_max, m - c0)
        ii = k1s[idx] - b0
        jj = k2s[idx] - c0
        st = starts[idx]
        sp = stops[idx]
        bb = bases[idx]
        a0 = w * (int(st.min()) // w)
        kmax = int(sp.max())
        ring = None  # free the previous block's ring before building this one
        ring = np.stack([_plane_block(fetch3, a0 + t, b0, c0, bh, bw, w) for t in range(w)])
        acc = ring.sum(axis=0)
        nbytes = WORKSPACE.note(ring, acc)
        try:
            for k3 in range(a0, kmax):
                if k3 > a0:
                    new = _plane_block(fetch3, k3 + w - 1, b0, c0, bh, bw, w)
                    slot = (k3 - 1) % w
                    if k3 % w == 0:
                        ring[slot] = new
                        acc = ring.sum(axis=0)
                    else:
                        acc -= ring[slot]
                        acc += new
                        ring[slot] = new
                active = (st <= k3) & (k3 < sp)
                if active.any():
                    out[bb[active] + (k3 - st[active])] = acc[ii[active], jj[active]]
        finally:
            WORKSPACE.drop(nbytes)
