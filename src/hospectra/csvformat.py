"""CSV rows in NumPy, byte for byte as ``'%d'`` and ``'%.17g'``: imported on
the first write, so ``import hospectra`` neither compiles nor tabulates it."""

import numpy as np

_ASCII = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + 48  # "0000".."9999"
_ZEROS = sum(np.arange(10000) % 10**k == 0 for k in range(1, 5)).astype(np.int16)  # trailing
# Per decimal exponent E from a double's least less one: 10**(16-E) correctly
# rounded to longdouble, E's sign and digits, its shape (fixed if -4<=E<=16).
_E = np.arange(-325, 310)
_SCALE = np.array([f"1e{16 - k}" for k in _E.tolist()], dtype=np.longdouble)
_EXP = np.c_[np.where(_E < 0, ord("-"), ord("+")), _ASCII[np.abs(_E), 1:]].astype(np.uint8)
_SHAPE = 2 * np.where((_E < -4) | (_E > 16), 21 + (np.abs(_E) >= 100), _E + 4)
_MARGIN = 2.01 * float(np.finfo(np.longdouble).eps) / 2 * 1e17  # see _decimal


def _shown_columns():
    """A float field's shown columns per (significant digits, shape, sign)."""
    nz, e, neg = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(18), np.r_[-4:17, 17, 100], [0, 1], indexing="ij"))
    expo = (e < -4) | (e > 16)
    lead0 = (e < 0) & ~expo
    ilen = np.where(expo, 1, (e + 1) * ~lead0)  # digits before the point
    col = np.arange(17)
    return np.hstack([neg == 1, lead0, col < ilen, nz > ilen, lead0 & (np.arange(3) < -e - 1),
                      (ilen <= col) & (col < nz), expo, expo, expo & (e >= 100), expo, expo])


_SHOWN = _shown_columns()


def _decimal(x):
    """Per float64, ``'%.17g'``'s 17 digits D, its exponent index, and whether
    Python's ``%`` must format it: D is ``rint(|x| * 10**(16-E))`` in
    ``longdouble``, two roundings under ``2.01 u``, so exact unless within
    ``_MARGIN`` of a tie. Where ``longdouble`` is ``double`` every value is."""
    ax = np.where(np.isfinite(x) & (x != 0), np.abs(x), 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp) - _E[0]  # an index into the tables
    with np.errstate(invalid="ignore", over="ignore"):
        y = ax * _SCALE[e]
        off = np.flatnonzero((y < 1e16) | (y >= 1e17))  # log10 rounded past 10**E
        e[off] += np.where(y[off] < 1e16, -1, 1)
        y[off] = ax[off] * _SCALE[e[off]]
        d = np.rint(y)
        slow = ~np.isfinite(x) | ~(np.abs(np.abs((y - d).astype(np.float64)) - 0.5) > _MARGIN)
        carry = np.flatnonzero(d == 1e17)  # rounded up to the next power of ten
        d[carry], e[carry] = 1e16, e[carry] + 1
        return d.astype(np.int64) * (x != 0), e, slow


def _float_cells(x, chars, shown):
    """Fill a float field's 45 columns (sign, ``0``, 17 digits as integer part,
    ``.``, ``000``, the 17 as fraction, ``e+000``) with each ``'%.17g'``."""
    d, e, slow = _decimal(x)
    groups = np.empty((len(x), 5), np.intp)
    for j in range(4, -1, -1):  # D's 4-digit groups, last first
        groups[:, j] = d - 10000 * (d := d // 10000)
    nz, live = 17 - _ZEROS[groups[:, 4]], np.arange(len(x))
    for j in range(3, 0, -1):  # past a group of four zeros, the one before
        live = live[_ZEROS[groups[live, j + 1]] == 4]
        nz[live] -= _ZEROS[groups[live, j]]
    chars[:, 2:19] = chars[:, 23:40] = _ASCII.view(np.uint32).take(groups).view(np.uint8)[:, 3:]
    chars[:, 41:] = _EXP.view(np.uint32).take(e).view(np.uint8).reshape(-1, 4)
    shown[:] = _SHOWN[_SHAPE[e] + 46 * nz + np.signbit(x)]  # 23 shapes x 2 signs per nz
    rows = np.flatnonzero(slow)
    text = ("%-45.17g" * rows.size % tuple(x[rows].tolist())).encode()
    chars[rows] = np.frombuffer(text, np.uint8).reshape(-1, 45)
    shown[rows] = chars[rows] != ord(" ")


def _int_cells(v, chars, shown):
    """Fill an integer field's columns, sign and digits, with each ``'%d'``."""
    a = np.where(v < 0, -(u := v.astype(np.uint64)), u)  # |v|, and 2**63 for int64's least
    width = chars.shape[1] - 1
    ndigits = np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), a, "right") + 1
    shown[:, 0] = v < 0
    for j in range(1, width + 1):  # a column at a time: NumPy is slow at (n, 4)
        shown[:, j] = ndigits > width - j
    for j in range(width - 3, 0, -4):
        a, group = np.divmod(a, 10000)
        chars[:, j : j + 4] = _ASCII.view(np.uint32).take(group).view(np.uint8).reshape(-1, 4)


def write_rows(fh, columns, chunk_rows) -> None:
    """``series.write_csv_rows``: each chunk is a ``uint8`` matrix, a column per
    character a field can hold, and one write of the characters shown."""
    fields, row = [], b""
    for col in columns:
        if col.dtype.kind in "iu":
            big = max(-int(col.min(initial=0)), int(col.max(initial=0)))
            chars, cells = b"-" + b"0" * (-(-len(str(big)) // 4) * 4), _int_cells  # whole groups
        else:
            chars, cells = b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b"e+000", _float_cells
        fields.append((col, cells, slice(len(row), len(row) + len(chars))))
        row += chars + b","
    row = np.frombuffer(row[:-1] + b"\n", np.uint8)
    for start in range(0, len(columns[0]), chunk_rows):
        chars = np.tile(row, (min(chunk_rows, len(columns[0]) - start), 1))
        shown = np.ones(chars.shape, bool)
        for col, cells, cols in fields:
            cells(col[start : start + len(chars)], chars[:, cols], shown[:, cols])
        fh.write(chars[shown])
