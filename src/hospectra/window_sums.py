"""The six window-sum plans and the materialized smoothing entry point.

Six plans compute identical box sums with different work/memory trade-offs:

============ =========== ==============
plan         work        extra memory
============ =========== ==============
NAIVE        n^2 w^2     O(1)
WS           n^2         O(n^2)
PREFIX       n^2         O(n^2)
FAST         n^2         O(n w)
EFFICIENT    n^2         O(w^2)
STREAMING    n^2 w       O(w)
============ =========== ==============

NAIVE re-sums every window. WS carries the sums with horizontal and
vertical strip recurrences. PREFIX differences cumulative sums along each
axis through :func:`hospectra.tiled.box_sums`, the shared summed-area-table
kernel, which the EFFICIENT tiles and the 3-D plane blocks also call.
FAST, EFFICIENT and STREAMING are source-on-demand engines (see
:mod:`hospectra.tiled`) that pull values through a fetch callable instead
of reading a materialized matrix.

:func:`smooth_periodic` is the materialized plans' periodic entry point for
2-D and 3-D arrays (order-3 and order-4 grids); :func:`window_sums_2d` runs
any plan on a 2-D matrix with either boundary rule.

All plans agree within a relative 1e-9 tolerance with an absolute floor of
1e-12; the summation orders differ, exact equality is not promised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .meter import WORKSPACE
from .tiled import box_sums, smoothed_cells_2d

__all__ = [
    "SmoothingPlan",
    "WindowSpec",
    "smooth_periodic",
    "window_sums_2d",
]


class SmoothingPlan(Enum):
    """The six window-sum engines."""

    NAIVE = "NAIVE"
    WS = "WS"
    PREFIX = "PREFIX"
    FAST = "FAST"
    EFFICIENT = "EFFICIENT"
    STREAMING = "STREAMING"

    @property
    def declared_work(self) -> str:
        return _DECLARED[self][0]

    @property
    def declared_extra_memory(self) -> str:
        return _DECLARED[self][1]

    @classmethod
    def parse(cls, name: str) -> "SmoothingPlan":
        try:
            return cls[name.upper()]
        except KeyError:
            valid = ", ".join(p.name for p in cls)
            raise ParameterError(f"unknown plan {name!r}; valid plans: {valid}")


#: Declared (work, extra memory) classes per plan.
_DECLARED = {
    SmoothingPlan.NAIVE: ("n^2 w^2", "O(1)"),
    SmoothingPlan.WS: ("n^2", "O(n^2)"),
    SmoothingPlan.PREFIX: ("n^2", "O(n^2)"),
    SmoothingPlan.FAST: ("n^2", "O(n w)"),
    SmoothingPlan.EFFICIENT: ("n^2", "O(w^2)"),
    SmoothingPlan.STREAMING: ("n^2 w", "O(w)"),
}


#: Plans that require a materialized input matrix.
MATERIALIZED_PLANS = (SmoothingPlan.NAIVE, SmoothingPlan.WS, SmoothingPlan.PREFIX)


@dataclass(frozen=True)
class WindowSpec:
    """Square window of side ``w`` with a boundary rule.

    ``valid`` shrinks the output to windows fully inside the matrix;
    ``periodic`` wraps indices, keeping the output the same shape as the
    input (windows larger than the matrix wrap around more than once).
    """

    w: int
    boundary: str = "valid"

    def __post_init__(self):
        if self.w < 1:
            raise ParameterError(f"window side must be >= 1, got {self.w}")
        if self.boundary not in ("valid", "periodic"):
            raise ParameterError(
                f"boundary must be 'valid' or 'periodic', got {self.boundary!r}"
            )

    def out_shape(self, rows: int, cols: int) -> tuple[int, int]:
        if self.boundary == "valid":
            if self.w > min(rows, cols):
                raise ParameterError(
                    f"window {self.w} exceeds matrix dimensions {rows}x{cols}"
                )
            return rows - self.w + 1, cols - self.w + 1
        return rows, cols


def _naive_valid(a: np.ndarray, w: int) -> np.ndarray:
    shape = tuple(n - w + 1 for n in a.shape)
    out = np.zeros(shape, dtype=a.dtype)
    with WORKSPACE.held(out):
        for offs in itertools.product(range(w), repeat=a.ndim):
            out += a[tuple(slice(o, o + n) for o, n in zip(offs, shape))]
    return out


def _ws_valid(a: np.ndarray, w: int) -> np.ndarray:
    ro = a.shape[0] - w + 1
    co = a.shape[1] - w + 1
    # horizontal strips r[i, j] = sum_k a[i, j+k], rolled along j
    r = np.empty((a.shape[0], co), dtype=a.dtype)
    r[:, 0] = a[:, :w].sum(axis=1)
    if co > 1:
        r[:, 1:] = r[:, :1] + np.cumsum(a[:, w:] - a[:, : co - 1], axis=1)
    # vertical strips are only needed to seed the first output row
    c0 = a[:w, :].sum(axis=0)
    s = np.empty((ro, co), dtype=a.dtype)
    nbytes = WORKSPACE.note(r, c0, s)
    try:
        s[0, 0] = a[:w, :w].sum()
        row0 = s[0]
        for j in range(1, co):
            row0[j] = row0[j - 1] - c0[j - 1] + c0[j + w - 1]
        for i in range(1, ro):
            s[i] = s[i - 1] - r[i - 1] + r[i + w - 1]
    finally:
        WORKSPACE.drop(nbytes)
    return s


_VALID_FNS = {
    SmoothingPlan.NAIVE: _naive_valid,
    SmoothingPlan.WS: _ws_valid,
    SmoothingPlan.PREFIX: box_sums,
}


def smooth_periodic(a: np.ndarray, w: int, plan: SmoothingPlan) -> np.ndarray:
    """Periodic ``w``-box sums over every axis of a materialized 2-D or 3-D
    array by one of the materialized plans; the output has the input's shape.

    NAIVE re-sums all ``w**ndim`` shifted copies of the wrapped array. WS and
    PREFIX run their 2-D engine on each plane of the first two axes, then
    the same plan's 1-D pass along the third axis: the strip recurrence for
    WS, the shared cumsum-difference kernel for PREFIX. A window of 1 is an
    exact copy.
    """
    if w == 1:
        return a.copy()
    if plan is SmoothingPlan.NAIVE or a.ndim == 2:
        ext = np.pad(a, ((0, w - 1),) * a.ndim, mode="wrap")
        with WORKSPACE.held(ext):
            return _VALID_FNS[plan](ext, w)
    m = a.shape[2]
    ext = np.empty(a.shape[:2] + (m + w - 1,), dtype=a.dtype)
    with WORKSPACE.held(ext):
        for c in range(m):
            ext[:, :, c] = smooth_periodic(a[:, :, c], w, plan)
        ext[:, :, m:] = ext[:, :, : w - 1]
        if plan is SmoothingPlan.PREFIX:
            return box_sums(ext, w, axes=(2,))
        out = np.empty_like(a)
        with WORKSPACE.held(out):
            out[:, :, 0] = ext[:, :, :w].sum(axis=2)
            for j in range(1, m):
                out[:, :, j] = out[:, :, j - 1] - ext[:, :, j - 1] + ext[:, :, j + w - 1]
        return out


def window_sums_2d(a, spec: WindowSpec, plan: SmoothingPlan) -> np.ndarray:
    """All ``w x w`` window sums of a materialized matrix.

    Every plan produces the same values (within the documented tolerance);
    they differ in how they get there. Returns the full output matrix, so
    the memory tiers of the lean plans only pay off through
    :func:`hospectra.tiled.smoothed_cells_2d` or the estimation pipeline.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ParameterError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.dtype.kind not in "fc":
        a = a.astype(np.float64)
    rows_out, cols_out = spec.out_shape(*a.shape)
    w = spec.w
    if w == 1:  # a width-1 window is the identity, exactly
        return a.copy()
    if plan in MATERIALIZED_PLANS:
        if spec.boundary == "periodic":
            return smooth_periodic(a, w, plan)
        return _VALID_FNS[plan](a, w)
    rows_n, cols_n = a.shape

    def fetch(rows, cols):  # valid-mode indices never reach the wrap
        return a[np.asarray(rows) % rows_n, np.asarray(cols) % cols_n]

    out = np.empty((rows_out, cols_out), dtype=a.dtype)
    spans = [(r, 0, cols_out) for r in range(rows_out)]
    with WORKSPACE.held(out):
        for row, c0, vals in smoothed_cells_2d(fetch, rows_out, cols_out, w, plan.name, spans):
            out[row, c0 : c0 + vals.size] = vals
    return out
