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

NAIVE re-sums every window. WS and PREFIX make one 1-D pass per axis, for
any number of axes, through the two shared kernels of
:mod:`hospectra.tiled`: WS carries each line's sum with the running-sum
recurrence (:func:`~hospectra.tiled.running_sums`), PREFIX differences
cumulative sums (:func:`~hospectra.tiled.box_sums`). FAST, EFFICIENT and
STREAMING are source-on-demand engines that apply the same kernels to
pieces of the output, pulling values through a fetch callable instead of
reading a materialized matrix: FAST is WS down bands of rows, EFFICIENT is
PREFIX over square blocks of ``max(S, w)`` output cells, STREAMING is
EFFICIENT over rows of ``S`` output cells, fetched at most ``S`` source
columns at a time; all three sum across as PREFIX does.

:func:`smooth` is the materialized plans' one entry point, valid mode only,
for arrays of any number of axes (a box of the periodic frequency grid holds
its windows' wrapped cells); :func:`window_sums_2d` runs any plan on a 2-D
matrix with either boundary rule, wrap-padding a periodic one once so that
every plan sums in valid mode.

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
from .tiled import Runs, box_sums, running_sums, smoothed_runs

__all__ = [
    "SmoothingPlan",
    "WindowSpec",
    "smooth",
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


def smooth(a: np.ndarray, w: int, plan: SmoothingPlan) -> np.ndarray:
    """Valid-mode ``w``-box sums over every axis of ``a`` by a materialized
    plan: each axis shrinks by ``w - 1``.

    A window of 1 is an exact copy. NAIVE re-sums all ``w**ndim`` shifted
    copies of ``a``. WS (running sums) and PREFIX (the shared
    cumsum-difference kernel) make one pass per axis, last axis first.
    """
    if plan not in MATERIALIZED_PLANS:
        raise ParameterError(f"smooth runs NAIVE, WS or PREFIX, not {plan!r}")
    if w == 1:
        return a.copy()
    if plan is SmoothingPlan.NAIVE:
        shape = tuple(n - w + 1 for n in a.shape)
        out = np.zeros(shape, dtype=a.dtype)
        with WORKSPACE.held(out):
            for offs in itertools.product(range(w), repeat=a.ndim):
                out += a[tuple(slice(o, o + n) for o, n in zip(offs, shape))]
        return out
    kernel = box_sums if plan is SmoothingPlan.PREFIX else running_sums
    # bytes of the current array once it is not the caller's; a new array is
    # noted before the one it was made from is dropped, as both are live
    held = 0
    try:
        for axis in reversed(range(a.ndim)):
            a = kernel(a, w, axis)
            held, _ = WORKSPACE.note(a), WORKSPACE.drop(held)
    finally:
        WORKSPACE.drop(held)
    return a


def window_sums_2d(a, spec: WindowSpec, plan: SmoothingPlan) -> np.ndarray:
    """All ``w x w`` window sums of a materialized matrix.

    Every plan produces the same values (within the documented tolerance);
    they differ in how they get there. Returns the full output matrix, so
    the memory tiers of the lean plans only pay off through
    :func:`hospectra.tiled.smoothed_runs` or the estimation pipeline.
    """
    if not isinstance(plan, SmoothingPlan):
        raise ParameterError(f"plan must be a SmoothingPlan, got {plan!r}")
    a = np.asarray(a)
    if a.ndim != 2:
        raise ParameterError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.dtype.kind not in "fc":
        a = a.astype(np.float64)
    w = spec.w
    if spec.boundary == "periodic" and a.size:  # then every plan sums in valid mode
        a = np.pad(a, (0, w - 1), mode="wrap")
    elif w > min(a.shape):
        raise ParameterError(f"window {w} exceeds matrix dimensions {a.shape[0]}x{a.shape[1]}")
    if plan in MATERIALIZED_PLANS:
        return smooth(a, w, plan)
    rows_out, cols_out = (n - w + 1 for n in a.shape)
    out = np.empty((rows_out, cols_out), dtype=a.dtype)
    r = np.arange(rows_out)  # one run per output row
    runs = Runs(r[:, None], np.zeros_like(r), np.full_like(r, cols_out), r * cols_out)
    with WORKSPACE.held(out):
        smoothed_runs(lambda r0, c0, rows, cols: a[r0 : r0 + rows, c0 : c0 + cols], cols_out,
                      w, plan.name, runs, out.reshape(-1))
    return out
