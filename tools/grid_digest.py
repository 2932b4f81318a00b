"""Print one digest line per estimated grid over a fixed matrix of cells.

A bit-identity claim between two source trees becomes one ``diff``: run this
script against each tree's ``src`` and compare the outputs, e.g.

    PYTHONPATH=src python tools/grid_digest.py > new.txt
    PYTHONPATH=../old/src python tools/grid_digest.py > old.txt
    diff old.txt new.txt

Line format: ``order m w K conj plan P partition sha256 modelled_peak
naive_dev scale_dev``. The sha256 covers the grid's index bytes followed by
its value bytes; the modelled peak is ``WORKSPACE.peak`` after the run;
``naive_dev`` is ``compare_grids`` against the NAIVE grid of the same order,
m, w, K and conjugation setting, so a "within tolerance" claim reads off the
same lines; ``scale_dev`` is ``max|grid - naive| / max|naive|``, the same
deviation against the grid's scale, which bins whose true value is zero
cannot inflate. ``tools/grid_digest.golden`` holds the committed output:

    PYTHONPATH=src python tools/grid_digest.py | diff tools/grid_digest.golden -

Cells: order 3 at m=64, w in {1,2,3,5,8}; order 4 at m=32 and order 5 at
m=24, w in {1,2,3,5}; every plan, K in {1,3}, conjugation on and off; the
lean plans also at P in {2,3} with both partition modes. Order 3 also at
m=512, w in {9,49}, K=1, conjugation on: FAST and EFFICIENT at P in {1,2},
after their NAIVE reference; there a band holds several EFFICIENT column
units and the P=2 cut falls inside a band. At w=9, EFFICIENT also runs at
P=3 with both partitions: its bands hold units that every run covers, and
the point_blocks cuts fall mid-row; STREAMING runs at P in {1,2}, so its
bands hold several 1 x S units and the P=2 cut falls inside one. Uses the
public API only.
"""

import hashlib
import itertools

import numpy as np

from hospectra import (
    WORKSPACE,
    EstimationConfig,
    SegmentConfig,
    SmoothingPlan,
    WorkerConfig,
    compare_grids,
    generate_qpc,
    parallel_estimate,
)

LEAN = (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING)
CELLS = ((3, 64, (1, 2, 3, 5, 8)), (4, 32, (1, 2, 3, 5)), (5, 24, (1, 2, 3, 5)))
LARGE = (3, 512, (9, 49))


def cells():
    for order, m, windows in CELLS:
        for w, k, conj, plan in itertools.product(windows, (1, 3), (True, False), SmoothingPlan):
            yield order, m, w, k, conj, plan, WorkerConfig()
            if plan in LEAN:
                for p, part in itertools.product((2, 3), ("row_blocks", "point_blocks")):
                    yield order, m, w, k, conj, plan, WorkerConfig(p, part)
    order, m, windows = LARGE
    for w in windows:
        yield order, m, w, 1, True, SmoothingPlan.NAIVE, WorkerConfig()
        for plan, p in itertools.product((SmoothingPlan.FAST, SmoothingPlan.EFFICIENT), (1, 2)):
            yield order, m, w, 1, True, plan, WorkerConfig(p)
        if w == windows[0]:
            for part in ("row_blocks", "point_blocks"):
                yield order, m, w, 1, True, SmoothingPlan.EFFICIENT, WorkerConfig(3, part)
            for p in (1, 2):
                yield order, m, w, 1, True, SmoothingPlan.STREAMING, WorkerConfig(p)


def main():
    for order, m, w, k, conj, plan, workers in cells():
        series = generate_qpc(0.11, 0.23, k * m, noise_sigma=0.5, seed=100 * order + k)
        cfg = EstimationConfig(order, SegmentConfig(m=m, k=k), w, plan, conjugate_last=conj)
        WORKSPACE.reset()
        grid = parallel_estimate(series, cfg, workers)
        if plan is SmoothingPlan.NAIVE:  # the first plan of each (order, m, w, K, conj)
            naive = grid
        digest = hashlib.sha256(grid.indices.tobytes() + grid.values.tobytes()).hexdigest()
        dev = compare_grids(grid, naive)
        scale_dev = np.max(np.abs(grid.values - naive.values)) / np.max(np.abs(naive.values))
        print(order, m, w, k, int(conj), plan.name, workers.p, workers.partition, digest,
              WORKSPACE.peak, f"{dev:.2e}", f"{scale_dev:.2e}")


if __name__ == "__main__":
    main()
