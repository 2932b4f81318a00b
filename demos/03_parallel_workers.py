"""Deterministic data-parallel estimation.

The output points of the smoothed spectrum are independent given the
segment transforms, so the principal domain can be split across worker
processes. The engines compute in grid-aligned units whose values do
not depend on which worker runs them: the grids below are bit-identical
for every worker count, and the instrumented working set grows linearly
with the worker count (each worker owns its own unit buffers).
"""

import os

import numpy as np

from hospectra import (
    EstimationConfig,
    SegmentConfig,
    SmoothingPlan,
    WorkerConfig,
    generate_qpc,
)
from hospectra.bench import measure_run


def main():
    n, m3 = 4096, 9
    series = generate_qpc(0.1, 0.15, n, 0.5, seed=5)
    cfg = EstimationConfig(3, SegmentConfig(m=n), m3, SmoothingPlan.EFFICIENT)
    print(f"n = m = {n}, m3 = {m3}, EFFICIENT plan, host cores: {os.cpu_count()}\n")

    reference = None
    print(f"{'workers':>7} {'wall':>9} {'working set':>12} {'bit-identical':>14}")
    for p in (1, 2, 4, 8):
        grid, wall, peak = measure_run(series, cfg, WorkerConfig(p=p))
        if reference is None:
            reference = grid.values
        same = bool(np.array_equal(reference, grid.values))
        print(f"{p:>7} {wall * 1e3:8.0f}ms {peak / 1024:10.1f}KiB {str(same):>14}")

    print("\nSpeed depends on physical cores; the values never do.")


if __name__ == "__main__":
    main()
