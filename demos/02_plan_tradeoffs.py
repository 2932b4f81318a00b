"""The six smoothing plans: one answer, six cost profiles.

Every plan computes the same smoothed spectrum. They differ in how the
box sums are carried: brute-force re-summation (NAIVE), running sums
along each axis of a materialized grid (WS), prefix sums with differencing
along each axis (PREFIX), WS's running sums over bands of w source rows
(FAST), PREFIX's box sums over square blocks of max(48, w) output cells
(EFFICIENT), or FAST's running sums over one row of 48 output cells at a
time, fetched at most 48 source columns per call (STREAMING). The working-set meter shows the memory tiers; the wall clock
shows the work tiers.
"""

from hospectra import (
    EstimationConfig,
    SegmentConfig,
    SmoothingPlan,
    compare_grids,
    estimate_spectrum,
    generate_qpc,
)
from hospectra.bench import measure_run


def main():
    n, m3 = 1024, 21
    series = generate_qpc(0.1, 0.15, n, 0.5, seed=3)
    print(f"n = m = {n}, smoothing window m3 = {m3}\n")
    print(f"{'plan':<10} {'work':>8} {'memory':>8} {'wall':>9} {'working set':>12} {'vs NAIVE':>10}")

    reference = None
    for plan in SmoothingPlan:
        cfg = EstimationConfig(3, SegmentConfig(m=n), m3, plan)
        grid, wall, peak = measure_run(series, cfg)
        if reference is None:
            reference = grid
            dev = 0.0
        else:
            dev = compare_grids(reference, grid)
        print(
            f"{plan.name:<10} {plan.declared_work:>8} {plan.declared_extra_memory:>8} "
            f"{wall * 1e3:8.1f}ms {peak / 1024:10.1f}KiB {dev:10.1e}"
        )

    print("\nAll plans agree within 1e-9 relative deviation; the columns")
    print("show what each one spends to get there.")


if __name__ == "__main__":
    main()
