"""Workload definitions, the job each one runs, and the output checks.

Every workload is a closed loop: one job at a time from a single process,
each job starting when the previous one returns. A job's input is a
``generate_qpc(0.1, 0.15, n, 0.5, seed)`` series; the program receives only
that series (in memory) or the file it was saved to.

This module imports neither NumPy nor hospectra at import time, so the
set-up probe can load it before starting the set-up clock.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed kept out of all tuning runs; a later claim is checked on it too.
HELD_OUT_SEED = 7919

#: Tolerance of every grid check against the FAST-plan reference.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    order: int
    m: int  # samples per segment (M)
    k: int  # segments (K)
    m3: int  # smoothing window side (M3)
    p: int  # worker processes
    cli: bool  # True: each job is a `python -m hospectra estimate` child
    why: str
    plan: str = "EFFICIENT"
    partition: str = "row_blocks"

    @property
    def n(self) -> int:
        return self.m * self.k


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "cli-o3-csv", order=3, m=2048, k=1, m3=117, p=1, cli=True,
            why="one `python -m hospectra estimate` child per job, order 3, M=2048 K=1 "
                "M3=117 EFFICIENT P=1, CSV in, 262,656-row grid CSV out: the full path a "
                "user pays for, write-dominated",
        ),
        Workload(
            "o3-smallwin-k4", order=3, m=4096, k=4, m3=9, p=1, cli=False,
            why="parallel_estimate order 3, M=4096 K=4 M3=9 EFFICIENT P=1, no write: "
                "tiled per-unit Python overhead, 117,534 units and 13,110 four-spectra "
                "fetches per job",
        ),
        Workload(
            "o3-bigwin-p2", order=3, m=8192, k=1, m3=279, p=2, cli=False,
            why="parallel_estimate order 3, M=8192 K=1 M3=279 EFFICIENT P=2 row_blocks: "
                "pool start, pickled spectra, worker domain rebuild, shared-memory "
                "copy-back",
        ),
        Workload(
            "o4-trispec", order=4, m=512, k=1, m3=49, p=1, cli=False,
            why="parallel_estimate order 4, M=512 K=1 M3=49 EFFICIENT P=1: the only run "
                "of smoothed_cells_3d, the order-4 principal_domain loop and the "
                "three-index fetch",
        ),
    )
}


def make_series(hs, wl: Workload, seed: int):
    return hs.generate_qpc(0.1, 0.15, wl.n, 0.5, seed)


def estimation_config(hs, wl: Workload, plan: str | None = None):
    return hs.EstimationConfig(
        order=wl.order,
        segment=hs.SegmentConfig(m=wl.m, k=wl.k),
        m3=wl.m3,
        plan=hs.SmoothingPlan[plan or wl.plan],
    )


def library_job(hs, wl: Workload, series, p: int | None = None):
    """One library job: ``parallel_estimate`` at the workload's worker count."""
    workers = hs.WorkerConfig(p=wl.p if p is None else p, partition=wl.partition)
    return hs.parallel_estimate(series, estimation_config(hs, wl), workers)


def stop_helper_processes() -> None:
    """Stop and reap the helper processes ``multiprocessing`` starts on first
    use and leaves to end on their own after this process exits: the
    resource tracker (started by a parallel job's shared memory) and the fork
    server. Each is closed and waited for; one never started is skipped."""
    from multiprocessing import forkserver, resource_tracker

    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def cli_argv(wl: Workload, input_path, out_path) -> list[str]:
    """Arguments of ``hospectra`` (after the program name) for one CLI job."""
    return [
        "estimate", "--order", str(wl.order), "--input", str(input_path),
        "--format", "csv", "--seg-len", str(wl.m), "--segments", str(wl.k),
        "--window", str(wl.m3), "--plan", wl.plan, "--threads", str(wl.p),
        "--out", str(out_path),
    ]


def grid_problem(hs, grid, ref, exact=None) -> str | None:
    """Why ``grid`` fails its check, or None when it passes.

    ``ref`` is the FAST-plan reference; ``exact``, when given, is a grid the
    result must equal bit for bit (the single-worker grid of a parallel
    workload, itself checked against ``ref`` at set-up)."""
    import numpy as np

    if grid.values.shape != ref.values.shape or not np.array_equal(grid.indices, ref.indices):
        return "domain differs from the reference"
    if exact is not None:
        if not np.array_equal(grid.values, exact.values):
            return "not bit-identical to the single-worker grid"
        return None
    dev = hs.compare_grids(grid, ref)
    if not dev <= REL_TOL:
        return f"max relative deviation {dev:.3e} from the reference exceeds {REL_TOL:g}"
    return None


def csv_header(order: int) -> str:
    return ",".join((["k1", "k2"] if order == 3 else ["k1", "k2", "k3"]) + ["re", "im"])


def csv_shape_problem(wl: Workload, path, npoints: int) -> str | None:
    """Cheap per-job check of a CLI grid file: header line and row count."""
    with open(path, "rb") as fh:
        blob = fh.read()
    first = blob.split(b"\n", 1)[0].decode("utf-8", "replace")
    if first != csv_header(wl.order):
        return f"header {first!r} != {csv_header(wl.order)!r}"
    rows = blob.count(b"\n") - 1
    if rows != npoints:
        return f"{rows} data rows, expected {npoints}"
    return None


def csv_values_problem(hs, wl: Workload, path, ref) -> str | None:
    """Full parse of a CLI grid file against the reference grid."""
    import numpy as np

    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nidx = wl.order - 1
    if table.shape != (len(ref.values), nidx + 2):
        return f"parsed table shape {table.shape}"
    if not np.array_equal(table[:, :nidx].astype(np.int64), ref.indices.astype(np.int64)):
        return "CSV bins differ from the reference domain"
    parsed = hs.SpectrumGrid(
        order=ref.order, m=ref.m, m3=ref.m3, plan=ref.plan, indices=ref.indices,
        values=table[:, nidx] + 1j * table[:, nidx + 1],
    )
    dev = hs.compare_grids(parsed, ref)
    if not dev <= REL_TOL:
        return f"CSV values deviate {dev:.3e} from the reference"
    return None
