"""hospectra benchmark: closed-loop jobs, end-to-end metrics, traced layers.

Run from the root of a checkout (the sources are taken from ``src/``)::

    python3 perfbench/run.py --workload o3-smallwin-k4 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is a separate pass: it runs the same jobs untraced and then with spans
around each public call (``trace.overhead_frac`` is the difference), and
probes each module once to give the per-layer metrics. Every job's output
is checked; a job that raises, exits non-zero or fails its check counts as
failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record (host, input sizes, tail percentile, check results),
which is also written with the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

import host
from spans import Tracer, drive_tiled
from workloads import (
    REL_TOL,
    WORKLOADS,
    cli_argv,
    csv_shape_problem,
    csv_values_problem,
    estimation_config,
    grid_problem,
    library_job,
    make_series,
    stop_helper_processes,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_JOBS = 3
PROBE_REPEATS = 3
MB = 1e6
#: Rows of the write probe: the cli-o3-csv grid; larger grids are written in part.
WRITE_ROWS = 262_656
#: A child process that runs longer is killed, with every process it started.
CHILD_TIMEOUT_S = 170
#: Runs of the calibration kernel between two jobs.
CAL_REPEATS = 8

#: name -> unit of the bounded end-to-end metrics. A ``cal`` is one run
#: of the calibration kernel (see calibrate): this host's load from other
#: tenants comes in phases that moved per-run median wall times by 20-50%,
#: while job times in kernel units repeated within a few percent.
END_TO_END = {
    "setup_s": "s",
    "job_cal_p50": "cal",
    "job_cal_tail": "cal",
    "peak_rss_mb": "MB",
}

#: name -> unit of the end-to-end figures reported beside them, unbounded
#: because they follow the host's load.
REPORTED = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "job_s_min": "s",
    "points_per_s": "1/s",
    "kernel_s_p50": "s",
    "fail_frac": "frac",
}

#: name -> (unit, the end-to-end metric it should move, on which workload).
#: A layer off a workload's job path is still probed on that workload's data
#: (the series saved as CSV, the first WRITE_ROWS rows of its grid) and the
#: cli layer on the cli-o3-csv configuration, so every time is measured.
PER_LAYER = {
    "series.load_s": ("s", "job_cal_p50 on cli-o3-csv; off the job path elsewhere"),
    "series.segment_s": ("s", "negligible everywhere"),
    "dft.fft_s": ("s", "negligible everywhere"),
    "spectra.domain_s": ("s", "job_cal_p50 on o4-trispec and o3-bigwin-p2"),
    "spectra.smooth_s": ("s", "job_cal_p50, points_per_s on o3-smallwin-k4 and o4-trispec"),
    "spectra.write_s": ("s", "job_cal_p50 on cli-o3-csv only; off the job path elsewhere"),
    "spectra.write_mb": ("MB", "job_cal_p50 on cli-o3-csv only; off the job path elsewhere"),
    "tiled.engine_s": ("s", "job_cal_p50 on o3-smallwin-k4 and o4-trispec; not cli-o3-csv"),
    "tiled.fetch_s": ("s", "job_cal_p50 on o3-smallwin-k4 and o4-trispec; not cli-o3-csv"),
    "tiled.self_s": ("s", "job_cal_p50 on o3-smallwin-k4 and o4-trispec; not cli-o3-csv"),
    "tiled.fetch_calls": ("count", "job_cal_p50 on o3-smallwin-k4 and o4-trispec"),
    "tiled.units": ("count", "job_cal_p50 on o3-smallwin-k4 and o4-trispec"),
    "tiled.cells_fetched": ("count", "job_cal_p50 on o3-smallwin-k4 and o4-trispec"),
    "tiled.read_amp": ("ratio", "job_cal_p50 on o3-smallwin-k4 and o4-trispec"),
    "tiled.bytes_fetched": ("B", "computed as cells_fetched * 16; as cells_fetched"),
    "parallel.p1_s": ("s", "job_cal_p50 on o3-bigwin-p2 only"),
    "parallel.pn_s": ("s", "job_cal_p50 on o3-bigwin-p2 only"),
    "parallel.speedup": ("ratio", "job_cal_p50 on o3-bigwin-p2 only"),
    "parallel.overhead_s": ("s", "job_cal_p50 on o3-bigwin-p2 only"),
    "parallel.shm_left": ("count", "failure counter; 0 expected"),
    "parallel.procs_left": ("count", "failure counter; 0 expected"),
    "meter.model_peak_mb": ("MB", "peak_rss_mb on every workload"),
    "meter.traced_peak_mb": ("MB", "peak_rss_mb on every workload"),
    "meter.traced_over_model": ("ratio", "peak_rss_mb on every workload"),
    "cli.main_s": ("s", "job_cal_p50 on cli-o3-csv; off the job path elsewhere"),
    "cli.startup_s": ("s", "setup_s and job_cal_p50 on cli-o3-csv; off the job path elsewhere"),
    "trace.overhead_frac": ("frac", "none: cost of the traced pass itself"),
}


class Run:
    """One benchmark invocation: the workload, its inputs and references,
    the checks that failed outside the job loop, and the trace."""

    def __init__(self, hs, wl, seed: int, tmp: Path, cli_wl) -> None:
        self.hs = hs
        self.wl = wl
        self.cli_wl = cli_wl
        self.tmp = tmp
        self.seed = seed
        self.problems: list[str] = []
        self.tracer = Tracer()
        self.series = make_series(hs, wl, seed)
        self.cfg = estimation_config(hs, wl)
        # Reference grid, computed once with the FAST plan.
        self.ref = hs.estimate_spectrum(self.series, estimation_config(hs, wl, "FAST"))
        self.npoints = len(self.ref.values)
        self.exact = None
        self.program_grid = None
        if wl.p > 1:
            self.exact = library_job(hs, wl, self.series, p=1)
            self.note("single-worker grid", grid_problem(hs, self.exact, self.ref))
        self.raw_input = tmp / "series.f64"
        self.series.samples.astype("<f8").tofile(self.raw_input)
        self.csv_input = tmp / "series.csv"
        self.csv_out = tmp / "grid.csv"
        if wl.cli:
            hs.save_series(self.series, self.csv_input, "csv")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )

    def note(self, what: str, problem: str | None) -> None:
        if problem is not None:
            self.problems.append(f"{what}: {problem}")

    # -- jobs ---------------------------------------------------------------

    def job(self):
        """One untraced job; returns (output, points)."""
        if self.wl.cli:
            return self.cli_child(), self.npoints
        grid = library_job(self.hs, self.wl, self.series)
        return grid, len(grid.values)

    def cli_child(self):
        return run_child(
            [sys.executable, "-m", "hospectra"] + cli_argv(self.wl, self.csv_input, self.csv_out),
            self.env,
        )

    def check(self, out) -> str | None:
        if self.wl.cli:
            if out.returncode != 0:
                return f"exit {out.returncode}: {out.stderr.strip()[-300:]}"
            return csv_shape_problem(self.wl, self.csv_out, self.npoints)
        return grid_problem(self.hs, out, self.ref, self.exact)

    def decomposed_p1(self, job_id: str):
        """The P=1 path of ``parallel_estimate`` as separate public calls."""
        hs, tr = self.hs, self.tracer
        with tr.span("parallel.p1", job_id):
            with tr.span("series.segment"):
                segs = hs.segment_and_demean(self.series, self.cfg.segment)
            with tr.span("dft.fft"):
                spec = hs.dft_segments(segs)
            with tr.span("spectra.estimate"):
                grid = hs.estimate_from_spectra(spec, self.cfg)
        return grid

    def traced_job(self, job_id: str):
        """The untraced job's work with a span around each public call."""
        tr = self.tracer
        with tr.span("job", job_id):
            if self.wl.cli:
                with tr.span("cli.child"):
                    return self.cli_child(), self.npoints
            if self.wl.p > 1:
                with tr.span("parallel.pn"):
                    grid = library_job(self.hs, self.wl, self.series)
            else:
                grid = self.decomposed_p1(job_id)
        return grid, len(grid.values)


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run ``argv`` from the checkout's root in a session of its own and wait
    for it. On timeout the whole session is killed (the child and any process
    it started) before the timeout is raised."""
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def calibrate() -> float:
    """Wall time of a fixed kernel, independent of hospectra: Python string
    formatting, NumPy scans over a 2 MB array, and a Python loop of NumPy
    calls on short slices. Load from other tenants of a shared host
    stretches this kernel and the jobs alike, so a job's time in kernel
    units stays steady where its wall time drifts. The kernel runs
    CAL_REPEATS times and the mean is returned: one run (about 30 ms) is
    too short to sample the load a job of a second meets."""
    a = np.arange(262_144.0)
    b = np.arange(64.0)
    t0 = time.perf_counter()
    n, t = 0, 0.0
    for _ in range(CAL_REPEATS):
        for i in range(10_000):
            n += len(f"{i},{i * 0.37:.17g}")
        for _ in range(6):
            c = np.cumsum(a[::-1])
            c *= 1e-3
        for i in range(3_000):
            t += float(b[i & 31 : (i & 31) + 9].sum())
    return (time.perf_counter() - t0) / CAL_REPEATS


def pin_cpus(workers: int) -> None:
    """Keep this process and every process it starts on the first
    ``workers`` CPUs it may use. On a shared host the CPUs slow down
    unevenly; a job that migrated between them met a load the calibration
    kernel, run on another CPU, did not see."""
    cpus = sorted(os.sched_getaffinity(0))
    if workers < len(cpus):
        os.sched_setaffinity(0, cpus[:workers])


def calibrate_on(workers: int) -> float:
    """The calibration kernel on ``workers`` CPUs at once, in this process
    and ``workers - 1`` forked ones; returns the slowest. A job of several
    worker processes ends with its slowest worker, so its kernel too must
    meet the load of every CPU the job runs on."""
    children = []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child reports its kernel time and exits at once
                os.close(r)
                status = 1
                try:
                    os.write(w, struct.pack("d", calibrate()))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        times = [calibrate()]
        for _, r in children:
            blob = os.read(r, 8)
            if len(blob) != 8:
                raise RuntimeError("a calibration child exited without its time")
            times.append(struct.unpack("d", blob)[0])
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    return max(times)


def measure_jobs(job, check, seconds: float, workers: int,
                 min_jobs: int = MIN_JOBS) -> list[dict]:
    """Closed loop: run ``job()`` until ``seconds`` have passed and at least
    ``min_jobs`` ran. Only the job is timed; its check follows outside.
    The calibration kernel runs on the job's ``workers`` CPUs before the
    first job and after each one; a job's ``cal`` is its wall time over
    the mean of the kernel times just before and just after it."""
    records = []
    kernel = calibrate_on(workers)
    t_end = time.perf_counter() + seconds
    while len(records) < min_jobs or time.perf_counter() < t_end:
        out, points, problem = None, 0, None
        t0 = time.perf_counter()
        try:
            out, points = job()
        except Exception:  # a failing job is counted, and the loop goes on
            problem = traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        after = calibrate_on(workers)
        kernel_s = (kernel + after) / 2
        kernel = after
        if problem is None:
            problem = check(out)
        records.append({"wall": wall, "cal": wall / kernel_s, "kernel_s": kernel_s,
                        "points": points, "problem": problem})
    return records


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond it): the highest percentile with at
    least ten jobs beyond it. With 20 jobs or fewer that percentile is at or
    below the median, so the median is reported instead."""
    s = sorted(values)
    n = len(s)
    if n > 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(s), 50.0, n // 2


def passed(records: list[dict]) -> list[dict]:
    """The jobs that passed their check (all jobs if none did)."""
    return [r for r in records if r["problem"] is None] or records


def measure_setup(run: Run) -> tuple[list[float], list[int]]:
    """Fresh-process ``import hospectra`` plus one warm-up job, repeated."""
    setup_s, rss_kb = [], []
    src = run.csv_input if run.wl.cli else run.raw_input
    for i in range(SETUP_REPEATS):
        proc = run_child(
            [sys.executable, str(HERE / "setup_child.py"), json.dumps(asdict(run.wl)), str(src),
             str(run.tmp / "setup_grid.csv")],
            run.env,
        )
        if proc.returncode != 0:
            run.note(f"set-up probe {i}", f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        setup_s.append(rec["setup_s"])
        rss_kb.append(rec["rss_kb"])
    return setup_s, rss_kb


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def warm_up(run: Run) -> None:
    out, _ = run.job()
    run.note("warm-up job", run.check(out))
    if not run.wl.cli:
        run.program_grid = out


def end_to_end(run: Run, seconds: float) -> tuple[list[dict], dict, dict]:
    """Untraced pass. ``setup_s`` and ``peak_rss_mb`` come from the set-up
    probes, fresh processes that each import hospectra and run one job; the
    job figures come from the closed loop that follows one warm-up job."""
    setup_s, rss_kb = measure_setup(run)
    warm_up(run)
    records = measure_jobs(run.job, run.check, seconds, run.wl.p)
    if run.wl.cli:
        run.note("grid CSV parse", csv_values_problem(run.hs, run.wl, run.csv_out, run.ref))
    ok = passed(records)
    walls = [r["wall"] for r in ok]
    cal = [r["cal"] for r in ok]
    cal_tail, pct, beyond = tail(cal)
    metrics = {
        "setup_s": statistics.median(setup_s) if setup_s else 0.0,
        "job_cal_p50": statistics.median(cal),
        "job_cal_tail": cal_tail,
        "peak_rss_mb": max(rss_kb) * 1024 / MB if rss_kb else 0.0,
        "job_s_p50": statistics.median(walls),
        "job_s_tail": tail(walls)[0],
        "job_s_min": min(walls),
        "points_per_s": sum(r["points"] for r in records) / sum(r["wall"] for r in records),
        "kernel_s_p50": statistics.median(r["kernel_s"] for r in records),
    }
    extra = {
        "tail": {"percentile": pct, "jobs": len(ok), "beyond": beyond},
        "setup_samples_s": setup_s,
        "setup_rss_kb": rss_kb,
        "job_walls_s": [r["wall"] for r in records],
        "job_cal": [r["cal"] for r in records],
    }
    return records, metrics, extra


def traced(run: Run, seconds: float) -> tuple[list[dict], dict, dict]:
    """Traced pass: untraced jobs, the same jobs with spans, then probes.

    Per-layer times are medians of the spans of one name. P=1 library jobs
    are traced as the separate public calls ``parallel_estimate`` makes; a
    P>1 job is one ``parallel.pn`` span and a CLI job one ``cli.child``
    span, and their stage split comes from P=1 probes. Layers off a
    workload's job path are probed on its data all the same (see
    PER_LAYER). ``tracemalloc`` sees this process only, not pool workers."""
    hs, wl, tr = run.hs, run.wl, run.tracer
    shm_before = shm_segments()
    procs_left = []

    def counted(job):
        def wrapped():
            out = job()
            procs_left.append(len(multiprocessing.active_children()))
            return out
        return wrapped

    warm_up(run)
    # A quarter of the run untraced, a quarter traced, the rest for probes.
    untraced = measure_jobs(counted(run.job), run.check, seconds / 4, wl.p)
    seq = itertools.count()
    traced_jobs = measure_jobs(
        counted(lambda: run.traced_job(f"job-{next(seq)}")), run.check, seconds / 4, wl.p
    )

    # Probes: each layer again, each call in a job of its own.
    if not wl.cli:
        hs.save_series(run.series, run.csv_input, "csv")
    for i in range(PROBE_REPEATS):
        with tr.span("series.load", f"probe-load-{i}"):
            hs.load_series(run.csv_input, "csv")
        with tr.span("spectra.domain", f"probe-domain-{i}"):
            hs.principal_domain(wl.order, wl.m)
        if wl.p > 1 or wl.cli:
            grid = run.decomposed_p1(f"probe-p1-{i}")
            run.note("P=1 probe", grid_problem(hs, grid, run.ref, run.exact))
            run.program_grid = grid
        if wl.p == 1:
            with tr.span("parallel.pn", f"probe-pn-{i}"):
                grid = library_job(hs, wl, run.series)
            procs_left.append(len(multiprocessing.active_children()))
            run.note("P=1 probe", grid_problem(hs, grid, run.ref))

    part = slice(0, WRITE_ROWS)
    head = hs.SpectrumGrid(order=wl.order, m=wl.m, m3=wl.m3, plan=run.cfg.plan,
                           indices=run.program_grid.indices[part],
                           values=run.program_grid.values[part])
    with tr.span("spectra.write", "probe-write"):
        hs.write_grid_csv(head, run.csv_out)
    write_mb = os.path.getsize(run.csv_out) / MB
    run.note("grid CSV write", csv_shape_problem(wl, run.csv_out, len(head.values)))

    probe_cli(run)

    spectra = hs.dft_segments(hs.segment_and_demean(run.series, run.cfg.segment)).spectra
    with tr.span("tiled.drive", "probe-tiled"):
        drive = drive_tiled(hs, spectra, run.ref.indices, wl.m3, wl.plan)
    mine = hs.SpectrumGrid(order=wl.order, m=wl.m, m3=wl.m3, plan=run.cfg.plan,
                           indices=run.ref.indices, values=drive.pop("values"))
    tiled_dev = hs.compare_grids(mine, run.program_grid)
    run.note("tiled drive", None if tiled_dev <= REL_TOL else f"deviates {tiled_dev:.3e}")
    tiled_exact = bool((mine.values == run.program_grid.values).all())

    # Modelled and traced memory of one real job.
    hs.WORKSPACE.reset()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        if wl.cli:
            status = hs.cli.main(cli_argv(wl, run.csv_input, run.csv_out))
            run.note("tracemalloc cli.main", f"exit {status}" if status else None)
        else:
            run.note("tracemalloc job", run.check(library_job(hs, wl, run.series)))
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model_peak = hs.WORKSPACE.peak

    shm_left = len(shm_segments() - shm_before)
    u_cal = statistics.median(r["cal"] for r in passed(untraced))
    t_cal = statistics.median(r["cal"] for r in passed(traced_jobs))
    p1 = tr.median("parallel.p1")
    pn = tr.median("parallel.pn")
    cells = drive["cells_fetched"]
    metrics = {
        "series.load_s": tr.median("series.load"),
        "series.segment_s": tr.median("series.segment"),
        "dft.fft_s": tr.median("dft.fft"),
        "spectra.domain_s": tr.median("spectra.domain"),
        "spectra.smooth_s": tr.median("spectra.estimate") - tr.median("spectra.domain"),
        "spectra.write_s": tr.median("spectra.write"),
        "spectra.write_mb": write_mb,
        "tiled.engine_s": drive["engine_s"],
        "tiled.fetch_s": drive["fetch_s"],
        "tiled.self_s": drive["engine_s"] - drive["fetch_s"],
        "tiled.fetch_calls": drive["fetch_calls"],
        "tiled.units": drive["units"],
        "tiled.cells_fetched": cells,
        "tiled.read_amp": cells / run.npoints,
        "tiled.bytes_fetched": cells * 16,
        "parallel.p1_s": p1,
        "parallel.pn_s": pn,
        "parallel.speedup": p1 / pn,
        "parallel.overhead_s": pn - p1 / wl.p,
        "parallel.shm_left": shm_left,
        "parallel.procs_left": max(procs_left),
        "meter.model_peak_mb": model_peak / MB,
        "meter.traced_peak_mb": traced_peak / MB,
        "meter.traced_over_model": traced_peak / model_peak if model_peak else 0.0,
        "cli.main_s": tr.median("cli.main"),
        "cli.startup_s": tr.median("cli.child") - tr.median("cli.main"),
        "trace.overhead_frac": t_cal / u_cal - 1.0,
    }
    extra = {
        "untraced_job_cal_p50": u_cal,
        "traced_job_cal_p50": t_cal,
        "tiled_max_rel_dev": tiled_dev,
        "tiled_bit_identical": tiled_exact,
        "write_rows": len(head.values),
    }
    return untraced + traced_jobs, metrics, extra


def probe_cli(run: Run) -> None:
    """``hospectra estimate`` on the CLI workload's configuration and this
    run's seed, in process (``cli.main``) and as a child process
    (``cli.child``). A CLI run's own traced jobs add more ``cli.child`` spans."""
    hs, tr, wl = run.hs, run.tracer, run.cli_wl
    src, out = run.tmp / "cli_series.csv", run.tmp / "cli_grid.csv"
    hs.save_series(make_series(hs, wl, run.seed), src, "csv")
    argv = cli_argv(wl, src, out)
    npoints = len(hs.principal_domain(wl.order, wl.m))
    for i in range(2):
        with tr.span("cli.main", f"probe-cli-main-{i}"):
            status = hs.cli.main(argv)
        run.note("in-process cli.main", f"exit {status}" if status else
                 csv_shape_problem(wl, out, npoints))
        with tr.span("cli.child", f"probe-cli-child-{i}"):
            proc = run_child([sys.executable, "-m", "hospectra"] + argv, run.env)
        run.note("CLI child", f"exit {proc.returncode}" if proc.returncode else
                 csv_shape_problem(wl, out, npoints))


def run_workload(hs, wl, seed: int, seconds: float, trace: bool, tmp: Path,
                 cli_wl=WORKLOADS["cli-o3-csv"]) -> dict:
    """Measure one workload; returns the full record. ``cli_wl`` is the
    configuration the traced pass probes the cli layer with."""
    run = Run(hs, wl, seed, tmp, cli_wl)
    records, metrics, extra = (traced if trace else end_to_end)(run, seconds)
    units = {k: v[0] for k, v in PER_LAYER.items()} if trace else END_TO_END
    failed = sum(r["problem"] is not None for r in records)
    metrics["fail_frac"] = failed / len(records)
    reported = {} if trace else {k: {"value": metrics[k], "unit": u} for k, u in REPORTED.items()}
    host_rec = host.host_record()
    csv_bytes = os.path.getsize(run.csv_out) if wl.cli and run.csv_out.exists() else None
    return {
        "workload": wl.name,
        "params": {"order": wl.order, "M": wl.m, "K": wl.k, "M3": wl.m3, "P": wl.p,
                   "plan": wl.plan, "partition": wl.partition, "cli": wl.cli},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_rec,
        "input": host.input_record(wl, run.npoints, csv_bytes, host_rec["llc_bytes"]),
        "attempted": len(records),
        "failed": failed,
        "job_problems": sorted({r["problem"] for r in records if r["problem"]})[:5],
        "check_problems": run.problems,
        "correct": failed == 0 and not run.problems,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "reported": reported,
        "details": extra,
        "spans": run.tracer.spans,
    }


def import_hospectra():
    """Import the checkout's own hospectra from ``src/``; None if absent."""
    if not (SRC / "hospectra" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hospectra
    import hospectra.cli  # noqa: F401  (the package does not import it itself)

    if Path(hospectra.__file__).resolve().parent != (SRC / "hospectra").resolve():
        return None
    return hospectra


def main(argv=None) -> int:
    try:
        return measure(argv)
    finally:
        stop_helper_processes()


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    hs = import_hospectra()
    if hs is None:
        print(f"perfbench: no hospectra package under {SRC}", file=sys.stderr)
        return 2
    pin_cpus(WORKLOADS[args.workload].p)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        rec = run_workload(hs, WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left if another run still uses it
            tmp.parent.rmdir()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    summary = {k: v for k, v in rec.items() if k != "spans"}
    print(json.dumps(summary))
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
