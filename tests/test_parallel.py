import itertools
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from hospectra import parallel, spectra
from hospectra.tiled import Runs
from hospectra import (
    EstimationConfig,
    ParameterError,
    SegmentConfig,
    SmoothingPlan,
    WorkerConfig,
    estimate_spectrum,
    generate_qpc,
    parallel_estimate,
    principal_domain,
)
from hospectra.bench import measure_peak_memory


def point_runs(dom):
    """The run table of a lex-ordered domain, derived from the points themselves
    (``parallel_estimate`` builds it without the points)."""
    starts = np.flatnonzero(np.r_[True, (dom[1:, :-1] != dom[:-1, :-1]).any(axis=1)])
    ends = np.r_[starts[1:], len(dom)]
    return Runs(dom[starts, :-1], dom[starts, -1], dom[ends - 1, -1] + 1, starts)


def cuts_of(dom, workers):
    return parallel._cuts(point_runs(dom), workers)


class TestPartitionDomain:
    def test_single_worker_gets_everything(self):
        dom = principal_domain(3, 16)
        for mode in ("row_blocks", "point_blocks"):
            assert cuts_of(dom, WorkerConfig(p=1, partition=mode)) == [0, len(dom)]

    def test_point_blocks_sizes_differ_by_at_most_one(self):
        dom = principal_domain(3, 8)  # 6 points
        cuts = cuts_of(dom, WorkerConfig(p=4, partition="point_blocks"))
        assert sorted(np.diff(cuts)) == [1, 1, 2, 2]

    def test_every_point_appears_exactly_once(self):
        dom = principal_domain(3, 64)
        for mode in ("row_blocks", "point_blocks"):
            cuts = cuts_of(dom, WorkerConfig(p=8, partition=mode))
            assert len(cuts) == 9
            assert cuts[0] == 0 and cuts[-1] == len(dom), mode
            assert all(a <= b for a, b in zip(cuts, cuts[1:])), mode

    def test_row_blocks_keep_rows_whole(self):
        dom = principal_domain(3, 64)
        cuts = cuts_of(dom, WorkerConfig(p=5, partition="row_blocks"))
        inner = [c for c in cuts if 0 < c < len(dom)]
        assert inner
        for c in inner:
            assert dom[c - 1, 0] != dom[c, 0]

    def test_more_workers_than_points(self):
        dom = principal_domain(3, 4)  # 2 points
        cuts = cuts_of(dom, WorkerConfig(p=6, partition="point_blocks"))
        assert cuts == [0, 1, 2, 2, 2, 2, 2]

    def test_run_table_cuts_match_partition_domain(self):
        # the parent cuts from the run table it builds, never from the domain
        for order, ms in ((3, [*range(2, 40, 3), 64, 129, 8192]), (4, [*range(2, 40, 3), 65, 512])):
            for m in ms:
                dom, runs = principal_domain(order, m), spectra.domain_runs(order, m)
                for p, mode in itertools.product(range(1, 10), ("row_blocks", "point_blocks")):
                    workers = WorkerConfig(p, mode)
                    cuts = parallel._cuts(runs, workers)
                    assert cuts[-1] == len(dom), (order, m, p, mode)
                    assert cuts == cuts_of(dom, workers), (order, m, p, mode)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            WorkerConfig(p=0)
        with pytest.raises(ParameterError):
            WorkerConfig(p=2, partition="diagonal")


class TestParallelEstimate:
    def test_single_worker_identical_to_serial(self):
        series = generate_qpc(0.1, 0.15, 128, 0.4, seed=3)
        cfg = EstimationConfig(3, SegmentConfig(m=128), 5, SmoothingPlan.EFFICIENT)
        serial = estimate_spectrum(series, cfg)
        par = parallel_estimate(series, cfg, WorkerConfig(p=1))
        assert np.array_equal(serial.values, par.values)

    @pytest.mark.parametrize("plan", [SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING])
    @pytest.mark.parametrize("partition", ["row_blocks", "point_blocks"])
    def test_bit_identical_across_worker_counts(self, plan, partition):
        series = generate_qpc(0.1, 0.15, 256, 0.4, seed=4)
        cfg = EstimationConfig(3, SegmentConfig(m=256), 9, plan)
        ref = estimate_spectrum(series, cfg)
        for p in (2, 4, 8):
            got = parallel_estimate(series, cfg, WorkerConfig(p=p, partition=partition))
            assert np.array_equal(ref.values, got.values), (plan, partition, p)
            assert np.array_equal(ref.indices, got.indices)

    def test_bit_identical_order4(self):
        series = generate_qpc(0.1, 0.15, 64, 0.4, seed=5)
        cfg = EstimationConfig(4, SegmentConfig(m=64), 5, SmoothingPlan.EFFICIENT)
        ref = estimate_spectrum(series, cfg)
        for p in (2, 3, 4):
            for partition in ("row_blocks", "point_blocks"):
                workers = WorkerConfig(p=p, partition=partition)
                if partition == "point_blocks":
                    # some worker's slice begins inside a (k1, k2) run
                    cuts = cuts_of(ref.indices, workers)
                    assert any(ref.indices[c, 2] > 0 for c in cuts[1:-1]), p
                got = parallel_estimate(series, cfg, workers)
                assert np.array_equal(ref.values, got.values), (p, partition)

    def test_workers_write_the_domain_indices(self):
        # m=8 leaves some slices empty at P >= 3; at order 4, m=32, point
        # blocks cut inside (k1, k2) runs
        empty = 0
        for order, m in ((3, 8), (3, 64), (4, 8), (4, 32)):
            series = generate_qpc(0.1, 0.15, m, 0.4, seed=12)
            cfg = EstimationConfig(order, SegmentConfig(m=m), 3, SmoothingPlan.EFFICIENT)
            dom = principal_domain(order, m)
            for p, partition in itertools.product(range(2, 6), ("row_blocks", "point_blocks")):
                workers = WorkerConfig(p, partition)
                cuts = cuts_of(dom, workers)
                empty += sum(a == b for a, b in zip(cuts, cuts[1:]))
                got = parallel_estimate(series, cfg, workers).indices
                assert got.dtype == dom.dtype and got.shape == dom.shape, (order, m, p, partition)
                assert got.tobytes() == dom.tobytes(), (order, m, p, partition)
        assert empty > 0

    def test_materialized_plan_runs_serial_any_worker_count(self):
        series = generate_qpc(0.1, 0.15, 128, 0.4, seed=6)
        cfg = EstimationConfig(3, SegmentConfig(m=128), 5, SmoothingPlan.WS)
        ref = estimate_spectrum(series, cfg)
        got = parallel_estimate(series, cfg, WorkerConfig(p=4))
        assert np.array_equal(ref.values, got.values)

    def test_multi_segment_parallel(self):
        series = generate_qpc(0.1, 0.15, 512, 0.4, seed=7)
        cfg = EstimationConfig(3, SegmentConfig(m=128, k=4), 5, SmoothingPlan.FAST)
        ref = estimate_spectrum(series, cfg)
        got = parallel_estimate(series, cfg, WorkerConfig(p=3))
        assert np.array_equal(ref.values, got.values)


class TestParallelMemory:
    def test_worker_memory_sums_linearly(self):
        series = generate_qpc(0.1, 0.15, 512, 0.4, seed=8)
        cfg = EstimationConfig(3, SegmentConfig(m=512), 9, SmoothingPlan.EFFICIENT)
        single = measure_peak_memory(series, cfg, WorkerConfig(p=1))
        eight = measure_peak_memory(series, cfg, WorkerConfig(p=8))
        assert single > 0
        assert eight <= 8.5 * single

    def test_one_shared_mapping_for_the_values(self, monkeypatch):
        calls, real = [], mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda *args: calls.append(args) or real(*args))
        series = generate_qpc(0.1, 0.15, 64, 0.4, seed=8)
        for order in (3, 4):
            cfg = EstimationConfig(order, SegmentConfig(m=64), 5, SmoothingPlan.EFFICIENT)
            calls.clear()
            grid = parallel_estimate(series, cfg, WorkerConfig(p=2))
            assert calls == [(-1, grid.values.nbytes)], order

    def test_workers_cut_the_parents_run_table(self, monkeypatch):
        # one run table per run: built in the parent, cut in each forked worker
        series = generate_qpc(0.1, 0.15, 64, 0.4, seed=8)
        cfgs = [EstimationConfig(order, SegmentConfig(m=64), 5, SmoothingPlan.EFFICIENT)
                for order in (3, 4)]
        refs = [estimate_spectrum(series, cfg).values for cfg in cfgs]
        parent, real, calls = os.getpid(), spectra.domain_runs, []

        def parent_only(*args):
            if os.getpid() != parent:
                raise RuntimeError("a worker rebuilt the run table")
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spectra, "domain_runs", parent_only)
        monkeypatch.setattr(parallel, "domain_runs", parent_only)
        for (cfg, ref), partition in itertools.product(zip(cfgs, refs),
                                                       ("row_blocks", "point_blocks")):
            calls.clear()
            got = parallel_estimate(series, cfg, WorkerConfig(2, partition)).values
            assert calls == [(cfg.order, 64)], (cfg.order, partition)
            assert got.tobytes() == ref.tobytes(), (cfg.order, partition)


class TestParallelFailure:
    def test_failing_worker_surfaces_and_leaves_nothing_behind(self, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm to inspect")

        def failing(*args, **kwargs):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(parallel, "estimate_slice", failing)
        series = generate_qpc(0.1, 0.15, 128, 0.4, seed=9)
        cfg = EstimationConfig(3, SegmentConfig(m=128), 5, SmoothingPlan.EFFICIENT)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(RuntimeError, match="injected worker failure"):
            parallel_estimate(series, cfg, WorkerConfig(p=2))
        left = [n for n in set(os.listdir("/dev/shm")) - before if n.startswith("psm_")]
        assert left == []
        assert multiprocessing.active_children() == []

    def test_one_process_per_nonempty_slice(self, monkeypatch):
        fork_process = multiprocessing.get_context("fork").Process
        spawned = []
        start = fork_process.start

        def counting_start(proc):
            spawned.append(proc)
            start(proc)

        monkeypatch.setattr(fork_process, "start", counting_start)
        series = generate_qpc(0.1, 0.15, 8, 0.4, seed=10)
        cfg = EstimationConfig(3, SegmentConfig(m=8), 3, SmoothingPlan.EFFICIENT)
        ref = estimate_spectrum(series, cfg)  # 6 points in 4 rows
        idle = 0
        for p in range(2, 9):
            for partition in ("row_blocks", "point_blocks"):
                workers = WorkerConfig(p=p, partition=partition)
                cuts = cuts_of(ref.indices, workers)
                busy = sum(a < b for a, b in zip(cuts, cuts[1:]))
                idle += p - busy
                spawned.clear()
                got = parallel_estimate(series, cfg, workers)
                assert len(spawned) == busy, (p, partition)
                assert np.array_equal(ref.values, got.values), (p, partition)
        assert idle > 0

    def test_first_failure_raises_without_waiting_for_other_slices(self, monkeypatch):
        def first_fails_rest_sleep(spec_set, cfg, runs, values):
            if runs.lead[0, 0] == 0:  # the first row_blocks slice
                raise RuntimeError("injected worker failure")
            time.sleep(3)

        monkeypatch.setattr(parallel, "estimate_slice", first_fails_rest_sleep)
        series = generate_qpc(0.1, 0.15, 128, 0.4, seed=9)
        cfg = EstimationConfig(3, SegmentConfig(m=128), 5, SmoothingPlan.EFFICIENT)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            parallel_estimate(series, cfg, WorkerConfig(p=2))
        assert time.perf_counter() - t0 < 1.5
        assert multiprocessing.active_children() == []

    def test_worker_dying_without_result_names_slice_and_exit_code(self, monkeypatch):
        real = parallel.estimate_slice

        def first_exits(spec_set, cfg, runs, values):
            if runs.lead[0, 0] == 0:  # the first row_blocks slice
                os._exit(3)
            real(spec_set, cfg, runs, values)

        monkeypatch.setattr(parallel, "estimate_slice", first_exits)
        series = generate_qpc(0.1, 0.15, 128, 0.4, seed=9)
        cfg = EstimationConfig(3, SegmentConfig(m=128), 5, SmoothingPlan.EFFICIENT)
        workers = WorkerConfig(p=2)
        stop = cuts_of(principal_domain(3, 128), workers)[1]
        with pytest.raises(RuntimeError, match=rf"slice \[0, {stop}\) exited with code 3"):
            parallel_estimate(series, cfg, workers)
        assert multiprocessing.active_children() == []


def _live_session_members(sid):
    """Pids of the non-zombie processes whose session id is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                state, _ppid, _pgrp, session = f.read().rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return f.read().split()


def _shm_segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def test_sigterm_to_parent_leaves_no_worker_or_segment():
    """A SIGTERM runs no ``finally`` in the parent, so what outlives it must
    end by itself: each worker dies with its parent, mid-slice or not."""
    if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
        pytest.skip("this kernel does not list a process's children in /proc")
    loop = textwrap.dedent("""
        from hospectra import (EstimationConfig, SegmentConfig, SmoothingPlan,
                               WorkerConfig, generate_qpc, parallel_estimate)
        series = generate_qpc(0.1, 0.15, 8192, 0.4, seed=11)
        cfg = EstimationConfig(3, SegmentConfig(m=8192), 279, SmoothingPlan.EFFICIENT)
        while True:
            parallel_estimate(series, cfg, WorkerConfig(p=2))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    before = _shm_segments()
    proc = subprocess.Popen([sys.executable, "-c", loop], env=env, start_new_session=True,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None and len(_children(proc.pid)) < 2:  # both workers are up
            assert time.monotonic() < deadline, "the loop never forked its workers"
            time.sleep(0.005)
        assert proc.poll() is None, "the loop exited before it was signalled"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2
        while _live_session_members(proc.pid) or _shm_segments() - before:
            assert time.monotonic() < deadline, (
                f"left after SIGTERM: processes {_live_session_members(proc.pid)}, "
                f"segments {sorted(_shm_segments() - before)}"
            )
            time.sleep(0.1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for name in _shm_segments() - before:  # what the killed processes could not unlink
            os.unlink(os.path.join("/dev/shm", name))


def _running(pid):
    """Whether process ``pid`` still runs: gone or a zombie, it has stopped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_busy_workers_die_with_their_parent(sig):
    """Neither signal runs the parent's ``finally``; each worker, ten seconds from the end of
    its slice, must still be stopped within a second of the parent's death."""
    if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
        pytest.skip("this kernel does not list a process's children in /proc")
    run = textwrap.dedent("""
        import time
        from hospectra import (EstimationConfig, SegmentConfig, SmoothingPlan,
                               WorkerConfig, generate_qpc, parallel)
        def slow(spec_set, cfg, runs, values):
            time.sleep(10)
        parallel.estimate_slice = slow
        series = generate_qpc(0.1, 0.15, 256, 0.4, seed=12)
        cfg = EstimationConfig(3, SegmentConfig(m=256), 5, SmoothingPlan.EFFICIENT)
        parallel.parallel_estimate(series, cfg, WorkerConfig(p=2))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", run], env=dict(os.environ, PYTHONPATH=path),
                            start_new_session=True, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 20
        while proc.poll() is None and len(_children(proc.pid)) < 2:  # both workers are up
            assert time.monotonic() < deadline, "the run never forked its workers"
            time.sleep(0.005)
        workers = [int(pid) for pid in _children(proc.pid)]
        assert proc.poll() is None and len(workers) == 2, workers
        proc.send_signal(sig)
        proc.wait(timeout=5)
        time.sleep(1)
        assert [pid for pid in workers if _running(pid)] == [], "a worker outlived its parent"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
