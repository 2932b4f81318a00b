import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from hospectra import parallel
from hospectra import (
    EstimationConfig,
    ParameterError,
    SegmentConfig,
    SmoothingPlan,
    WorkerConfig,
    estimate_spectrum,
    generate_qpc,
    parallel_estimate,
    partition_domain,
    principal_domain,
)
from hospectra.bench import measure_peak_memory


class TestPartitionDomain:
    def test_single_worker_gets_everything(self):
        dom = principal_domain(3, 16)
        for mode in ("row_blocks", "point_blocks"):
            assert partition_domain(dom, WorkerConfig(p=1, partition=mode)) == [0, len(dom)]

    def test_point_blocks_sizes_differ_by_at_most_one(self):
        dom = principal_domain(3, 8)  # 6 points
        cuts = partition_domain(dom, WorkerConfig(p=4, partition="point_blocks"))
        assert sorted(np.diff(cuts)) == [1, 1, 2, 2]

    def test_every_point_appears_exactly_once(self):
        dom = principal_domain(3, 64)
        for mode in ("row_blocks", "point_blocks"):
            cuts = partition_domain(dom, WorkerConfig(p=8, partition=mode))
            assert len(cuts) == 9
            assert cuts[0] == 0 and cuts[-1] == len(dom), mode
            assert all(a <= b for a, b in zip(cuts, cuts[1:])), mode

    def test_row_blocks_keep_rows_whole(self):
        dom = principal_domain(3, 64)
        cuts = partition_domain(dom, WorkerConfig(p=5, partition="row_blocks"))
        inner = [c for c in cuts if 0 < c < len(dom)]
        assert inner
        for c in inner:
            assert dom[c - 1, 0] != dom[c, 0]

    def test_more_workers_than_points(self):
        dom = principal_domain(3, 4)  # 2 points
        cuts = partition_domain(dom, WorkerConfig(p=6, partition="point_blocks"))
        assert cuts == [0, 1, 2, 2, 2, 2, 2]

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
                    cuts = partition_domain(ref.indices, workers)
                    assert any(ref.indices[c, 2] > 0 for c in cuts[1:-1]), p
                got = parallel_estimate(series, cfg, workers)
                assert np.array_equal(ref.values, got.values), (p, partition)

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


class TestParallelFailure:
    def test_failing_worker_surfaces_and_leaves_nothing_behind(self, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm to inspect")

        def failing(*args):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(parallel, "smoothed_values", failing)
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
                cuts = partition_domain(ref.indices, workers)
                busy = sum(a < b for a, b in zip(cuts, cuts[1:]))
                idle += p - busy
                spawned.clear()
                got = parallel_estimate(series, cfg, workers)
                assert len(spawned) == busy, (p, partition)
                assert np.array_equal(ref.values, got.values), (p, partition)
        assert idle > 0

    def test_first_failure_raises_without_waiting_for_other_slices(self, monkeypatch):
        def first_fails_rest_sleep(spec_set, cfg, start, stop):
            if start == 0:
                raise RuntimeError("injected worker failure")
            time.sleep(3)

        monkeypatch.setattr(parallel, "smoothed_values", first_fails_rest_sleep)
        series = generate_qpc(0.1, 0.15, 128, 0.4, seed=9)
        cfg = EstimationConfig(3, SegmentConfig(m=128), 5, SmoothingPlan.EFFICIENT)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            parallel_estimate(series, cfg, WorkerConfig(p=2))
        assert time.perf_counter() - t0 < 1.5
        assert multiprocessing.active_children() == []

    def test_worker_dying_without_result_names_slice_and_exit_code(self, monkeypatch):
        real = parallel.smoothed_values

        def first_exits(spec_set, cfg, start, stop):
            if start == 0:
                os._exit(3)
            return real(spec_set, cfg, start, stop)

        monkeypatch.setattr(parallel, "smoothed_values", first_exits)
        series = generate_qpc(0.1, 0.15, 128, 0.4, seed=9)
        cfg = EstimationConfig(3, SegmentConfig(m=128), 5, SmoothingPlan.EFFICIENT)
        workers = WorkerConfig(p=2)
        stop = partition_domain(principal_domain(3, 128), workers)[1]
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
    end by itself: each worker finishes its one slice and exits."""
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
        deadline = time.monotonic() + 10
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
