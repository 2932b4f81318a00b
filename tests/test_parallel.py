import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

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
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched function reaches the workers only through fork")
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
        if not hasattr(ProcessPoolExecutor, "_spawn_process"):
            pytest.skip("this Python's pool has no per-process spawn hook")
        spawned = []
        spawn = ProcessPoolExecutor._spawn_process

        def counting_spawn(pool):
            spawned.append(pool)
            spawn(pool)

        monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", counting_spawn)
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
