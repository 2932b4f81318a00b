import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import max_rel_dev
from hospectra import (
    EstimationConfig,
    ParameterError,
    SegmentConfig,
    SmoothingPlan,
    SpectrumGrid,
    TimeSeries,
    WorkerConfig,
    compare_grids,
    estimate_from_spectra,
    estimate_spectrum,
    generate_qpc,
    parallel_estimate,
    principal_domain,
    raw_product_value,
    write_grid_csv,
)
from hospectra.dft import SegmentSpectrumSet, dft_segments
from hospectra.meter import WORKSPACE
from hospectra.series import CSV_CHUNK_ROWS, segment_and_demean
from hospectra.spectra import _materialized_values, _raw_block, smoothed_values


def cfg3(m, m3, plan=SmoothingPlan.EFFICIENT, k=1, conj=True):
    return EstimationConfig(3, SegmentConfig(m=m, k=k), m3, plan, conjugate_last=conj)


def cfg4(m, m3, plan=SmoothingPlan.EFFICIENT, k=1):
    return EstimationConfig(4, SegmentConfig(m=m, k=k), m3, plan)


class TestRawValues:
    def test_zero_spectrum(self):
        assert raw_product_value(np.zeros(8, complex), 2, 3) == 0.0
        assert raw_product_value(np.zeros(8, complex), 1, 2, 3) == 0.0

    def test_argument_symmetry(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert raw_product_value(f, 3, 5) == raw_product_value(f, 5, 3)
        base = raw_product_value(f, 2, 4, 7)
        for perm in itertools.permutations((2, 4, 7)):
            got = raw_product_value(f, *perm)
            assert abs(got - base) <= 1e-12 * abs(base)

    def test_flat_spectrum_quarter(self):
        f = np.ones(4, complex)
        for k1 in range(4):
            for k2 in range(4):
                assert abs(raw_product_value(f, k1, k2) - 0.25) < 1e-15
        for k in itertools.product(range(4), repeat=3):
            assert abs(raw_product_value(f, *k) - 0.25) < 1e-15

    def test_conjugate_toggle_matches_defining_product(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v_conj = raw_product_value(f, 2, 3, conjugate_last=True)
        v_plain = raw_product_value(f, 2, 3, conjugate_last=False)
        assert abs(v_conj - f[2] * f[3] * np.conj(f[5]) / 8) < 1e-12
        assert abs(v_plain - f[2] * f[3] * f[5] / 8) < 1e-12

    def test_multiplies_left_to_right_at_any_order(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert raw_product_value(f, 2, 4, 7) == f[2] * f[4] * f[7] * np.conj(f[13]) / 16
        got = raw_product_value(f, 2, 4, 7, 9, conjugate_last=False)
        assert got == f[2] * f[4] * f[7] * f[9] * f[6] / 16

    def test_index_wrapping(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert abs(
            raw_product_value(f, 5, 6) - f[5] * f[6] * np.conj(f[3]) / 8
        ) < 1e-12



class TestRawBlockDepth:
    """A block of depth ``w`` is the sum of the ``w**j`` single planes at the
    ``j`` indices of its origin past the box, each from its own value on: the
    lean plans' fetch contract (one index at order 4, two at order 5)."""

    M = 32
    # (origin, shape): negative origins, and indices past the box near m that wrap
    BLOCKS = [((-3, -7, -2), (5, 9)), ((4, 29, M - 2), (11, 6)),
              ((M - 1, 0, M - 1), (1, 1)), ((0, 0, 0), (M, M)),
              ((-3, -7, -2, 5), (5, 9)), ((4, 29, M - 2, M - 1), (11, 6)),
              ((M - 1, 0, M - 1, -1), (1, 1)), ((0, 0, 0, 0), (M, M))]

    @pytest.mark.parametrize("w", [1, 2, 5, 9])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("conj", [True, False])
    def test_depth_sums_its_planes(self, w, k, conj):
        rng = np.random.default_rng(10 * w + k)
        spectra = rng.standard_normal((k, self.M)) + 1j * rng.standard_normal((k, self.M))
        for origin, shape in self.BLOCKS:
            got = _raw_block(spectra, origin, shape, conj, depth=w)
            folded = origin[len(shape):]
            planes = [
                _raw_block(spectra, origin[:2] + tuple(o + d for o, d in zip(folded, t)),
                           shape + (1,) * len(folded), conj).reshape(shape)
                for t in itertools.product(range(w), repeat=len(folded))
            ]
            expect = sum(planes)
            assert got.shape == expect.shape == shape, (origin, got.shape)
            scale = float(np.abs(expect).max())
            assert np.abs(got - expect).max() <= 1e-13 * scale, (origin, w)
            if w == 1:  # the fold of one plane moves no bit
                assert got.tobytes() == planes[0].tobytes(), origin


class TestPrincipalDomain:
    def test_segment_shorter_than_two_rejected(self):
        with pytest.raises(ParameterError, match="segment length must be >= 2"):
            principal_domain(3, 1)

    def test_empty_and_out_of_range_slices(self):
        size = len(principal_domain(3, 8))
        assert principal_domain(3, 8, 5, 5).shape == (0, 2)
        assert principal_domain(3, 8, 6, 2).shape == (0, 2)
        for start, stop in ((0, size + 1), (-1, 2)):
            with pytest.raises(ParameterError, match=f"outside domain of size {size}"):
                principal_domain(3, 8, start, stop)

    def test_order3_m2_origin_only(self):
        assert [tuple(p) for p in principal_domain(3, 2)] == [(0, 0)]

    def test_order3_m8_matches_enumeration(self):
        expect = [
            (k1, k2)
            for k1 in range(8)
            for k2 in range(8)
            if k2 <= k1 and k1 + k2 < 4
        ]
        assert [tuple(p) for p in principal_domain(3, 8)] == expect
        assert expect == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]

    def test_order4_m4_matches_enumeration(self):
        expect = [
            (k1, k2, k3)
            for k1 in range(4)
            for k2 in range(4)
            for k3 in range(4)
            if k3 <= k2 <= k1 and k1 + k2 + k3 < 2
        ]
        assert [tuple(p) for p in principal_domain(4, 4)] == expect
        assert expect == [(0, 0, 0), (1, 0, 0)]

    def test_exhaustive_oracle_various_m(self):
        for m in (2, 3, 7, 16, 33):
            got3 = [tuple(p) for p in principal_domain(3, m)]
            expect3 = [
                (a, b)
                for a in range(m)
                for b in range(m)
                if b <= a and a + b < m / 2
            ]
            assert got3 == expect3, m
            got4 = [tuple(p) for p in principal_domain(4, m)]
            expect4 = [
                (a, b, c)
                for a in range(m)
                for b in range(m)
                for c in range(m)
                if c <= b <= a and a + b + c < m / 2
            ]
            assert got4 == expect4, m

    def test_domain_slice_matches_full_build(self):
        # smoothed_values over [a, b) equals the whole-domain values[a:b]
        # bit for bit: the property the parallel workers rely on. Random
        # spectra give every point a distinct value, so a misplaced index
        # shows as a changed value.
        rng = np.random.default_rng(21)

        def check(order, m, m3, cuts):
            cuts = list(cuts)
            spec_set = SegmentSpectrumSet(rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m)))
            for plan in (SmoothingPlan.EFFICIENT, SmoothingPlan.WS):
                cfg = EstimationConfig(order, SegmentConfig(m=m, k=1), m3, plan)
                full = smoothed_values(spec_set, cfg, 0, len(principal_domain(order, m)))
                for a, b in cuts:
                    got = smoothed_values(spec_set, cfg, a, b)
                    assert np.array_equal(got, full[a:b]), (order, m, plan.name, a, b)

        for order, m, m3 in ((3, 64, 5), (3, 127, 7), (4, 16, 3), (4, 33, 5)):
            dom = principal_domain(order, m)
            cuts = [(0, len(dom)), (3, 11), (len(dom) // 2, len(dom))]
            if order == 4:
                # cuts that start and end inside a (k1, k2) run, across runs
                # and within a single one
                mid = np.flatnonzero(dom[:, 2] > 0)
                last2 = int(np.flatnonzero(dom[:, 2] == 2)[-1])
                half = len(mid) // 2
                cuts += [(int(mid[1]), int(mid[-2])), (int(mid[half]), int(mid[half + 1])), (last2 - 1, last2)]
            check(order, m, m3, cuts)
        for order in (3, 4):
            for m in (3, 4, 5):  # m = 2 admits no window (m3 < m/2)
                size = len(principal_domain(order, m))
                check(order, m, (m - 1) // 2, itertools.combinations(range(size + 1), 2))


class TestEstimateSpectrum:
    def test_constant_series_gives_zero_grid(self):
        # demeaning a constant yields exact zeros; the grid follows
        grid = estimate_spectrum(TimeSeries(np.full(64, 2.5)), cfg3(64, 5))
        assert np.all(grid.values == 0)
        grid4 = estimate_spectrum(TimeSeries(np.full(64, -1.0)), cfg4(64, 5))
        assert np.all(grid4.values == 0)

    def test_window_too_large_rejected(self):
        with pytest.raises(ParameterError, match="m3 < m/2"):
            cfg3(64, 32)

    def test_window_below_one_rejected(self):
        with pytest.raises(ParameterError, match=">= 1, got 0"):
            cfg3(64, 0)

    def test_empty_slice_gives_no_values(self):
        series = generate_qpc(0.1, 0.15, 32)
        spec_set = dft_segments(segment_and_demean(series, SegmentConfig(32, 1)))
        for plan in (SmoothingPlan.NAIVE, SmoothingPlan.EFFICIENT):
            assert smoothed_values(spec_set, cfg3(32, 3, plan), 7, 7).shape == (0,)

    def test_config_and_spectra_mismatch_rejected(self):
        series = generate_qpc(0.1, 0.15, 64)
        spec_set = dft_segments(segment_and_demean(series, SegmentConfig(32, 2)))
        for cfg in (cfg3(32, 3), cfg3(64, 3, k=2)):
            with pytest.raises(ParameterError, match=r"does not match spectra \(2x32\)"):
                estimate_from_spectra(spec_set, cfg)

    def test_smoothing_window_of_one_is_identity_on_raw_grid(self):
        for make_cfg, m in ((cfg3, 64), (cfg4, 32)):
            series = generate_qpc(0.1, 0.15, m, 0.4, seed=5)
            segs = segment_and_demean(series, SegmentConfig(m=m, k=1))
            f = dft_segments(segs).spectra[0]
            grid = estimate_spectrum(series, make_cfg(m, 1, SmoothingPlan.FAST))
            for idx, val in zip(grid.indices, grid.values):
                raw = raw_product_value(f, *idx)
                assert abs(val - raw) <= 1e-9 * max(abs(raw), 1e-12)

    @pytest.mark.parametrize("order, m", [(3, 64), (4, 32), (3, 60), (4, 30)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("conj", [True, False])
    def test_window_of_one_is_byte_identical_across_plans(self, order, m, k, conj):
        # every plan sums the same unscaled raw products over the segments in
        # the same order, and the estimate divides by k * m * m3**(order-1)
        # once, so smoothing a window of one before or after summing the
        # segments moves no bit, whatever m and k
        series = generate_qpc(0.11, 0.23, k * m, noise_sigma=0.5, seed=10 * order + k)
        grids = [
            estimate_spectrum(
                series, EstimationConfig(order, SegmentConfig(m=m, k=k), 1, plan, conjugate_last=conj)
            ).values.tobytes()
            for plan in SmoothingPlan
        ]
        assert grids == grids[:1] * len(grids)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(128)
        alpha = 1.7
        g1 = estimate_spectrum(TimeSeries(x), cfg3(128, 5))
        g2 = estimate_spectrum(TimeSeries(alpha * x), cfg3(128, 5))
        assert max_rel_dev(g2.values, alpha**3 * g1.values) < 1e-9
        g1 = estimate_spectrum(TimeSeries(x[:64]), cfg4(64, 5))
        g2 = estimate_spectrum(TimeSeries(alpha * x[:64]), cfg4(64, 5))
        assert max_rel_dev(g2.values, alpha**4 * g1.values) < 1e-9

    @pytest.mark.parametrize("m3", [4, 5])
    def test_window_offsets_per_parity(self, m3):
        # odd windows are centered symmetrically; even windows extend one
        # cell further on the trailing side: offsets [-m3//2, m3-1-m3//2]
        m = 32
        series = generate_qpc(0.1, 0.15, m, 0.4, seed=19)
        segs = segment_and_demean(series, SegmentConfig(m=m, k=1))
        f = dft_segments(segs).spectra[0]
        raw = np.array(
            [[raw_product_value(f, a, b) for b in range(m)] for a in range(m)]
        )
        h = m3 // 2
        offsets = range(-h, m3 - h)
        assert min(offsets) == -h and max(offsets) == m3 - 1 - h
        grid = estimate_spectrum(series, cfg3(m, m3, SmoothingPlan.NAIVE))
        for idx, val in zip(grid.indices, grid.values):
            k1, k2 = int(idx[0]), int(idx[1])
            expect = sum(
                raw[(k1 + u) % m, (k2 + v) % m] for u in offsets for v in offsets
            ) / m3**2
            assert abs(val - expect) <= 1e-9 * max(abs(expect), 1e-12)

    def test_qpc_peak_bin_pair(self):
        m = 1024
        series = generate_qpc(0.1, 0.15, m, 0.0, seed=7)
        grid = estimate_spectrum(series, cfg3(m, 5))
        (k1, k2), _ = grid.peak_point()
        assert abs(k1 - 0.15 * m) <= 1.0
        assert abs(k2 - 0.10 * m) <= 1.0

    def test_swap_symmetry_of_full_grid(self):
        series = generate_qpc(0.1, 0.15, 64, 0.4, seed=8)
        spec_set = dft_segments(segment_and_demean(series, SegmentConfig(m=64, k=1)))
        every_cell = np.indices((64, 64)).reshape(2, -1).T
        full = np.empty(64 * 64, dtype=complex)
        _materialized_values(spec_set, cfg3(64, 5, SmoothingPlan.WS), every_cell, full)
        full = full.reshape(64, 64)
        assert max_rel_dev(full, full.T) < 1e-9

    def test_smooth_then_average_equals_average_then_smooth(self):
        # materialized plans smooth per segment then average; the lean plans
        # average raw values first; linearity makes them agree
        series = generate_qpc(0.05, 0.12, 512, 0.6, seed=9)
        a = estimate_spectrum(series, cfg3(128, 7, SmoothingPlan.WS, k=4))
        b = estimate_spectrum(series, cfg3(128, 7, SmoothingPlan.EFFICIENT, k=4))
        assert compare_grids(a, b) < 1e-9

    def test_conjugate_variant_kept(self):
        series = generate_qpc(0.1, 0.15, 64, 0.4, seed=10)
        with_conj = estimate_spectrum(series, cfg3(64, 3, conj=True))
        without = estimate_spectrum(series, cfg3(64, 3, conj=False))
        assert not np.allclose(with_conj.values, without.values)
        for plan in SmoothingPlan:
            got = estimate_spectrum(series, cfg3(64, 3, plan, conj=False))
            assert compare_grids(without, got) < 1e-9

    def test_multi_segment_averaging(self):
        series = generate_qpc(0.1, 0.15, 256, 0.5, seed=11)
        ref = estimate_spectrum(series, cfg3(64, 5, SmoothingPlan.NAIVE, k=4))
        for plan in SmoothingPlan:
            got = estimate_spectrum(series, cfg3(64, 5, plan, k=4))
            assert compare_grids(ref, got) < 1e-9, plan

    def test_order4_plan_agreement_small(self):
        series = generate_qpc(0.1, 0.15, 32, 0.5, seed=12)
        ref = estimate_spectrum(series, cfg4(32, 3, SmoothingPlan.NAIVE))
        for plan in SmoothingPlan:
            got = estimate_spectrum(series, cfg4(32, 3, plan))
            assert compare_grids(ref, got) < 1e-9, plan


def defining_sum(spectra, point, w, conj):
    """The smoothed estimate at ``point`` by brute force: ``raw_product_value``
    over every segment and every offset of the centred window, averaged."""
    m, offsets = spectra.shape[1], range(-(w // 2), w - w // 2)
    total = sum(raw_product_value(f, *((k + o) % m for k, o in zip(point, off)),
                                  conjugate_last=conj)
                for f in spectra for off in itertools.product(offsets, repeat=len(point)))
    return total / (len(spectra) * w ** len(point))


class TestOrdersFiveAndSix:
    """Orders past 4 take the same two branches: each index past the second
    is one more plane coordinate of the block branch, folded into the fetch's
    last factor. Every plan agrees with NAIVE and the defining sum, all six
    give the same bytes at w=1, and any worker count the same grid."""

    # order 6 boxes are m**5 cells: WS and PREFIX run there only at these (w, K)
    BOX_CELLS = ((1, 1), (1, 3), (5, 1))

    @staticmethod
    def series(order, m, k):
        return generate_qpc(0.11, 0.23, k * m, noise_sigma=0.5, seed=10 * order + k)

    def test_order_two_is_refused(self):
        with pytest.raises(ParameterError, match=">= 3"):
            EstimationConfig(2, SegmentConfig(m=16), 3)
        with pytest.raises(ParameterError, match=">= 3"):
            principal_domain(2, 16)

    def test_principal_domain_matches_enumeration(self):
        for order, m in ((5, 2), (5, 7), (5, 16), (6, 3), (6, 12)):
            expect = [k for k in itertools.product(range(m), repeat=order - 1)
                      if list(k) == sorted(k, reverse=True) and 2 * sum(k) < m]
            assert [tuple(p) for p in principal_domain(order, m)] == expect, (order, m)

    @pytest.mark.parametrize("order, m, w", [(5, 24, w) for w in (1, 2, 3, 5, 9)]
                             + [(6, 16, w) for w in (1, 2, 3, 5)])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("conj", [True, False])
    def test_plans_agree_with_naive_and_the_defining_sum(self, order, m, w, k, conj):
        series = self.series(order, m, k)
        boxes = order == 5 or (w, k) in self.BOX_CELLS
        plans = [p for p in SmoothingPlan if boxes or p.name not in ("WS", "PREFIX")]
        seg = SegmentConfig(m=m, k=k)
        grids = [estimate_spectrum(series, EstimationConfig(order, seg, w, p, conjugate_last=conj))
                 for p in plans]
        naive = grids[0].values
        scale = float(np.abs(naive).max())
        for plan, grid in zip(plans, grids):
            assert np.abs(grid.values - naive).max() <= 1e-9 * scale, plan
            if w >= 5:  # below, near-zero bins dominate the per-point measure
                assert compare_grids(grids[0], grid) < 1e-9, plan
            if w == 1:
                assert grid.values.tobytes() == naive.tobytes(), plan
        spectra = dft_segments(segment_and_demean(series, SegmentConfig(m=m, k=k))).spectra
        rng = np.random.default_rng(w + k)
        for t in [int(np.argmax(np.abs(naive))), *rng.integers(0, len(naive), 2)]:
            expect = defining_sum(spectra, grids[0].indices[t], w, conj)
            for plan, grid in zip(plans, grids):
                assert abs(grid.values[t] - expect) <= 1e-9 * scale, (plan, t)

    @pytest.mark.parametrize("w, k, conj", [(2, 1, False), (5, 3, True)])
    def test_two_workers_give_the_serial_grid(self, w, k, conj):
        series = self.series(5, 24, k)
        for plan in (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING):
            cfg = EstimationConfig(5, SegmentConfig(m=24, k=k), w, plan, conjugate_last=conj)
            ref = parallel_estimate(series, cfg, WorkerConfig(1))
            for partition in ("row_blocks", "point_blocks"):
                got = parallel_estimate(series, cfg, WorkerConfig(2, partition))
                assert got.indices.tobytes() == ref.indices.tobytes(), (plan, partition)
                assert got.values.tobytes() == ref.values.tobytes(), (plan, partition)


def metered_values(order, m, w, k, plan):
    """Whole-domain ``smoothed_values`` with its modelled peak (after one
    untraced warm-up pass) and its traced peak."""
    series = generate_qpc(0.1, 0.15, k * m, 0.5, seed=3)
    spec_set = dft_segments(segment_and_demean(series, SegmentConfig(m=m, k=k)))
    cfg = EstimationConfig(order, SegmentConfig(m=m, k=k), w, plan)
    npoints = len(principal_domain(order, m))
    smoothed_values(spec_set, cfg, 0, npoints)
    WORKSPACE.reset()
    tracemalloc.start()
    try:
        smoothed_values(spec_set, cfg, 0, npoints)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert WORKSPACE.current == 0
    return WORKSPACE.peak, traced


class TestMaterializedMeter:
    @pytest.mark.parametrize("order, m, w, k", [(3, 512, 49, 1), (3, 512, 9, 3),
                                                (4, 128, 9, 1), (4, 96, 5, 3)])
    def test_meter_matches_traced_peak(self, order, m, w, k):
        # the model counts the raw box, its product chain, the smoothed box,
        # the gathered values and the O(points) accumulator with its indices
        for plan in (SmoothingPlan.NAIVE, SmoothingPlan.WS, SmoothingPlan.PREFIX):
            modelled, traced = metered_values(order, m, w, k, plan)
            assert 0.8 <= traced / modelled <= 1.25, (plan.name, traced / modelled)

    def test_naive_holds_less_than_one_grid(self):
        modelled, _ = metered_values(4, 64, 5, 1, SmoothingPlan.NAIVE)
        assert modelled < 16 * 64**3



class TestLeanTiersOrder4:
    """A lean order-4 sweep holds one summed block at a time, so FAST and
    EFFICIENT hold no more than at order 3 (a ring of ``w`` planes held 5.0x
    order 3's EFFICIENT and 9.1x its FAST peak at w=33). STREAMING's ``1 x S``
    units stay O(w) at order 3, a band's first fetched in pieces of at most
    ``S`` columns (whole, it read 2.3x and 2.7x per doubling of w), and its
    ``1 x S`` blocks O(w^2) at order 4."""

    M = 256

    def peak(self, order, w, plan):
        series = generate_qpc(0.1, 0.15, self.M, 0.5, seed=3)
        spec_set = dft_segments(segment_and_demean(series, SegmentConfig(m=self.M, k=1)))
        cfg = EstimationConfig(order, SegmentConfig(m=self.M, k=1), w, plan)
        WORKSPACE.reset()
        smoothed_values(spec_set, cfg, 0, len(principal_domain(order, self.M)))
        assert WORKSPACE.current == 0
        return WORKSPACE.peak

    @pytest.mark.parametrize("plan", [SmoothingPlan.FAST, SmoothingPlan.EFFICIENT])
    def test_no_more_than_order_3(self, plan):
        for w in (9, 33, 65):
            peak3, peak4 = self.peak(3, w, plan), self.peak(4, w, plan)
            assert peak4 <= peak3, (plan.name, w, peak4 / peak3)

    @pytest.mark.parametrize("order, bound", [(3, 2.2), (4, 4.2)])
    def test_streaming_quadratic_in_window(self, order, bound):
        peaks = [self.peak(order, w, SmoothingPlan.STREAMING) for w in (17, 33, 65)]
        for small, big in zip(peaks, peaks[1:]):
            assert big / small <= bound, peaks


class TestSpectrumGrid:
    def test_every_principal_tuple_present_exactly_once(self):
        series = generate_qpc(0.1, 0.15, 64, 0.3, seed=17)
        for order, m in ((3, 64), (4, 32)):
            grid = estimate_spectrum(
                series,
                EstimationConfig(order, SegmentConfig(m=m), 3, SmoothingPlan.FAST),
            )
            expect = [tuple(p) for p in principal_domain(order, m)]
            got = [tuple(p) for p in grid.indices]
            assert len(set(got)) == len(got) == len(expect) == len(grid.values)
            assert got == expect
            assert np.all(np.isfinite(grid.values.real))
            assert np.all(np.isfinite(grid.values.imag))


class TestCompareGrids:
    def test_grid_against_itself(self):
        series = generate_qpc(0.1, 0.15, 64, 0.2, seed=13)
        g = estimate_spectrum(series, cfg3(64, 3))
        assert compare_grids(g, g) == 0.0

    def test_zero_grids(self):
        g = estimate_spectrum(TimeSeries(np.full(64, 1.0)), cfg3(64, 3))
        assert compare_grids(g, g) == 0.0

    def test_empty_grids(self):
        assert compare_grids(hand_grid(3, [], []), hand_grid(3, [], [])) == 0.0

    def test_shape_mismatch_rejected(self):
        series = generate_qpc(0.1, 0.15, 128, 0.2, seed=14)
        a = estimate_spectrum(series, cfg3(128, 3))
        b = estimate_spectrum(series, cfg3(64, 3))
        with pytest.raises(ParameterError):
            compare_grids(a, b)


def reference_grid_csv(grid, path):
    """One f-string per row: the writer whose bytes the chunked one keeps."""
    names = [f"k{i + 1}" for i in range(grid.order - 1)]
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(",".join(names + ["re", "im"]) + "\n")
        for idx, val in zip(grid.indices, grid.values):
            bins = ",".join(str(int(v)) for v in idx)
            fh.write(f"{bins},{val.real:.17g},{val.imag:.17g}\n")


def hand_grid(order, indices, values):
    indices = np.asarray(indices, dtype=np.int32).reshape(-1, order - 1)
    values = np.asarray(values, dtype=np.complex128)
    return SpectrumGrid(order, 64, 3, SmoothingPlan.EFFICIENT, indices, values)


def assert_same_bytes_as_reference(grid, tmp_path):
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_grid_csv(grid, got)
    reference_grid_csv(grid, ref)
    assert got.read_bytes() == ref.read_bytes()


class TestGridCsv:
    def test_format_and_roundtrip(self, tmp_path):
        series = generate_qpc(0.1, 0.15, 32, 0.2, seed=15)
        grid = estimate_spectrum(series, cfg3(32, 3))
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["k1", "k2", "re", "im"]
            rows = list(reader)
        assert len(rows) == len(grid.values)
        for row, idx, val in zip(rows, grid.indices, grid.values):
            assert [int(row[0]), int(row[1])] == [int(idx[0]), int(idx[1])]
            # 17 significant digits round-trip float64 exactly
            assert float(row[2]) == val.real
            assert float(row[3]) == val.imag

    def test_order4_header(self, tmp_path):
        series = generate_qpc(0.1, 0.15, 16, 0.2, seed=16)
        grid = estimate_spectrum(series, cfg4(16, 3))
        path = tmp_path / "grid4.csv"
        write_grid_csv(grid, path)
        header = open(path).readline().strip()
        assert header == "k1,k2,k3,re,im"

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize(
        "rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, 3 * CSV_CHUNK_ROWS + 17]
    )
    def test_bytes_match_per_row_reference(self, tmp_path, order, rows):
        # below one chunk, exactly one, and several plus a remainder; values
        # spread over 40 decades so every %.17g shape appears
        rng = np.random.default_rng(rows + order)
        indices = rng.integers(0, 2**31 - 1, size=(rows, order - 1))
        scale = 10.0 ** rng.integers(-20, 20, size=(2, rows))
        parts = rng.standard_normal((2, rows)) * scale
        grid = hand_grid(order, indices, parts[0] + 1j * parts[1])
        assert_same_bytes_as_reference(grid, tmp_path)

    @pytest.mark.parametrize("order, m", [(3, 64), (4, 16)])
    def test_estimated_grid_matches_per_row_reference(self, tmp_path, order, m):
        series = generate_qpc(0.1, 0.15, m, 0.2, seed=18)
        grid = estimate_spectrum(series, EstimationConfig(order, SegmentConfig(m=m), 3))
        assert_same_bytes_as_reference(grid, tmp_path)

    @pytest.mark.parametrize("order", [3, 4])
    def test_empty_grid_writes_header_only(self, tmp_path, order):
        grid = hand_grid(order, np.empty((0, order - 1)), np.empty(0))
        path = tmp_path / "empty.csv"
        write_grid_csv(grid, path)
        names = ["k1", "k2", "k3"][: order - 1]
        assert path.read_bytes() == (",".join(names + ["re", "im"]) + "\n").encode()
        assert_same_bytes_as_reference(grid, tmp_path)

    @pytest.mark.parametrize("order", [3, 4])
    def test_edge_values_on_both_parts(self, tmp_path, order):
        edge = [-0.0, 5e-324, 1e308, 0.1, 2.0, -1.5e-17]
        values = [complex(re, im) for re, im in itertools.product(edge, edge)]
        indices = np.arange(len(values) * (order - 1))
        grid = hand_grid(order, indices, values)
        assert_same_bytes_as_reference(grid, tmp_path)
        rows = (tmp_path / "got.csv").read_text().splitlines()[1:]
        assert rows[0].endswith(",-0,-0")
        assert rows[7].endswith(",4.9406564584124654e-324,4.9406564584124654e-324")
        assert [float(v) for v in rows[14].split(",")[-2:]] == [1e308, 1e308]
