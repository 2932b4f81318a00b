import collections
import csv
import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from conftest import max_rel_dev, slice_grid
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
from hospectra import spectra as spectra_module
from hospectra.dft import SegmentSpectrumSet, dft_segments
from hospectra.meter import WORKSPACE
from hospectra.series import CSV_CHUNK_ROWS, segment_and_demean
from hospectra.spectra import _fold, _LeanFetch, _raw_block, domain_runs, estimate_slice
from hospectra.window_sums import smooth


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



def plain_block(spectra, origin, shape, conj):
    """``_raw_block`` over the box ``origin + [0, shape)`` with its last factor taken
    plain over the box's index sums: no fold, every index an axis of the box."""
    lo, n = sum(origin), sum(shape) - len(shape) + 1
    last = spectra.take(np.arange(lo, lo + n), axis=1, mode="wrap")
    return _raw_block(spectra, origin, shape, np.conj(last) if conj else last)


def unfolded_planes(spectra, origin, shape, conj, w):
    """The ``w**j`` single planes at the ``j`` indices of ``origin`` past the box, each
    from its own value on, by :func:`plain_block`."""
    folded = origin[len(shape):]
    return [plain_block(spectra, origin[:2] + tuple(o + d for o, d in zip(folded, t)),
                        shape + (1,) * len(folded), conj).reshape(shape)
            for t in itertools.product(range(w), repeat=len(folded))]


class TestRawBlockDepth:
    """A fresh lean fetch's plane of depth ``w`` is the sum of the ``w**j`` single planes
    at the ``j`` indices of its origin past the box, each from its own value on: the lean
    plans' fetch contract (one index at order 4, two at order 5)."""

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
            r0, c0, *ks = (o + w // 2 for o in origin)  # the fetch shifts every index
            with _LeanFetch(spectra, w, conj) as fetch:
                got = fetch(r0, c0, *shape, *ks)
            planes = unfolded_planes(spectra, origin, shape, conj, w)
            expect = sum(planes)
            assert got.shape == expect.shape == shape, (origin, got.shape)
            scale = float(np.abs(expect).max())
            assert np.abs(got - expect).max() <= 1e-13 * scale, (origin, w)
            if w == 1:  # the plane of one value moves no bit
                assert got.tobytes() == planes[0].tobytes(), origin


class TestFold:
    """``_fold`` sums ``f[o + d] * last[:, d + t]`` over ``d < depth`` per segment, by one
    matmul over a Hankel view of ``last``: a column depends only on itself."""

    M = 64

    @pytest.mark.parametrize("depth", [2, 5, 49])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_the_per_term_sum(self, depth, k):
        rng = np.random.default_rng(depth + k)
        spectra = rng.standard_normal((k, self.M)) + 1j * rng.standard_normal((k, self.M))
        n, o = 2 * depth - 1, -depth // 2  # the engine's narrowest fold; o wraps
        shape = (k, n + depth - 1)
        last = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _fold(spectra, last, o, depth, n)
        expect = np.array([[sum(spectra[i, (o + d) % self.M] * last[i, d + t]
                                for d in range(depth)) for t in range(n)] for i in range(k)])
        assert got.shape == (k, n) and got.flags.c_contiguous
        assert np.abs(got - expect).max() <= 1e-13 * float(np.abs(expect).max())

    @pytest.mark.parametrize("depth", [2, 5, 49])
    def test_leading_columns_keep_their_bits(self, depth):
        # worker-count bit identity: a narrower fold gives the wider one's first columns
        rng = np.random.default_rng(depth)
        spectra = rng.standard_normal((3, self.M)) + 1j * rng.standard_normal((3, self.M))
        n = 2 * depth + 7
        shape = (3, n + depth - 1)
        last = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wide = _fold(spectra, last, 5, depth, n)
        for narrow in (2, 2 * depth - 1, n - 1):
            got = _fold(spectra, last[:, : narrow + depth - 1].copy(), 5, depth, narrow)
            assert got.tobytes() == wide[:, :narrow].tobytes(), narrow


class TestSlidingFold:
    """The lean fetch slides its last plane index: each plane's last factor steps from
    the previous plane's in O(n) and restarts from a direct fold at every multiple of
    ``w`` of the plane index. A plane's bits must not depend on the requests before it,
    and its value must be the depth-``w`` block's."""

    M = 32

    @classmethod
    def requests(cls, order, w):
        """``(r0, c0, rows, cols, *planes)`` requests to one fetch, in order: planes
        skipped, a first request mid-chunk, chunk boundaries crossed, a longer ``n``
        after a shorter one, planes revisited, negative indices and indices near m."""
        m, lead = cls.M, (7,) * (order - 4)
        ks = [w + 1, w + 2, w + 2, 2 * w - 1, 2 * w + 1, 4 * w + 1, w]
        seq = [(3, 2, 6, 5, *lead, k) for k in ks]
        seq += [(3, 2, *rc, *lead, k) for rc, k in (((9, 8), 5 * w), ((4, 3), 5 * w + 1),
                                                 ((9, 8), 5 * w + 2))]  # n shrinks, grows
        seq += [(-3, -7, 5, 4, *(-2,) * (order - 4), k) for k in (-w - 1, -2, -1, 0, 1)]
        seq += [(m - 2, m - 1, 3, 7, *(m - 1,) * (order - 4), k) for k in range(m - 2, m + 3)]
        if order > 4:  # another earlier plane at the same index sum origin
            seq += [(3, 1, 6, 5, 8, k) for k in (2 * w - 1, 2 * w)]
        return seq

    @pytest.mark.parametrize("order", [4, 5])
    @pytest.mark.parametrize("w", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("conj", [True, False])
    def test_planes_match_a_fresh_fetch_and_the_block(self, order, w, k, conj):
        rng = np.random.default_rng(100 * order + 10 * w + k)
        spectra = rng.standard_normal((k, self.M)) + 1j * rng.standard_normal((k, self.M))
        before = WORKSPACE.current
        with _LeanFetch(spectra, w, conj) as fetch:
            for r0, c0, rows, cols, *planes in self.requests(order, w):
                got = fetch(r0, c0, rows, cols, *planes)
                held = WORKSPACE.current
                with _LeanFetch(spectra, w, conj) as fresh:
                    first = fresh(r0, c0, rows, cols, *planes)
                    # a tail per segment, of the n index sums the earlier folds read
                    n = rows + cols - 1 + (order - 4) * (w - 1)
                    assert WORKSPACE.current - held == 16 * k * n
                assert got.tobytes() == first.tobytes(), (r0, c0, rows, cols, planes)
                origin = tuple(x - w // 2 for x in (r0, c0, *planes))
                expect = sum(unfolded_planes(spectra, origin, (rows, cols), conj, w))
                scale = float(np.abs(expect).max())
                assert np.abs(got - expect).max() <= 1e-13 * scale, (r0, c0, planes)
        assert WORKSPACE.current == before

    def test_the_tail_is_metered_while_held(self):
        rng = np.random.default_rng(5)
        spectra = rng.standard_normal((3, self.M)) + 1j * rng.standard_normal((3, self.M))
        before = WORKSPACE.current
        with _LeanFetch(spectra, 5, True) as fetch:
            fetch(2, 1, 6, 7, 1)
            assert WORKSPACE.current - before == 3 * (6 + 7 - 1) * 16
            fetch(2, 1, 4, 4, 3)  # a narrower plane slides the same sums
            assert WORKSPACE.current - before == 3 * (6 + 7 - 1) * 16
        assert WORKSPACE.current == before

    @pytest.mark.parametrize("plan", [SmoothingPlan.FAST, SmoothingPlan.EFFICIENT,
                                      SmoothingPlan.STREAMING])
    @pytest.mark.parametrize("w", [3, 5])
    def test_one_direct_fold_per_origin_and_chunk(self, monkeypatch, plan, w):
        # a whole-domain order-4 sweep asks for each block's planes in order, so
        # every (index sum origin, chunk of w planes) pair is folded at most once
        keys, folds = [], []
        real_slide, real_fold = spectra_module._LeanFetch._slide, spectra_module._fold

        def slide(self, s, k, n):
            keys.append((s, k // w))
            return real_slide(self, s, k, n)

        def fold(*args):
            folds.append(keys[-1])
            return real_fold(*args)

        monkeypatch.setattr(spectra_module._LeanFetch, "_slide", slide)
        monkeypatch.setattr(spectra_module, "_fold", fold)
        series = generate_qpc(0.1, 0.15, self.M, 0.5, seed=3)
        estimate_spectrum(series, cfg4(self.M, w, plan))
        assert max(collections.Counter(folds).values()) == 1, plan.name
        assert set(folds) == set(keys) and len(folds) < len(keys) / 2, (len(folds), len(keys))

    @pytest.mark.parametrize("order, m", [(5, 24), (6, 14)])
    def test_slices_give_the_whole_domain_bits(self, order, m):
        # cuts inside runs make a slice's first blocks start their planes mid-chunk
        rng = np.random.default_rng(order)
        spec_set = SegmentSpectrumSet(rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
        size = len(principal_domain(order, m))
        cuts = [(0, size), (1, size - 1), (size // 3, 2 * size // 3), (size // 2, size // 2 + 3)]
        for plan in (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING):
            cfg = EstimationConfig(order, SegmentConfig(m=m, k=2), 3, plan)
            full = slice_grid(spec_set, cfg, 0, size)
            for a, b in cuts:
                assert slice_grid(spec_set, cfg, a, b).tobytes() == full[a:b].tobytes(), (
                    plan.name, a, b)


class TestPrincipalDomain:
    def test_segment_shorter_than_two_rejected(self):
        with pytest.raises(ParameterError, match="segment length must be >= 2"):
            principal_domain(3, 1)

    def test_empty_and_out_of_range_slices(self):
        spec_set = SegmentSpectrumSet(np.ones((1, 8), dtype=np.complex128))
        table = domain_runs(3, 8)
        size = table.size
        assert size == len(principal_domain(3, 8))
        for plan in SmoothingPlan:
            values = np.full(size, np.nan, complex)
            for start, stop in ((5, 5), (6, 2)):  # an empty slice writes nothing
                estimate_slice(spec_set, cfg3(8, 3, plan), table.cut(start, stop), values[:0])
            assert np.isnan(values).all(), plan.name
        for start, stop in ((0, size + 1), (-1, 2)):
            with pytest.raises(ParameterError, match=f"outside domain of size {size}"):
                table.cut(start, stop)
            with pytest.raises(ParameterError, match=f"outside domain of size {size - 2}"):
                table.cut(1, size - 1).cut(start, stop - 2)

    def test_values_must_fit_the_slice(self):
        # a longer array would have its unwritten cells scaled, a shorter one fail mid-sweep
        spec_set = SegmentSpectrumSet(np.ones((1, 32), dtype=np.complex128))
        for plan in SmoothingPlan:
            for size, (start, stop) in itertools.product((0, 5, 20), ((0, 10), (3, 3))):
                if size == stop - start:
                    continue
                values = np.full(size, np.nan, complex)
                runs = domain_runs(3, 32).cut(start, stop)
                with pytest.raises(ParameterError, match=re.escape(
                        f"{size} values for a slice of {stop - start} points")):
                    estimate_slice(spec_set, cfg3(32, 3, plan), runs, values)
                assert np.isnan(values).all(), (plan.name, size)

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
        # the run table's cut [a, b) expands to the domain's index tuples
        # [a:b], and estimate_slice over it writes the whole-domain
        # values[a:b] bit for bit: the property the parallel workers rely
        # on. Random spectra give every point a distinct value, so a
        # misplaced index shows as a changed value.
        rng = np.random.default_rng(21)

        def check(order, m, m3, cuts):
            cuts = list(cuts)
            spec_set = SegmentSpectrumSet(rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m)))
            dom, table = principal_domain(order, m), domain_runs(order, m)
            for a, b in cuts:
                indices = spectra_module._expand(table.cut(a, b))
                assert indices.dtype == dom.dtype and indices.tobytes() == dom[a:b].tobytes(), (
                    order, m, a, b)
            for plan in SmoothingPlan:
                cfg = EstimationConfig(order, SegmentConfig(m=m, k=1), m3, plan)
                full = slice_grid(spec_set, cfg, 0, len(dom))
                for a, b in cuts:
                    got = slice_grid(spec_set, cfg, a, b)
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


    @pytest.mark.parametrize("order, m", [(3, 64), (4, 32), (5, 24)])
    def test_cut_of_a_cut_is_the_domains_rows(self, order, m):
        # a cut table may start mid-run and lays its runs out from 0, so cutting it
        # again reads its own first indices and offsets, never the whole domain's
        rng = np.random.default_rng(order)
        table, dom = domain_runs(order, m), principal_domain(order, m)
        for _ in range(300):
            a, b = sorted(rng.integers(0, len(dom) + 1, 2).tolist())
            c, d = sorted(rng.integers(0, b - a + 1, 2).tolist())
            twice = table.cut(a, b).cut(c, d)
            assert twice.size == d - c, (a, b, c, d)
            got = spectra_module._expand(twice)
            assert np.array_equal(got, dom[a + c : a + d]), (order, m, a, b, c, d)
        if order == 3:  # the second cut starts inside the first's mid-run first run
            got = spectra_module._expand(table.cut(5, 200).cut(0, 3))
            assert got.tolist() == [[2, 2], [3, 0], [3, 1]]


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
            assert slice_grid(spec_set, cfg3(32, 3, plan), 7, 7).shape == (0,)

    @pytest.mark.parametrize("plan", list(SmoothingPlan))
    def test_slice_refuses_spectra_of_another_config(self, plan):
        # M=32 spectra under an M=64 config whose window fails m3 < M/2 for them
        spec_set = SegmentSpectrumSet(np.ones((1, 32), dtype=np.complex128))
        cfg = EstimationConfig(3, SegmentConfig(m=64), 21, plan)
        runs = domain_runs(3, 32)
        for start, stop in ((0, runs.size), (4, 4)):
            values = np.full(stop - start, np.nan, complex)
            with pytest.raises(ParameterError, match=r"\(1x64\) does not match spectra \(1x32\)"):
                estimate_slice(spec_set, cfg, runs.cut(start, stop), values)
            assert np.isnan(values).all(), (plan.name, start)

    @pytest.mark.parametrize("plan", list(SmoothingPlan))
    def test_slice_refuses_a_run_table_of_another_order(self, plan):
        spec_set = SegmentSpectrumSet(np.ones((1, 32), dtype=np.complex128))
        for table, cfg in ((domain_runs(4, 32), cfg3(32, 3, plan)),
                           (domain_runs(3, 32), cfg4(32, 3, plan))):
            for start, stop in ((0, table.size), (4, 4)):
                values = np.full(stop - start, np.nan, complex)
                with pytest.raises(ParameterError, match=f"lead columns at order {cfg.order}"):
                    estimate_slice(spec_set, cfg, table.cut(start, stop), values)
                assert np.isnan(values).all(), (plan.name, cfg.order, start)

    def test_config_and_spectra_mismatch_rejected(self):
        series = generate_qpc(0.1, 0.15, 64)
        spec_set = dft_segments(segment_and_demean(series, SegmentConfig(32, 2)))
        for cfg in (cfg3(32, 3), cfg3(64, 3, k=2)):
            with pytest.raises(ParameterError, match=r"does not match spectra \(2x32\)"):
                estimate_from_spectra(spec_set, cfg)

    def test_one_run_table_per_estimate(self, monkeypatch):
        # the grid is sized from the run table the estimate then walks
        calls, real = [], spectra_module.domain_runs
        monkeypatch.setattr(spectra_module, "domain_runs",
                            lambda *args: calls.append(args) or real(*args))
        series = generate_qpc(0.1, 0.15, 32, 0.5, seed=1)
        for order, plan in itertools.product((3, 4), (SmoothingPlan.NAIVE, SmoothingPlan.FAST)):
            calls.clear()
            cfg = EstimationConfig(order, SegmentConfig(m=32), 3, plan)
            grid = parallel_estimate(series, cfg, WorkerConfig(1))
            assert len(calls) == 1, (order, plan.name)
            assert grid.values.size == len(principal_domain(order, 32))

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
        # once, so a window of one moves no bit, whatever m and k; seeds 22
        # and 57 give values of -0.0 (order 3, m=60, k=1 without the
        # conjugate, and order 4, m=32, k=1), which every plan returns as +0.0
        for seed in (10 * order + k, 22, 57):
            series = generate_qpc(0.11, 0.23, k * m, noise_sigma=0.5, seed=seed)
            cfg = EstimationConfig(order, SegmentConfig(m=m, k=k), 1, SmoothingPlan.NAIVE,
                                   conjugate_last=conj)
            grids = [estimate_spectrum(series, dataclasses.replace(cfg, plan=plan)).values.tobytes()
                     for plan in SmoothingPlan]
            assert grids == grids[:1] * len(grids), seed

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
        raw = plain_block(spec_set.spectra, (0, 0), (64, 64), True)
        full = smooth(np.pad(raw, (2, 2), mode="wrap"), 5, SmoothingPlan.WS)  # centred windows
        assert max_rel_dev(full, full.T) < 1e-9

    def test_smooth_then_average_equals_average_then_smooth(self):
        # every plan sums the segments' raw products, then smooths once; by
        # linearity that is the mean of the segments' one-segment estimates
        series = generate_qpc(0.05, 0.12, 512, 0.6, seed=9)
        for plan in (SmoothingPlan.WS, SmoothingPlan.EFFICIENT):
            whole = estimate_spectrum(series, cfg3(128, 7, plan, k=4))
            parts = [estimate_spectrum(TimeSeries(seg), cfg3(128, 7, plan)).values
                     for seg in series.samples.reshape(4, 128)]
            assert max_rel_dev(whole.values, np.mean(parts, axis=0)) < 1e-9, plan.name

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
    """Whole-domain ``estimate_slice``, its values allocated in the traced call,
    with its modelled peak (after one untraced warm-up pass) and its traced peak."""
    series = generate_qpc(0.1, 0.15, k * m, 0.5, seed=3)
    spec_set = dft_segments(segment_and_demean(series, SegmentConfig(m=m, k=k)))
    cfg = EstimationConfig(order, SegmentConfig(m=m, k=k), w, plan)
    npoints = len(principal_domain(order, m))
    slice_grid(spec_set, cfg, 0, npoints)
    WORKSPACE.reset()
    tracemalloc.start()
    try:
        slice_grid(spec_set, cfg, 0, npoints)
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
        slice_grid(spec_set, cfg, 0, len(principal_domain(order, self.M)))
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

    @pytest.mark.parametrize("order, m", [(3, 64), (4, 32), (5, 24)])
    def test_derived_indices_are_the_principal_domain(self, order, m):
        # serial, and two workers in both partition modes: the grids store values only
        series = generate_qpc(0.1, 0.15, m, 0.3, seed=19)
        cfg = EstimationConfig(order, SegmentConfig(m=m), 3, SmoothingPlan.EFFICIENT)
        dom = principal_domain(order, m)
        assert dom.dtype == np.int32 and dom.shape == (len(dom), order - 1)
        grids = [estimate_spectrum(series, cfg)] + [
            parallel_estimate(series, cfg, WorkerConfig(2, partition))
            for partition in ("row_blocks", "point_blocks")]
        for grid in grids:
            got = grid.indices
            assert got.dtype == dom.dtype and got.shape == dom.shape and got.flags.c_contiguous
            assert got.tobytes() == dom.tobytes()
            assert grid.values.shape == (len(dom),)

    def test_given_indices_are_kept(self, tmp_path):
        # a partial grid's indices, by keyword and by position, round-trip as given
        grid = estimate_spectrum(generate_qpc(0.1, 0.15, 64, 0.3, seed=20), cfg3(64, 3))
        part = slice(9, 200)
        indices, values = grid.indices[part], grid.values[part]
        for head in (SpectrumGrid(3, 64, 3, SmoothingPlan.EFFICIENT, indices, values),
                     SpectrumGrid(order=3, m=64, m3=3, plan=SmoothingPlan.EFFICIENT,
                                  indices=indices, values=values)):
            assert head.indices is indices and head.values is values
            t = int(np.argmax(np.abs(values)))
            assert head.peak_point() == (tuple(indices[t].tolist()), complex(values[t]))
            assert_same_bytes_as_reference(head, tmp_path)

    def test_given_indices_must_match_the_values(self):
        # the CSV writes a row per index tuple and the peak reads one per value
        values = np.ones(3, complex)
        for shape in ((2, 2), (4, 2), (3, 3), (6,)):
            with pytest.raises(ParameterError, match=re.escape(f"indices of shape {shape} ")):
                SpectrumGrid(3, 64, 3, SmoothingPlan.EFFICIENT, np.zeros(shape, np.int32), values)

    @pytest.mark.parametrize("order, m", [(3, 33), (4, 20), (5, 16)])
    def test_peak_point_is_the_brute_force_argmax_tuple(self, order, m):
        # the ordered simplex enumerated by loops, and a peak at every position
        points = [k for k in itertools.product(range(m), repeat=order - 1)
                  if list(k) == sorted(k, reverse=True) and 2 * sum(k) < m]
        for t, k in enumerate(points):
            values = np.zeros(len(points), complex)
            values[t] = 1j
            got = SpectrumGrid(order, m, 3, SmoothingPlan.EFFICIENT, values=values).peak_point()
            assert got == (k, 1j), (order, m, t)
        series = generate_qpc(0.1, 0.15, m, 0.3, seed=21)
        grid = estimate_spectrum(series, EstimationConfig(order, SegmentConfig(m=m), 3))
        t = max(range(len(points)), key=lambda i: abs(grid.values[i]))
        assert grid.peak_point() == (points[t], complex(grid.values[t]))

    def test_lean_estimates_expand_no_index_tuples(self, monkeypatch):
        series = generate_qpc(0.1, 0.15, 64, 0.3, seed=22)
        spec_set = dft_segments(segment_and_demean(series, SegmentConfig(m=64)))
        lean = (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING)
        cfgs = [EstimationConfig(order, SegmentConfig(m=64), 3, plan)
                for order, plan in itertools.product((3, 4), lean)]
        refs = [estimate_spectrum(series, cfg).values for cfg in cfgs]

        def refuse(*args, **kwargs):
            raise AssertionError("a lean path expanded index tuples")

        monkeypatch.setattr(spectra_module, "_expand", refuse)
        for cfg, ref in zip(cfgs, refs):
            size = len(ref)
            assert slice_grid(spec_set, cfg, 0, size).tobytes() == ref.tobytes(), cfg
            assert slice_grid(spec_set, cfg, 5, size - 3).tobytes() == ref[5:-3].tobytes(), cfg
            for workers in (WorkerConfig(1), WorkerConfig(2, "point_blocks")):
                got = parallel_estimate(series, cfg, workers).values
                assert got.tobytes() == ref.tobytes(), (cfg, workers)


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
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().strip() == "k1,k2,k3,re,im"

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
