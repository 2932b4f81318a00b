import itertools
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest

from conftest import assert_spectrum_close, assert_window_equal, slice_grid
from hospectra import (
    EstimationConfig,
    ParameterError,
    SegmentConfig,
    SmoothingPlan,
    WindowSpec,
    estimate_spectrum,
    generate_qpc,
    principal_domain,
    window_sums_2d,
)
from hospectra import tiled
from hospectra.dft import dft_segments
from hospectra.meter import WORKSPACE
from hospectra.series import segment_and_demean
from hospectra.spectra import _LeanFetch, domain_runs
from hospectra.tiled import S, Runs, box_sums, running_sums, smoothed_cells_2d, smoothed_cells_3d
from hospectra.window_sums import smooth

ALL_PLANS = list(SmoothingPlan)


def direct_sums(a, w, periodic=False):
    """Brute-force double-sum oracle."""
    rows, cols = a.shape
    if periodic:
        out = np.zeros((rows, cols), dtype=a.dtype)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = sum(
                    a[(i + u) % rows, (j + v) % cols] for u in range(w) for v in range(w)
                )
        return out
    out = np.zeros((rows - w + 1, cols - w + 1), dtype=a.dtype)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = a[i : i + w, j : j + w].sum()
    return out


KERNELS = pytest.mark.parametrize("kernel", [box_sums, running_sums], ids=lambda k: k.__name__)


def every_axis(kernel, a, w):
    """``kernel`` along each axis of ``a`` in turn, axis 0 first."""
    for axis in range(a.ndim):
        a = kernel(a, w, axis)
    return a


def wrapped_box(a, r0, c0, rows, cols):
    """The engine's fetch over the periodic matrix ``a``: its box of ``rows x cols`` at
    ``(r0, c0)``, indices wrapped."""
    return a[np.ix_(np.arange(r0, r0 + rows) % a.shape[0], np.arange(c0, c0 + cols) % a.shape[1])]


class TestBoxSums:
    @KERNELS
    def test_hand_oracle(self, kernel):
        assert np.array_equal(kernel(np.array([1.0, 2, 3, 4, 5]), 3), [6, 9, 12])

    @KERNELS
    def test_identity_window(self, kernel):
        x = np.array([[3.0, -1.0], [4.0, 0.5]])
        out = kernel(x, 1)
        assert out is not x and np.array_equal(out, x)

    @KERNELS
    def test_zeros(self, kernel):
        assert np.array_equal(kernel(np.zeros(4), 2), np.zeros(3))

    @KERNELS
    def test_window_spanning_whole_axis_gives_total(self, kernel):
        x = np.array([1.0, 1, 1, 1])
        assert np.array_equal(kernel(x, 4), [4.0])

    @KERNELS
    def test_singleton(self, kernel):
        assert np.array_equal(kernel(np.array([5.0]), 1), [5.0])

    @KERNELS
    def test_matches_direct_summation(self, kernel):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        for w in (1, 2, 7, 50, 200):
            expect = np.array([x[i : i + w].sum() for i in range(200 - w + 1)])
            assert_window_equal(kernel(x, w), expect)

    def test_matches_sequential_fold(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        acc, prefix = 0.0, [0.0]
        for v in x:
            acc += v
            prefix.append(acc)
        w = 9
        expect = np.array([prefix[i + w] - prefix[i] for i in range(len(x) - w + 1)])
        assert_window_equal(box_sums(x, w), expect, rel=1e-12)

    @KERNELS
    def test_matches_direct_oracle_2d_and_3d(self, kernel):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 13))
        for w in (2, 3, 8):
            assert_window_equal(every_axis(kernel, a, w), direct_sums(a, w), context=f"2-D w={w}")
        cube = rng.standard_normal((6, 7, 5)) + 1j * rng.standard_normal((6, 7, 5))
        w = 3
        expect = np.empty((4, 5, 3), dtype=cube.dtype)
        for i, j, k in np.ndindex(expect.shape):
            expect[i, j, k] = cube[i : i + w, j : j + w, k : k + w].sum()
        assert_window_equal(every_axis(kernel, cube, w), expect, context="3-D")

    @KERNELS
    def test_cell_depends_only_on_its_own_lines(self, kernel):
        # the property that keeps tiles, bands and plane blocks bit-identical
        # to a whole-array sweep: extent across an axis never changes a cell
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 12))
        w = 3
        full = every_axis(kernel, a, w)
        part = every_axis(kernel, a[:7, :10], w)
        assert np.array_equal(part, full[:5, :8])
        rows = kernel(a, w, 1)
        assert np.array_equal(kernel(a[4:6], w, 1), rows[4:6])

    @KERNELS
    def test_registers_and_releases_its_temporaries(self, kernel):
        # box_sums holds its cumulative sum and its output, running_sums its output
        a = np.ones((32, 32))
        WORKSPACE.reset()
        out = kernel(a, 4)
        assert WORKSPACE.peak == (a.nbytes if kernel is box_sums else 0) + out.nbytes
        assert WORKSPACE.current == 0


class TestWindowSums2d:
    def test_two_by_two_valid(self):
        out = window_sums_2d(np.array([[1.0, 2.0], [3.0, 4.0]]), WindowSpec(2, "valid"), SmoothingPlan.WS)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 10.0) < 1e-12

    def test_constant_input_counts_cells(self):
        out = window_sums_2d(np.ones((3, 3)), WindowSpec(2, "valid"), SmoothingPlan.PREFIX)
        assert np.allclose(out, 4.0)
        assert out.shape == (2, 2)

    def test_identity_window_both_boundaries(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 7))
        # a signed zero, a NaN and an infinity keep their bytes too
        c = (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))
        c[0, :3] = -0.0, complex(np.nan, -0.0), complex(-np.inf, 1.0)
        for boundary in ("valid", "periodic"):
            for plan in ALL_PLANS:
                out = window_sums_2d(a, WindowSpec(1, boundary), plan)
                assert np.array_equal(out, a), (boundary, plan)
                out = window_sums_2d(c, WindowSpec(1, boundary), plan)
                assert out.dtype == c.dtype and out.tobytes() == c.tobytes(), (boundary, plan)
                assert not np.shares_memory(out, c), (boundary, plan)

    def test_two_by_two_periodic_wraps(self):
        out = window_sums_2d(
            np.array([[1.0, 2.0], [3.0, 4.0]]), WindowSpec(2, "periodic"), SmoothingPlan.FAST
        )
        assert np.allclose(out, 10.0)
        assert out.shape == (2, 2)

    def test_window_exceeds_valid_dims(self):
        with pytest.raises(ParameterError):
            window_sums_2d(np.ones((4, 4)), WindowSpec(5, "valid"), SmoothingPlan.NAIVE)

    def test_bad_spec_and_input_rejected(self):
        with pytest.raises(ParameterError, match="window side must be >= 1"):
            WindowSpec(0)
        with pytest.raises(ParameterError, match="boundary must be"):
            WindowSpec(3, "wrap")
        with pytest.raises(ParameterError, match="expected a 2-D matrix"):
            window_sums_2d(np.ones(4), WindowSpec(1), SmoothingPlan.EFFICIENT)
        with pytest.raises(ParameterError, match="plan must be a SmoothingPlan"):
            window_sums_2d(np.ones((6, 6)), WindowSpec(3), "EFFICIENT")

    @pytest.mark.parametrize("w", [1, 3])
    def test_smooth_refuses_a_plan_it_cannot_run(self, w):
        # the materialized plans only: any other plan ran WS's kernel
        for plan in (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING, "WS"):
            with pytest.raises(ParameterError, match="smooth runs NAIVE, WS or PREFIX"):
                smooth(np.ones((6, 6)), w, plan)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_matrix_rejected_for_either_boundary(self, shape):
        # a periodic window has no cell to wrap onto: a ParameterError, not np.pad's ValueError
        for plan, boundary in itertools.product(ALL_PLANS, ("valid", "periodic")):
            with pytest.raises(ParameterError, match="exceeds matrix dimensions"):
                window_sums_2d(np.ones(shape), WindowSpec(3, boundary), plan)

    def test_integer_input_sums_as_float64(self):
        a = np.arange(20).reshape(4, 5)
        for plan in ALL_PLANS:
            out = window_sums_2d(a, WindowSpec(2, "periodic"), plan)
            assert out.dtype == np.float64, plan
            assert_window_equal(out, direct_sums(a.astype(float), 2, periodic=True))

    def test_periodic_window_larger_than_matrix(self):
        # wrapping more than once counts cells with multiplicity
        a = np.arange(9.0).reshape(3, 3)
        expect = direct_sums(a, 5, periodic=True)
        for plan in ALL_PLANS:
            assert_window_equal(window_sums_2d(a, WindowSpec(5, "periodic"), plan), expect)

    def test_plan_equivalence_random_rectangular(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            w = int(rng.choice([1, 2, 3, 5, 8]))
            rows = int(rng.integers(w, 40))
            cols = int(rng.integers(w, 40))
            a = rng.standard_normal((rows, cols))
            for boundary in ("valid", "periodic"):
                spec = WindowSpec(w, boundary)
                ref = window_sums_2d(a, spec, SmoothingPlan.NAIVE)
                for plan in ALL_PLANS[1:]:
                    assert_window_equal(
                        window_sums_2d(a, spec, plan), ref,
                        context=f"trial={trial} w={w} {boundary} {plan.name}",
                    )

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((11, 13))
        for w in (2, 4):
            assert_window_equal(
                window_sums_2d(a, WindowSpec(w, "valid"), SmoothingPlan.EFFICIENT),
                direct_sums(a, w),
            )
            assert_window_equal(
                window_sums_2d(a, WindowSpec(w, "periodic"), SmoothingPlan.STREAMING),
                direct_sums(a, w, periodic=True),
            )

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((16, 12))
        b = rng.standard_normal((16, 12))
        alpha, beta = 1.75, -0.5
        spec = WindowSpec(3, "periodic")
        for plan in (SmoothingPlan.WS, SmoothingPlan.FAST):
            lhs = window_sums_2d(alpha * a + beta * b, spec, plan)
            rhs = alpha * window_sums_2d(a, spec, plan) + beta * window_sums_2d(b, spec, plan)
            assert_window_equal(lhs, rhs)

    def test_total_mass_conservation_periodic(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 14))
        for w in (2, 5):
            out = window_sums_2d(a, WindowSpec(w, "periodic"), SmoothingPlan.PREFIX)
            assert abs(out.sum() - w * w * a.sum()) <= 1e-9 * max(abs(a.sum()) * w * w, 1.0)

    def test_complex_input_supported(self):
        # the estimation pipeline smooths complex grids through these engines
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        spec = WindowSpec(3, "periodic")
        ref = window_sums_2d(a, spec, SmoothingPlan.NAIVE)
        for plan in ALL_PLANS[1:]:
            assert_window_equal(window_sums_2d(a, spec, plan), ref)


class TestSmoothPeriodic:
    """``smooth`` is valid-mode only: a periodic array is wrap-padded by
    ``w - 1`` cells per axis first, as the estimator's boxes of the
    periodic grid are."""

    @staticmethod
    def wrapped(a, w):
        return np.pad(a, (0, w - 1), mode="wrap")

    def test_plans_match_direct_periodic_oracle_3d(self):
        # every axis of the padded cube wraps; even windows too
        rng = np.random.default_rng(11)
        shape = (5, 6, 7)
        real = rng.standard_normal(shape)
        for cube in (real, real + 1j * rng.standard_normal(shape)):
            for w in (2, 3, 4):
                expect = np.empty_like(cube)
                for i, j, k in np.ndindex(shape):
                    expect[i, j, k] = sum(
                        cube[(i + u) % 5, (j + v) % 6, (k + t) % 7]
                        for u in range(w) for v in range(w) for t in range(w)
                    )
                for plan in (SmoothingPlan.NAIVE, SmoothingPlan.WS, SmoothingPlan.PREFIX):
                    out = smooth(self.wrapped(cube, w), w, plan)
                    assert out.dtype == cube.dtype
                    assert_window_equal(out, expect, context=f"{plan.name} w={w} {cube.dtype}")

    def test_window_of_one_is_exact_copy(self):
        rng = np.random.default_rng(12)
        for shape in ((4, 5), (3, 4, 5)):
            a = rng.standard_normal(shape)
            for plan in (SmoothingPlan.NAIVE, SmoothingPlan.WS, SmoothingPlan.PREFIX):
                out = smooth(a, 1, plan)
                assert out is not a and np.array_equal(out, a), (shape, plan.name)

    def test_meter_matches_traced_peak(self):
        # the modelled working set is the traced one, within a few percent;
        # the padded input is the caller's, so it is made before tracing
        rng = np.random.default_rng(13)
        for shape, w in (((512, 512), 49), ((64, 64, 64), 17)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            padded = self.wrapped(a, w)
            for plan in (SmoothingPlan.NAIVE, SmoothingPlan.WS, SmoothingPlan.PREFIX):
                WORKSPACE.reset()
                tracemalloc.start()
                try:
                    out = smooth(padded, w, plan)
                    traced = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                del out
                ratio = traced / WORKSPACE.peak
                assert 0.95 <= ratio <= 1.10, (shape, w, plan.name, ratio)
                assert WORKSPACE.current == 0


def span_runs(spans):
    """The run table ``smoothed_runs`` takes for sorted ``(row, col_start, col_stop)``
    spans, at most one per row: each non-empty span is one run, laid out in order."""
    spans = np.array([s for s in spans if s[1] < s[2]], dtype=np.int64).reshape(-1, 3)
    lens = spans[:, 2] - spans[:, 1]
    return Runs(spans[:, :1], spans[:, 1], spans[:, 2], np.cumsum(lens) - lens)


class TestSmoothedCells2d:
    """``smoothed_runs`` with one lead column, over spans of rows as runs."""

    @staticmethod
    def collect(fetch, cols_out, w, plan, spans, dtype=float):
        """Each span cell's value by ``(row, col)``, every cell written exactly once."""
        runs = span_runs(spans)
        lead, first, stops, offsets = runs
        out = HitCounter(runs.size, dtype)
        tiled.smoothed_runs(fetch, cols_out, w, plan.name, runs, out)
        assert np.array_equal(out.hits, np.ones_like(out.hits)), "a cell not written once"
        runs = zip(lead[:, 0].tolist(), first.tolist(), stops.tolist(), offsets.tolist())
        return {(r, c): out.values[o + c - s] for r, s, e, o in runs for c in range(s, e)}

    def test_constant_field(self):
        ones = lambda r0, c0, rows, cols: np.ones((rows, cols))
        seen = self.collect(ones, 3, 2, SmoothingPlan.EFFICIENT, [(r, 0, 3) for r in range(3)])
        assert set(seen) == {(r, c) for r in range(3) for c in range(3)}
        assert all(abs(v - 4.0) < 1e-12 for v in seen.values())

    def test_each_plan_matches_materialized(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 8))
        fetch = partial(wrapped_box, a)
        for boundary in ("valid", "periodic"):
            spec = WindowSpec(3, boundary)
            expect = window_sums_2d(a, spec, SmoothingPlan.NAIVE)
            rows_out, cols_out = expect.shape
            spans = [(r, 0, cols_out) for r in range(rows_out)]
            for plan in (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING):
                seen = self.collect(fetch, cols_out, 3, plan, spans)
                assert len(seen) == expect.size
                got = np.empty_like(expect)
                for (r, c), v in seen.items():
                    got[r, c] = v
                assert_window_equal(got, expect, context=f"{plan.name} {boundary}")

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_partial_spans_bit_identical_to_full_sweep(self, w):
        rng = np.random.default_rng(13)
        n = 10
        a = rng.standard_normal((n, n))
        fetch = partial(wrapped_box, a)
        full_spans = [(r, 0, n) for r in range(n)]
        part_spans = [(2, 4, 9), (3, 0, 10), (4, 0, 1), (7, 5, 6)]
        for plan in (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING):
            full = self.collect(fetch, n, w, plan, full_spans)
            part = self.collect(fetch, n, w, plan, part_spans)
            expect = {(r, c) for r, s, e in part_spans for c in range(s, e)}
            assert set(part) == expect, plan.name
            assert all(part[k] == full[k] for k in part), plan.name

    def test_window_too_small_rejected(self):
        # at the call, before any fetch, for the engine and both adapters
        with pytest.raises(ParameterError, match="window must be >= 1, got 0"):
            tiled.smoothed_runs(lambda r0, c0, rows, cols: 0.0, 4, 0, "EFFICIENT",
                                span_runs([(0, 0, 4)]), np.empty(4))
        with pytest.raises(ParameterError, match="window must be >= 1, got 0"):
            smoothed_cells_2d(lambda r, c: 0.0, 4, 4, 0, "EFFICIENT", [(0, 0, 4)])
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ParameterError, match="window must be >= 1, got 0"):
            smoothed_cells_3d(lambda r, c, k: 0.0, 8, 0, "EFFICIENT", one, one, one, one + 1, one,
                              np.empty(1))

    @pytest.mark.parametrize("plan", ["WS", "NAIVE", "efficient", None])
    def test_plan_outside_the_lean_three_rejected(self, plan):
        # at the call, before any fetch, as a ParameterError, not a bare KeyError
        def fetch(*box):
            raise AssertionError(f"fetched {box}")

        with pytest.raises(ParameterError, match="lean plan must be one of FAST, EFFICIENT, "):
            tiled.smoothed_runs(fetch, 4, 3, plan, span_runs([(0, 0, 4)]), np.empty(4))

    def test_source_read_counts_respect_plan(self):
        rng = np.random.default_rng(10)
        n, w = 16, 4
        a = rng.standard_normal((n, n))
        budgets = {
            SmoothingPlan.FAST: 3 * n * n,          # O(1) amortized per cell
            SmoothingPlan.EFFICIENT: 6 * n * n,     # O(1) amortized per cell
            SmoothingPlan.STREAMING: 3 * w * n * n, # O(w) per cell
        }
        runs = span_runs([(r, 0, n) for r in range(n)])
        for plan, budget in budgets.items():
            cells = [0]

            def fetch(r0, c0, rows, cols):
                cells[0] += rows * cols
                return wrapped_box(a, r0, c0, rows, cols)

            tiled.smoothed_runs(fetch, n, w, plan.name, runs, np.empty(n * n))
            assert cells[0] <= budget, f"{plan.name}: {cells[0]} reads > {budget}"


    @pytest.mark.parametrize("w", [1, 2, 3, 5, 8, 9, 16, 17, 24, 47, 48, 49])
    def test_efficient_unit_bit_identical_to_box_sums_over_its_patch(self, w):
        # an EFFICIENT unit is a square block of B = max(S, w) output cells
        # with the bits of box_sums over its whole (B+w-1)^2 source patch.
        # 100 output columns leave a partial unit at the right edge, and 70
        # rows end the last band short of a unit's height.
        rng = np.random.default_rng(w)
        rows_out, cols_out = 70, 100
        a = rng.standard_normal((cols_out, cols_out)) + 1j * rng.standard_normal((cols_out, cols_out))
        fetch = partial(wrapped_box, a)
        b = max(S, w)
        units = -(-rows_out // b), -(-cols_out // b)
        expect = np.empty((units[0] * b, units[1] * b), dtype=a.dtype)
        for i, j in np.ndindex(units):
            r0, c0 = i * b, j * b
            patch = fetch(r0, c0, b + w - 1, b + w - 1)
            expect[r0 : r0 + b, c0 : c0 + b] = every_axis(box_sums, patch, w)
        triangle = [(r, r, cols_out) for r in range(rows_out)]
        full = [(r, 0, cols_out) for r in range(rows_out)]
        for spans in (triangle, full):
            got = self.collect(fetch, cols_out, w, SmoothingPlan.EFFICIENT, spans, a.dtype)
            assert set(got) == {(r, c) for r, s, e in spans for c in range(s, e)}
            for (r, c), v in got.items():
                assert np.array_equal(v, expect[r, c]), (w, r, c)

    @pytest.mark.parametrize("w", [5, 9, 24, 49, 181])
    def test_efficient_meter_matches_traced_peak(self, w):
        # the engine's modelled working set is the traced one: square blocks
        # of max(48, w) output cells (measured 1.01-1.11). At n=400 a full
        # unit follows a full unit at every window, so the peak is reached.
        rng = np.random.default_rng(w)
        n = 400
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pad = 2 * max(w, 48)
        ext = np.pad(a, ((0, pad), (0, pad)), mode="wrap")

        def fetch(r0, c0, rows, cols):  # a slice: no index temporaries in the trace
            return ext[r0 : r0 + rows, c0 : c0 + cols].copy()

        # the output is the caller's, so it is made before tracing
        args = fetch, n, w, "EFFICIENT", span_runs([(r, 0, n) for r in range(n)])
        out = np.empty(n * n, dtype=a.dtype)
        # one untraced pass first, so one-time allocations of a fresh
        # process's first call do not count toward the traced peak
        tiled.smoothed_runs(*args, out)
        WORKSPACE.reset()
        tracemalloc.start()
        try:
            tiled.smoothed_runs(*args, out)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = traced / WORKSPACE.peak
        assert 0.8 <= ratio <= 1.25, (w, ratio)
        assert WORKSPACE.current == 0

    @pytest.mark.parametrize("w", [2, 9, 47, 48, 49, 50, 100])
    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT", "STREAMING"])
    def test_carried_sweep_matches_units_alone(self, plan, w):
        # each unit after a band's first takes the row sums of its w-1 leading
        # source columns from the unit to its left; the sweep must equal every
        # unit computed alone by the public kernels over its own fetched source,
        # bit for bit. EFFICIENT's B > w at w <= 47 and B = w above; m is no
        # multiple of B, so its band has 3 full column units and a narrower
        # fourth, and the last band of B or w rows is shorter too. A FAST band
        # is one unit, a STREAMING band one row of 1 x S units; at w=50 its
        # first unit's 2S+1 source columns, fetched S at a time, leave one
        # alone. FAST sums down by running sums, the others by box sums, and
        # every unit across by box sums.
        b = max(S, w)
        m = 3 * b + 7
        uh, uw = {"FAST": (w, m), "EFFICIENT": (b, b), "STREAMING": (1, S)}[plan]
        n_rows = 2 * uh + 5
        rng = np.random.default_rng(w)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        fetch = partial(wrapped_box, a)
        def alone(r0, c0, cols):
            patch = fetch(r0, c0, uh + w - 1, cols + w - 1)
            down = running_sums if plan == "FAST" else box_sums
            return box_sums(down(patch, w), w, 1)

        expect = np.empty((n_rows, m), dtype=a.dtype)
        for r0, c0 in itertools.product(range(0, n_rows, uh), range(0, m, uw)):
            expect[r0 : r0 + uh, c0 : c0 + uw] = alone(r0, c0, min(uw, m - c0))[: n_rows - r0]
        # runs of ragged extent, so bands start and end on different units
        lead = np.arange(n_rows)[:, None]
        first = lead[:, 0] % 7 * (b // 4)
        stops = m - lead[:, 0] % 5 * (b // 3)
        offsets = lead[:, 0] * m + first
        whole = np.empty(n_rows * m, dtype=a.dtype)
        runs = Runs(lead, first, stops, offsets)
        tiled.smoothed_runs(fetch, m, w, plan, runs, whole)
        split = np.empty_like(whole)
        cut = uh + uh // 2  # mid-band where a band has rows to cut, as a P=2 cut may fall
        for part in (slice(None, cut), slice(cut, None)):
            tiled.smoothed_runs(fetch, m, w, plan, Runs(*(a[part] for a in runs)), split)
        for r in range(n_rows):
            cells = slice(r * m + first[r], r * m + stops[r])
            assert np.array_equal(whole[cells], expect[r, first[r] : stops[r]]), (w, r)
            assert np.array_equal(split[cells], whole[cells]), (w, r)

    def test_streaming_lone_tail_column_bit_identical(self):
        # at m = 2S + 1 a band's last 1 x S unit is one column wide, so after
        # the carry it needs one new source column; a sweep that starts in that
        # unit fetches the column among w others. The row pass's cumsum adds a
        # lone column's w rows in sequence, as a wider piece's, so both agree.
        m, w, rows = 2 * S + 1, 50, 8
        a = np.random.default_rng(1).standard_normal((m, m, 2)).view(complex)[..., 0]
        fetch = partial(wrapped_box, a)
        lead = np.arange(rows)[:, None]
        whole, tail = np.empty(rows * m, dtype=complex), np.empty(rows, dtype=complex)
        tiled.smoothed_runs(fetch, m, w, "STREAMING", Runs(lead, np.zeros(rows, dtype=int),
                                                           np.full(rows, m), lead[:, 0] * m), whole)
        tiled.smoothed_runs(fetch, m, w, "STREAMING", Runs(lead, np.full(rows, m - 1),
                                                           np.full(rows, m), lead[:, 0]), tail)
        assert np.array_equal(tail, whole[m - 1 :: m])

    def test_streaming_fetches_each_source_column_once_per_band(self):
        # a band's first 1 x S unit fetches its S + w - 1 source columns and each
        # later unit only its S new ones, the other w - 1 column sums being carried
        n, w = 512, 9
        a = np.random.default_rng(w).standard_normal((n, n))
        columns = Counter()  # source columns fetched per band, i.e. per output row

        def fetch(r0, c0, rows, cols):
            columns[r0] += cols
            return wrapped_box(a, r0, c0, rows, cols)

        runs = domain_runs(3, n)
        lead, first, stops, _ = runs
        tiled.smoothed_runs(fetch, n, w, "STREAMING", runs, np.empty(runs.size))
        assert set(columns) == set(lead[:, 0].tolist())
        for row, s, e in zip(lead[:, 0].tolist(), first.tolist(), stops.tolist()):
            lo = s // S * S
            unit_cols = min(n, lo + -(-(e - lo) // S) * S) - lo  # the band's units' columns
            assert columns[row] == unit_cols + w - 1, (row, columns[row], unit_cols)
        assert max(columns.values()) == 152

    @pytest.mark.parametrize("w", [9, 77])
    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT"])
    def test_previous_unit_alive_during_next_fetch(self, plan, w):
        # freeing each unit before the next unit's fetch lets glibc trim the heap
        # top and fault it back in for every unit: minor page faults per call
        # rose 1,668 -> 8,167 for FAST at m=1024, w=77 (24 -> 39 ms), and no
        # timing test sees it
        n = 320
        a = np.random.default_rng(w).standard_normal((n, n))
        landed = []  # a weak reference to the unit each write came from
        alive = []  # per fetch once a unit has landed: is the last one alive?

        class Out:
            def __setitem__(self, where, vals):
                landed.append(weakref.ref(vals if vals.base is None else vals.base))

        def fetch(r0, c0, rows, cols):
            if landed:
                alive.append(landed[-1]() is not None)
            return wrapped_box(a, r0, c0, rows, cols)

        tiled.smoothed_runs(fetch, n, w, plan, domain_runs(3, n), Out())
        assert len(alive) >= 2 and all(alive), alive

    @pytest.mark.parametrize("w", [9, 33])
    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT", "STREAMING"])
    def test_walker_lifetimes_in_its_frame(self, monkeypatch, plan, w):
        # the walker's lifetime rule, read from `_bands`' own locals, which no traced
        # peak resolves: a full unit's write index is unbound before the next fetch, and
        # each unit is bound until the next unit's column pass ends, then freed
        n = 320
        a = np.random.default_rng(w).standard_normal((n, n))
        units, column_sums = [], tiled._column_sums  # a weak reference to each unit
        counts = Counter()

        def walker_locals():  # in CPython 3.11 a snapshot taken at the call
            frame = sys._getframe(1)
            while frame.f_code is not tiled._bands.__code__:
                frame = frame.f_back
            return frame.f_locals

        class Out:
            def __setitem__(self, where, vals):
                if isinstance(where, np.ndarray):  # the full unit's indexed write
                    counts["indexed"] += 1
                    assert "at" in walker_locals()  # so the probe sees `at` when bound

        def fetch(r0, c0, rows, cols):
            counts["fetches"] += 1
            assert "at" not in walker_locals()
            return wrapped_box(a, r0, c0, rows, cols)

        def summed(part, w):
            bound = walker_locals()  # refreshed before the weak references are read
            if units:
                assert bound.get("unit") is units[-1]() is not None
            if len(units) > 1:
                assert units[-2]() is None
            del bound
            unit = column_sums(part, w)
            units.append(weakref.ref(unit))
            return unit

        monkeypatch.setattr(tiled, "_column_sums", summed)
        tiled.smoothed_runs(fetch, n, w, plan, domain_runs(3, n), Out())
        assert len(units) >= 3 and counts["fetches"] >= len(units), (len(units), counts)
        assert (counts["indexed"] > 0) == (plan != "FAST"), counts


def direct_products(spectra, w):
    """Segment-averaged raw products from the direct-method formula
    ``F(k1) F(k2) ... conj(F(k1 + k2 + ...)) / M`` at broadcastable index ranges and
    one index per further axis, the fetch the adapters' callers pass, indices shifted
    by the centred window offset ``w // 2`` and wrapped mod M."""
    k, m = spectra.shape
    h = w // 2

    def fetch(rows, cols, *rest):
        idx = [(np.asarray(rows) - h) % m, (np.asarray(cols) - h) % m]
        idx += [(int(d) - h) % m for d in rest]
        total = sum(idx) % m
        acc = 0
        for f in spectra:
            term = np.conj(f[total])
            for i in idx:
                term = term * f[i]
            acc = acc + term
        return acc / (m * k)

    return fetch


def direct_fetch(spectra, w):
    """:func:`direct_products` by the engine's contract: the box of ``rows x cols`` at
    ``(r0, c0)``, each plane summed over its index's ``w`` values from its own on."""
    products = direct_products(spectra, w)

    def fetch(r0, c0, rows, cols, *planes):
        box = np.arange(r0, r0 + rows)[:, None], np.arange(c0, c0 + cols)[None, :]
        return sum(products(*box, *(k + t for k, t in zip(planes, ts)))
                   for ts in itertools.product(range(w), repeat=len(planes)))

    return fetch


class HitCounter:
    """An ``out`` that records how often each cell is written."""

    def __init__(self, n, dtype=complex):
        self.values = np.full(n, np.nan, dtype=dtype)
        self.hits = np.zeros(n, dtype=int)
        self.kinds = Counter()  # writes per index type: slice or ndarray

    def __setitem__(self, where, vals):
        self.values[where] = vals
        self.hits[where] += 1
        self.kinds[type(where).__name__] += 1


class TestEngineEntryPoints:
    """The public 2-D and 3-D engines, driven over the principal domain the
    way the benchmark drives them: one span (or run) per leading index."""

    # m=64 (order 3) and m=32 (order 4): the domain ends at k1 = 31 and 15,
    # inside EFFICIENT units of 48 (order 4: blocks of 48 cut to m) and
    # w-row bands, so units straddle the domain edge
    CASES = [(3, 64, 3), (3, 64, 7), (4, 32, 3), (4, 32, 5)]

    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT", "STREAMING"])
    @pytest.mark.parametrize("order,m,w", CASES)
    def test_covers_domain_once_and_matches_estimate(self, order, m, w, plan):
        series = generate_qpc(0.1, 0.15, 2 * m, noise_sigma=0.4, seed=order * w)
        seg = SegmentConfig(m=m, k=2)
        spectra = dft_segments(segment_and_demean(series, seg)).spectra
        dom = principal_domain(order, m)
        lead = dom[:, :-1]
        starts = np.flatnonzero(np.r_[True, (lead[1:] != lead[:-1]).any(axis=1)])
        ends = np.r_[starts[1:], len(dom)]
        first, stops = dom[starts, -1], dom[ends - 1, -1] + 1
        fetch = direct_products(spectra, w)
        out = HitCounter(len(dom))
        if order == 3:
            spans = list(zip(dom[starts, 0].tolist(), first.tolist(), stops.tolist()))
            base = {row: s - c for (row, c, _), s in zip(spans, starts.tolist())}
            for row, c0, vals in smoothed_cells_2d(fetch, m, m, w, plan, spans):
                out[base[row] + c0 : base[row] + c0 + vals.size] = vals
        else:
            k1s, k2s = dom[starts, 0].astype(np.int64), dom[starts, 1].astype(np.int64)
            smoothed_cells_3d(fetch, m, w, plan, k1s, k2s, first.astype(np.int64),
                              stops.astype(np.int64), starts.astype(np.int64), out)
        assert np.array_equal(out.hits, np.ones(len(dom), dtype=int))
        expect = estimate_spectrum(series, EstimationConfig(order, seg, w, SmoothingPlan.NAIVE))
        assert_spectrum_close(out.values / float(w) ** (order - 1), expect.values,
                              context=f"order {order} w={w} {plan}")


class TestFetchContract:
    """``smoothed_runs`` asks its fetch for a box by origin and size: every call is
    ``(r0, c0, rows, cols, *planes)`` of integers, one plane per index past the second."""

    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT", "STREAMING"])
    @pytest.mark.parametrize("order,m,w", [(3, 64, 1), (3, 64, 5), (4, 32, 1), (4, 32, 3)])
    def test_lean_fetch_calls_are_integer_boxes_of_the_direct_values(self, order, m, w, plan):
        series = generate_qpc(0.1, 0.15, 2 * m, noise_sigma=0.4, seed=order * w)
        spectra = dft_segments(segment_and_demean(series, SegmentConfig(m=m, k=2))).spectra
        runs = domain_runs(order, m)

        def sweep(fetch):
            calls, out = [], np.empty(runs.size, dtype=complex)

            def recorded(*call):
                calls.append(call)
                return fetch(*call)

            tiled.smoothed_runs(recorded, m, w, plan, runs, out)
            return calls, out

        with _LeanFetch(spectra, w, True) as lean:
            calls, got = sweep(lean)
        assert calls and all(type(x) is int for call in calls for x in call), calls[:3]
        assert {len(call) for call in calls} == {4 + order - 3}, calls[:3]
        assert all(rows >= 1 and cols >= 1 for _, _, rows, cols, *_ in calls)
        direct_calls, expect = sweep(direct_fetch(spectra, w))
        assert direct_calls == calls  # the calls depend on the runs, w and plan alone
        assert_spectrum_close(got / (len(spectra) * m), expect, context=f"{order} {plan} {w}")


class TestIndexedWrite:
    """With one lead column, ``smoothed_runs`` writes a unit whose band's runs
    all cover its columns by one indexed write and every other unit one row
    slice at a time; both land the bits of each unit summed alone."""

    @staticmethod
    def table(b, m):
        # a slice of a ragged triangle over three bands of five column units:
        # the first run starts mid-row and the last stops short, the second
        # band misses two rows, first = row puts a partial unit on each band's
        # diagonal and the ragged stops leave partial tail units. The first
        # band's second unit is full; its third is partial only because row 7
        # stops one column short, and the third band's fourth only because
        # row 2b+2 starts one column late, so a write one column too wide hits
        # a neighbouring run's cell.
        rows = np.array([r for r in range(2 * b + 5) if r not in (b + 3, b + 4)])
        first = rows.copy()
        first[0] = 5
        first[rows == 2 * b + 2] = 3 * b + 1
        stops = m - rows % 3 * (b // 4)
        stops[rows == 7] = 3 * b - 1
        stops[-1] = 5 * b - 3
        offsets = np.cumsum(stops - first) - (stops - first)
        return rows, first, stops, offsets

    @pytest.mark.parametrize("w", [1, 9, 49])
    def test_bit_identical_to_row_chunks_each_cell_once(self, w):
        b = max(S, w)
        m = 5 * b + 7
        rng = np.random.default_rng(w)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        fetch = partial(wrapped_box, a)
        rows, first, stops, offsets = self.table(b, m)
        total = int((stops - first).sum())
        # every unit alone: box sums down and across its own fetched source patch
        units = np.empty((rows[-1] // b * b + b, m), dtype=a.dtype)
        for r0, c0 in itertools.product(range(0, len(units), b), range(0, m, b)):
            cols = min(b, m - c0)
            patch = fetch(r0, c0, b + w - 1, cols + w - 1)
            units[r0 : r0 + b, c0 : c0 + cols] = every_axis(box_sums, patch, w)
        out = np.full(total, np.nan, dtype=complex)
        runs = Runs(rows[:, None], first, stops, offsets)
        tiled.smoothed_runs(fetch, m, w, "EFFICIENT", runs, out)
        counter = HitCounter(total)
        tiled.smoothed_runs(fetch, m, w, "EFFICIENT", runs, counter)
        assert np.array_equal(counter.hits, np.ones(total, dtype=int)), w
        assert set(counter.kinds) == {"slice", "ndarray"}, counter.kinds  # both write paths
        expect = np.concatenate([units[r, s:e] for r, s, e in zip(rows, first, stops)])
        assert np.array_equal(out, expect), w  # NaN nowhere: every cell written
        assert np.array_equal(counter.values, expect), w

    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT", "STREAMING"])
    def test_units_keep_the_fetch_dtype(self, plan):
        # both write paths land units of the fetch's own dtype, whatever ``out`` holds
        b, w = S, 2
        m = 5 * b + 7
        a = np.arange(m * m, dtype=np.float64).reshape(m, m) % 7
        rows, first, stops, offsets = self.table(b, m)
        for dtype in (np.float64, np.float32, np.complex128):
            src = a.astype(dtype)
            landed = set()

            class Out:
                def __setitem__(self, where, vals):
                    landed.add((type(where).__name__, vals.dtype))

            tiled.smoothed_runs(partial(wrapped_box, src),
                                m, w, plan, Runs(rows[:, None], first, stops, offsets), Out())
            assert {d for _, d in landed} == {np.dtype(dtype)}, (plan, landed)
            assert plan != "EFFICIENT" or {k for k, _ in landed} == {"slice", "ndarray"}

    @pytest.mark.parametrize("w", [9, 49])
    def test_meter_matches_traced_peak(self, w):
        # as TestSmoothedCells2d's EFFICIENT case, on the path an estimate
        # takes: order 3's domain runs (k2 <= k1) written into an ndarray,
        # so the index array of a unit's write is traced where it is made
        # (measured 1.09 at w=9 and 1.04 at w=49). Not at w=1: there the
        # unit is the fetched patch, and the previous unit is still alive
        # while the next is fetched, so two units are live where the meter
        # counts one (1.87); freeing it first costs FAST and large EFFICIENT
        # windows a heap trim and refault per unit
        rng = np.random.default_rng(w)
        n = 400
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pad = 2 * max(w, S)
        ext = np.pad(a, ((0, pad), (0, pad)), mode="wrap")

        def fetch(r0, c0, rows, cols):  # a slice: no index temporaries in the trace
            return ext[r0 : r0 + rows, c0 : c0 + cols].copy()

        rows = np.arange(n)
        first, stops = np.zeros(n, dtype=np.int64), rows + 1
        offsets = np.cumsum(stops) - stops
        out = np.empty(int(stops.sum()), dtype=a.dtype)
        args = fetch, n, w, "EFFICIENT", Runs(rows[:, None], first, stops, offsets), out
        tiled.smoothed_runs(*args)  # untraced: a fresh process's one-time allocations
        WORKSPACE.reset()
        tracemalloc.start()
        try:
            tiled.smoothed_runs(*args)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = traced / WORKSPACE.peak
        assert 0.8 <= ratio <= 1.25, (w, ratio)
        assert WORKSPACE.current == 0


class TestRowPass:
    """The lean plans' one row pass, seen through ``smoothed_runs`` with a recording fetch."""

    @pytest.mark.parametrize("w", [9, 49, 117])
    @pytest.mark.parametrize("order", [3, 4])
    def test_streaming_fetches_stay_narrow(self, order, w):
        # at order 3 no fetch is wider than S source columns, also at w > S, where a unit
        # after its band's first is asked for S - (w - 1) <= 0 output columns; from order 4
        # on a block fetches its 1 x S face and halo in one call, as EFFICIENT's row pass
        m = 3 * S + 5
        boxes = []

        def fetch(r0, c0, rows, cols, *planes):
            boxes.append((rows, cols))
            return np.zeros((rows, cols))

        runs = domain_runs(order, m)
        tiled.smoothed_runs(fetch, m, w, "STREAMING", runs, np.empty(runs.size))
        rows, cols = np.array(boxes).T
        assert (rows == w).all()
        if order == 3:
            assert cols.max() == S, cols.max()
        else:
            assert cols.max() <= S + w - 1, cols.max()

    @pytest.mark.parametrize("w", [1, 9, 49, 117])
    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT"])
    def test_one_fetch_per_unit(self, monkeypatch, plan, w):
        # the row pass fetches FAST's and EFFICIENT's units whole, one call each; the
        # column pass runs once per unit
        m = 3 * max(S, w) + 7
        a = np.random.default_rng(w).standard_normal((m, m))
        counts, column_sums = Counter(), tiled._column_sums

        def fetch(r0, c0, rows, cols):
            counts["fetches"] += 1
            return wrapped_box(a, r0, c0, rows, cols)

        def summed(part, w):
            counts["units"] += 1
            return column_sums(part, w)

        monkeypatch.setattr(tiled, "_column_sums", summed)
        runs = domain_runs(3, m)
        out = np.empty(runs.size)
        tiled.smoothed_runs(fetch, m, w, plan, runs, out)
        assert counts["fetches"] == counts["units"] > 1, counts
        expect = smooth(np.pad(a, (0, w - 1), mode="wrap"), w, SmoothingPlan.PREFIX)
        assert_window_equal(out, expect[tuple(principal_domain(3, m).T)], context=f"{plan} w={w}")


class TestOrder4Sweep:
    """With two lead columns, ``smoothed_runs`` asks the fetch for each block
    of the leading axes once per third index its runs cover, each answer
    already summed over the ``w`` third indices from there on, and cuts the
    block at the far corner of the runs active at that index."""

    @staticmethod
    def face(plan, m, w):
        return {"FAST": (w, m), "EFFICIENT": (max(S, w),) * 2, "STREAMING": (1, S)}[plan]

    @pytest.mark.parametrize("w", [1, 4, 5])
    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT", "STREAMING"])
    def test_one_summed_fetch_per_block_and_covered_index(self, plan, w):
        m = 32
        rng = np.random.default_rng(w)
        a = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        calls = Counter()

        def fetch(r0, c0, rows, cols, k3):  # the plane summed over k3 .. k3 + w - 1
            calls[r0, c0, k3, rows, cols] += 1
            return wrapped_box(a, r0, c0, rows, cols)[..., (k3 + np.arange(w)) % m].sum(axis=-1)

        runs = domain_runs(4, m)
        lead, first, stops, _ = runs
        out = np.empty(runs.size, dtype=a.dtype)
        tiled.smoothed_runs(fetch, m, w, plan, runs, out)
        fh, fw = self.face(plan, m, w)
        seen = Counter((b0, c0, k3) for b0, c0, k3, _, _ in calls)
        assert max(seen.values()) == 1, seen.most_common(1)  # no plane fetched twice: no ring
        for b0, c0, k3, rows, cols in calls:
            on = ((lead // (fh, fw) == (b0 // fh, c0 // fw)).all(axis=1)
                  & (first <= k3) & (k3 < stops))
            assert on.any(), (b0, c0, k3)  # some run of the block covers k3
            far = lead[on].max(axis=0) - (b0, c0) + w  # the active runs' far corner
            assert (rows, cols) == tuple(far.tolist()), (b0, c0, k3, rows, cols)
        expect = smooth(np.pad(a, (0, w - 1), mode="wrap"), w, SmoothingPlan.PREFIX)
        dom = principal_domain(4, m)
        assert_window_equal(out, expect[tuple(dom.T)], context=f"{plan} w={w}")

    @pytest.mark.parametrize("w", [3, 5])
    def test_slice_past_its_blocks_other_runs_bit_identical(self, w):
        # a slice [a, b) whose first run starts at k3 >= 2 and whose one other
        # run in that run's block is cut after its first point (k3 = 0): the
        # block's sweep then passes k3 = 1 with no run active
        m = 32
        series = generate_qpc(0.1, 0.15, m, noise_sigma=0.4, seed=w)
        spec_set = dft_segments(segment_and_demean(series, SegmentConfig(m=m, k=1)))
        dom = principal_domain(4, m)
        for plan in (SmoothingPlan.FAST, SmoothingPlan.EFFICIENT, SmoothingPlan.STREAMING):
            blocks = dom[:, :2] // self.face(plan.name, m, w)
            for a in np.flatnonzero(dom[:, 2] >= 2).tolist():
                # the block's next run after the one at a; it starts at k3 = 0
                mates = np.flatnonzero((blocks[a:] == blocks[a]).all(axis=1)
                                       & (dom[a:, :2] != dom[a, :2]).any(axis=1))
                if len(mates):
                    b = a + int(mates[0]) + 1
                    break
            cfg = EstimationConfig(4, SegmentConfig(m=m, k=1), w, plan)
            full = slice_grid(spec_set, cfg, 0, len(dom))
            got = slice_grid(spec_set, cfg, a, b)
            assert np.array_equal(got, full[a:b]), (plan.name, a, b)


class TestBlockWalkerCuts:
    """A cut of the domain sweeps to the whole sweep's bits, with the fetches a per-plane
    mask of live runs defines, also where the cut's first run starts after its block's
    other runs: there the live runs are no prefix of the block's runs sorted by stop."""

    @staticmethod
    def mask_calls(runs, face, w):
        """The fetches of a sweep by the definition: per block of the leading axes, in
        lexicographic order, and per last index ``k`` ascending that a run of the block
        covers, the box out to the far corner of the runs live at ``k``."""
        lead, first, stops, _ = runs
        keys = lead // face
        calls = []
        for key in sorted(set(map(tuple, keys.tolist()))):
            origin = np.array(key) * face
            block = (keys == key).all(axis=1)
            for k in range(int(first[block].min()), int(stops[block].max())):
                on = block & (first <= k) & (k < stops)
                if on.any():
                    rows, cols = (lead[on, :2].max(axis=0) - origin[:2] + w).tolist()
                    calls.append((*origin[:2].tolist(), rows, cols, *origin[2:].tolist(), k))
        return calls

    @pytest.mark.parametrize("w", [1, 3, 4])
    @pytest.mark.parametrize("plan", ["FAST", "EFFICIENT", "STREAMING"])
    @pytest.mark.parametrize("order", [4, 5])
    def test_random_cuts_keep_bits_and_fetches(self, order, plan, w):
        # random cuts [a, b) of the domain, and cuts that start mid-run t, ahead of a run of
        # t's block that starts at 0
        m = {4: 32, 5: 16}[order]
        rng = np.random.default_rng(order * 10 + w)
        src = rng.standard_normal((m,) * (order - 1)) + 1j * rng.standard_normal((m,) * (order - 1))
        calls = []

        def fetch(r0, c0, rows, cols, *planes):  # each plane summed over its w indices
            calls.append((r0, c0, rows, cols, *planes))
            box = 0
            for ks in itertools.product(*(range(k, k + w) for k in planes)):
                box = box + wrapped_box(src[(..., *(np.array(ks) % m))], r0, c0, rows, cols)
            return box

        def sweep(runs):  # laid out after m guard cells, which no write may reach
            calls.clear()
            out = np.full(m + runs.size, np.nan, dtype=src.dtype)
            tiled.smoothed_runs(fetch, m, w, plan, runs._replace(offsets=runs.offsets + m), out)
            assert np.isnan(out[:m]).all()
            return out[m:], list(calls)

        whole = domain_runs(order, m)
        face = np.array(TestOrder4Sweep.face(plan, m, w) + (1,) * (order - 4))
        full, full_calls = sweep(whole)
        assert full_calls == self.mask_calls(whole, face, w)
        lens, keys = whole.stops - whole.first, whole.lead // face
        mates = {t: t + 1 + int(later[0]) for t in np.flatnonzero(lens >= 2).tolist()
                 if len(later := np.flatnonzero((keys[t + 1:] == keys[t]).all(axis=1)))}
        cuts = [sorted(rng.choice(whole.size + 1, 2, replace=False).tolist()) for _ in range(3)]
        for t in rng.choice(list(mates), 3).tolist():
            a = int(whole.offsets[t] + rng.integers(1, lens[t]))
            cuts.append([a, int(rng.integers(whole.offsets[mates[t]] + 1, whole.size + 1))])
        for a, b in cuts:
            cut = whole.cut(a, b)
            got, got_calls = sweep(cut)
            assert np.array_equal(got, full[a:b]), (a, b)
            assert got_calls == self.mask_calls(cut, face, w), (a, b)


class TestMemoryTiers:
    def _engine_peak(self, n, w, plan):
        """Working-set peak for one full sweep at size n (periodic)."""
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        WORKSPACE.reset()
        window_sums_2d(a, WindowSpec(w, "periodic"), plan)
        return WORKSPACE.peak

    def test_ws_quadruples_when_size_doubles(self):
        w = 8
        peaks = [self._engine_peak(n, w, SmoothingPlan.WS) for n in (64, 128, 256)]
        for small, big in zip(peaks, peaks[1:]):
            assert 3.5 <= big / small <= 4.5, peaks

    def test_fast_doubles_when_size_doubles(self):
        def peak(n, w):
            rng = np.random.default_rng(n)
            a = rng.standard_normal((n, n))
            WORKSPACE.reset()
            tiled.smoothed_runs(partial(wrapped_box, a), n, w, "FAST",
                                span_runs([(r, 0, n) for r in range(n)]), np.empty(n * n))
            return WORKSPACE.peak

        peaks = [peak(n, 8) for n in (64, 128, 256)]
        for small, big in zip(peaks, peaks[1:]):
            assert 1.7 <= big / small <= 2.6, peaks

    def test_lean_plans_flat_when_size_doubles(self):
        def peak(n, w, plan):
            rng = np.random.default_rng(n)
            a = rng.standard_normal((n, n))
            WORKSPACE.reset()
            tiled.smoothed_runs(partial(wrapped_box, a), n, w, plan,
                                span_runs([(r, 0, n) for r in range(n)]), np.empty(n * n))
            return WORKSPACE.peak

        for plan in ("EFFICIENT", "STREAMING"):
            peaks = [peak(n, 8, plan) for n in (64, 128, 256)]
            for small, big in zip(peaks, peaks[1:]):
                assert big / small < 1.3, (plan, peaks)

    def test_streaming_sweep_holds_no_list_per_run(self):
        # a STREAMING band is one run, so the sweep's traced memory grows with
        # the runs by what it keeps per band: three arrays take 24 B a run,
        # Python lists of each band's origin and slice about 150 B. Each run
        # is one cell, so each band one unit, whatever n is.
        w = 9

        def sweep(n):
            ext = np.random.default_rng(n).standard_normal((n + w, S + w))

            def fetch(r0, c0, rows, cols):  # a slice: no index temporaries in the trace
                return ext[r0 : r0 + rows, c0 : c0 + cols].copy()

            lead = np.arange(n)[:, None]
            first, stops = np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)
            return fetch, n, w, "STREAMING", Runs(lead, first, stops, lead[:, 0]), np.empty(n)

        def traced(args):
            tracemalloc.start()
            try:
                tiled.smoothed_runs(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, big = sweep(400), sweep(1600)
        tiled.smoothed_runs(*small)  # untraced: a fresh process's one-time allocations
        small, big = traced(small), traced(big)
        assert (big - small) / (1600 - 400) <= 40, (small, big)


class TestWorkTiers:
    def test_naive_runtime_grows_with_window_others_do_not(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((512, 512))

        def best_time(plan, w, reps=3):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                window_sums_2d(a, WindowSpec(w, "valid"), plan)
                times.append(time.perf_counter() - t0)
            return min(times)

        # a descheduled call only slows itself: once at w=49 it raises the ratio, but at
        # w=9 it lowers it, so the cheap side takes the best of 3
        naive_ratio = best_time(SmoothingPlan.NAIVE, 49, reps=1) / best_time(SmoothingPlan.NAIVE, 9)
        assert naive_ratio >= 10.0, naive_ratio
        for plan in (SmoothingPlan.WS, SmoothingPlan.PREFIX, SmoothingPlan.FAST, SmoothingPlan.EFFICIENT):
            ratio = best_time(plan, 49) / best_time(plan, 9)
            assert ratio <= 1.5, (plan.name, ratio)


class TestPlanMetadata:
    def test_declared_classes_fixed(self):
        expected = {
            "NAIVE": ("n^2 w^2", "O(1)"),
            "WS": ("n^2", "O(n^2)"),
            "PREFIX": ("n^2", "O(n^2)"),
            "FAST": ("n^2", "O(n w)"),
            "EFFICIENT": ("n^2", "O(w^2)"),
            "STREAMING": ("n^2 w", "O(w)"),
        }
        assert len(list(SmoothingPlan)) == 6
        for plan in SmoothingPlan:
            assert (plan.declared_work, plan.declared_extra_memory) == expected[plan.name]

    def test_parse_rejects_unknown_listing_valid(self):
        with pytest.raises(ParameterError) as err:
            SmoothingPlan.parse("BOGUS")
        for name in expected_names():
            assert name in str(err.value)


def expected_names():
    return ["NAIVE", "WS", "PREFIX", "FAST", "EFFICIENT", "STREAMING"]
