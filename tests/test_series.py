import io
from fractions import Fraction

import numpy as np
import pytest

from hospectra import (
    DataError,
    EstimationConfig,
    ParameterError,
    SegmentConfig,
    TimeSeries,
    estimate_spectrum,
    generate_gaussian_ar,
    generate_qpc,
    load_series,
    save_series,
    segment_and_demean,
)
from hospectra import csvformat
from hospectra.series import write_csv_rows


class TestLoadSeries:
    def test_csv_basic(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        ts = load_series(path, "csv")
        assert ts.n == 3
        assert np.array_equal(ts.samples, [1.0, 2.0, 3.0])
        assert ts.source == str(path)

    def test_csv_header_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.5\n-2.5\n")
        ts = load_series(path, "csv")
        assert np.array_equal(ts.samples, [1.5, -2.5])

    def test_csv_byte_order_mark_is_not_a_header(self, tmp_path):
        # spreadsheet tools start a UTF-8 CSV with U+FEFF; "\ufeff1.5" is no header
        path = tmp_path / "x.csv"
        path.write_bytes("\ufeff1.5\n2.5\n3.5\n".encode("utf-8"))
        assert np.array_equal(load_series(path, "csv").samples, [1.5, 2.5, 3.5])
        path.write_bytes("\ufeffvalue\n1.5\n".encode("utf-8"))
        assert np.array_equal(load_series(path, "csv").samples, [1.5])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty input"):
            load_series(path, "csv")

    def test_non_numeric_mid_file_names_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\nbogus\n4.0\n")
        with pytest.raises(DataError, match=":3:"):
            load_series(path, "csv")

    def test_nan_rejected_with_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\nnan\n")
        with pytest.raises(DataError, match=":2:"):
            load_series(path, "csv")

    def test_missing_file(self, tmp_path):
        for fmt in ("csv", "raw64"):
            with pytest.raises(DataError, match="cannot read"):
                load_series(tmp_path / "nope", fmt)

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.0\n\n   \n2.0\n\n")
        assert np.array_equal(load_series(path, "csv").samples, [1.0, 2.0])

    def test_raw64_non_finite_names_offset(self, tmp_path):
        path = tmp_path / "x.raw"
        np.array([1.0, 2.0, np.inf, 3.0], dtype="<f8").tofile(path)
        with pytest.raises(DataError, match="non-finite value at offset 16"):
            load_series(path, "raw64")

    def test_save_unknown_format(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown format"):
            save_series(TimeSeries(np.ones(3)), tmp_path / "x.bin", "npy")
        assert not (tmp_path / "x.bin").exists()

    def test_raw64_roundtrip(self, tmp_path):
        # oracle: encode with numpy's little-endian float64 writer, read back
        path = tmp_path / "x.raw"
        np.array([1.0, 2.0, 3.0]).astype("<f8").tofile(path)
        assert path.stat().st_size == 24
        ts = load_series(path, "raw64")
        assert np.array_equal(ts.samples, [1.0, 2.0, 3.0])

    def test_raw64_bad_length(self, tmp_path):
        path = tmp_path / "x.raw"
        path.write_bytes(b"\x00" * 11)
        with pytest.raises(DataError, match="multiple of 8"):
            load_series(path, "raw64")

    def test_raw64_empty(self, tmp_path):
        path = tmp_path / "x.raw"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="empty input"):
            load_series(path, "raw64")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ParameterError):
            load_series(tmp_path / "x", "xml")

    def test_save_load_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        ts = TimeSeries(rng.standard_normal(41), source="test")
        path = tmp_path / "r.csv"
        save_series(ts, path, "csv")
        back = load_series(path, "csv")
        assert np.array_equal(back.samples, ts.samples)

    def test_save_load_raw64_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        ts = TimeSeries(rng.standard_normal(17), source="test")
        path = tmp_path / "r.raw"
        save_series(ts, path, "raw64")
        back = load_series(path, "raw64")
        assert np.array_equal(back.samples, ts.samples)


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.empty(0))

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="index 1"):
            TimeSeries(np.array([1.0, np.nan, 2.0]))


class TestSegmentAndDemean:
    def test_constant_segments_demean_to_zero(self):
        ts = TimeSeries(np.array([5.0, 5.0, 5.0, 5.0]))
        segs = segment_and_demean(ts, SegmentConfig(m=2, k=2))
        assert np.array_equal(segs.segments, np.zeros((2, 2)))
        assert segs.means_removed

    def test_single_segment_hand_oracle(self):
        # mean of [1,2,3,4] is 2.5
        ts = TimeSeries(np.array([1.0, 2.0, 3.0, 4.0]))
        segs = segment_and_demean(ts, SegmentConfig(m=4, k=1))
        assert np.allclose(segs.segments, [[-1.5, -0.5, 0.5, 1.5]], atol=1e-15)

    def test_trailing_samples_discarded(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        segs = segment_and_demean(ts, SegmentConfig(m=2, k=2))
        assert np.allclose(segs.segments, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)

    def test_oversized_config_names_both_values(self):
        ts = TimeSeries(np.arange(1, 5, dtype=float))
        with pytest.raises(ParameterError) as err:
            segment_and_demean(ts, SegmentConfig(m=3, k=2))
        assert "6" in str(err.value) and "4" in str(err.value)

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(96)
        cfg = SegmentConfig(m=24, k=4)
        base = segment_and_demean(TimeSeries(x), cfg).segments
        for c in (1.0, -3.7, 1e6):
            shifted = segment_and_demean(TimeSeries(x + c), cfg).segments
            assert np.max(np.abs(shifted - base)) < 1e-9 * max(1.0, abs(c))

    def test_concatenation_property(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(64)
        both = segment_and_demean(TimeSeries(x), SegmentConfig(m=32, k=2)).segments
        first = segment_and_demean(TimeSeries(x[:32]), SegmentConfig(m=32, k=1)).segments
        second = segment_and_demean(TimeSeries(x[32:]), SegmentConfig(m=32, k=1)).segments
        assert np.array_equal(both[0], first[0])
        assert np.array_equal(both[1], second[0])

    def test_means_are_zero_relative_to_peak(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(200) * 1e6
        segs = segment_and_demean(TimeSeries(x), SegmentConfig(m=50, k=4))
        scale = np.abs(segs.segments).max()
        assert np.all(np.abs(segs.segments.mean(axis=1)) <= 1e-12 * scale)


class TestGenerateQpc:
    def test_deterministic_per_seed(self):
        a = generate_qpc(0.1, 0.15, 256, 0.3, seed=42)
        b = generate_qpc(0.1, 0.15, 256, 0.3, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_free_bounded_by_three(self):
        ts = generate_qpc(0.1, 0.15, 4096, 0.0, seed=1)
        assert np.all(np.abs(ts.samples) <= 3.0)

    def test_frequency_sum_constraint(self):
        with pytest.raises(ParameterError):
            generate_qpc(0.3, 0.3, 64)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ParameterError):
            generate_qpc(0.0, 0.1, 64)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            generate_qpc(0.1, 0.15, 64, noise_sigma=-1.0)

    def test_empty_length_rejected(self):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            generate_qpc(0.1, 0.15, 0)


class TestGenerateGaussianAr:
    def test_ar0_is_reproducible_iid_draws(self):
        a = generate_gaussian_ar([], 4, seed=9)
        b = generate_gaussian_ar([], 4, seed=9)
        assert np.array_equal(a.samples, b.samples)
        # degenerate AR(0): exactly the generator's standard-normal stream
        assert np.array_equal(a.samples, np.random.default_rng(9).standard_normal(4))

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ParameterError, match="unstable"):
            generate_gaussian_ar([1.1], 16)

    def test_empty_length_rejected(self):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            generate_gaussian_ar([0.5], 0)

    def test_unstable_two_tap_rejected(self):
        with pytest.raises(ParameterError, match="unstable"):
            generate_gaussian_ar([0.5, 0.6], 16)

    def test_ar1_lag_one_autocorrelation(self):
        # theoretical AR(1) autocorrelation at lag 1 equals the coefficient
        ts = generate_gaussian_ar([0.5], 100_000, seed=33)
        x = ts.samples - ts.samples.mean()
        rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(rho - 0.5) < 0.02


def written(columns):
    fh = io.BytesIO()
    write_csv_rows(fh, columns)
    return fh.getvalue()


def per_value(columns):
    """The bytes of one ``'%d'`` or ``'%.17g'`` per value, joined row by row."""
    fmts = ["%d" if col.dtype.kind in "iu" else "%.17g" for col in columns]
    rows = zip(*(col.tolist() for col in columns))
    return "".join(",".join(f % v for f, v in zip(fmts, row)) + "\n" for row in rows).encode()


def powers_of_ten():
    return np.array([float(f"1e{p}") for p in range(-324, 309)])


def hard_floats():
    """Every decade, both neighbours of each power of ten, subnormals, signed
    zeros, non-finite values and exact 17th-digit ties."""
    rng = np.random.default_rng(21)
    p10 = powers_of_ten()
    decades = np.concatenate([p10, 10.0 ** np.arange(-324, 309),
                              np.nextafter(p10, 0.0), np.nextafter(p10, np.inf)])
    subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1234567890123456.75, 0.5, 1.0, 2.5, 1e16, 1e17]
    # odd / 2**j has j fractional digits ending in 5; with 18 significant
    # digits in all, it lies exactly halfway between two 17-digit decimals
    ties = [rng.integers(10 ** (17 - j) << j, min(10 ** (18 - j) << j, 2**53), 500) | 1
            for j in range(2, 18)]
    ties = np.concatenate(ties).astype(np.float64) / 2.0 ** np.repeat(np.arange(2, 18), 500)
    values = np.concatenate([decades, subnormal, special, ties])
    return np.concatenate([values, -values])


class TestCsvWriterExactness:
    """``write_csv_rows`` against Python's own ``%``, value by value."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert written([values]) == per_value([values])

    def test_decades_neighbours_subnormals_and_ties(self):
        values = hard_floats()
        assert written([values]) == per_value([values])

    def test_exact_ties_go_to_python(self):
        # an exact tie is within any margin, so rint never decides one
        ties = np.array([1234567890123456.75, 1234567890123456.25, 0.5, 2.5e-5])
        slow = csvformat._decimal(ties)[2]
        if np.finfo(np.longdouble).nmant >= 63:
            assert slow[:2].all()
        assert written([ties]) == per_value([ties])

    def test_integer_extremes_between_float_columns(self):
        ints = np.array([0, 1, -1, 9, -10, 12345, -99999, 2**31 - 1, -(2**31)], np.int32)
        big = np.array([0, 2**63 - 1, -(2**63), -(10**18), 10**17, 7, -7, 5, 10], np.int64)
        huge = np.array([2**64 - 1, 2**63, 0, 1, 9, 10, 10**19, 99, 12345], np.uint64)
        floats = hard_floats()[: len(ints)]
        columns = [ints, floats, big, floats[::-1], huge, ints[::-1]]
        assert written(columns) == per_value(columns)

    def test_double_long_double_sends_every_value_to_python(self, monkeypatch):
        # where long double is double, the margin from finfo exceeds 0.5
        with np.errstate(over="ignore"):
            scale = csvformat._SCALE.astype(np.float64)
        monkeypatch.setattr(csvformat, "_SCALE", scale)
        monkeypatch.setattr(csvformat, "_MARGIN", 2.01 * np.finfo(np.float64).eps / 2 * 1e17)
        noise = np.random.default_rng(3).standard_normal(999)
        values = np.concatenate([hard_floats()[::7], noise])
        assert csvformat._decimal(values)[2].all()
        assert written([values, values]) == per_value([values, values])

    def test_power_table_is_correctly_rounded(self):
        for p, value in zip((16 - csvformat._E).tolist(), csvformat._SCALE):
            if not np.isfinite(value):
                continue  # past double's range where long double is double
            error = abs(Fraction(*value.as_integer_ratio()) - Fraction(10) ** p)
            assert error <= Fraction(*np.spacing(value).as_integer_ratio()) / 2, p

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="long double is no wider than double: every value takes "
                               "Python's % by design")
    def test_fast_path_share_on_an_estimated_grid(self):
        # a margin bug would send more values to the slow path, silently
        grid = estimate_spectrum(generate_qpc(0.1, 0.15, 256, 0.5, seed=8),
                                 EstimationConfig(3, SegmentConfig(m=256), 9))
        values = np.concatenate([grid.values.real, grid.values.imag])
        assert csvformat._decimal(values)[2].mean() <= 0.05
