import csv
import json

import numpy as np
import pytest

from hospectra import (
    BenchReport,
    EstimationConfig,
    ParameterError,
    SegmentConfig,
    SmoothingPlan,
    TimeSeries,
    estimate_spectrum,
    generate_qpc,
    load_series,
    measure_peak_memory,
    reference_window,
    reports_to_json,
    run_benchmarks,
    save_series,
)
from hospectra import bench
from hospectra.cli import main
from hospectra.series import CSV_CHUNK_ROWS


class TestCmdGen:
    def test_qpc_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen", "--kind", "qpc", "--n", "1024", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unstable_ar_exits_2(self, tmp_path, capsys):
        code = main(
            ["gen", "--kind", "ar", "--n", "64", "--coeffs", "1.1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "unstable" in capsys.readouterr().err

    def test_csv_and_raw64_decode_to_equal_samples(self, tmp_path):
        c, r = tmp_path / "x.csv", tmp_path / "x.raw"
        base = ["gen", "--kind", "qpc", "--n", "257", "--seed", "9",
                "--noise-sigma", "0.25"]
        assert main(base + ["--out", str(c), "--format", "csv"]) == 0
        assert main(base + ["--out", str(r), "--format", "raw64"]) == 0
        sc = load_series(c, "csv")
        sr = load_series(r, "raw64")
        assert np.array_equal(sc.samples, sr.samples)

    @pytest.mark.parametrize(
        "n", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, 3 * CSV_CHUNK_ROWS + 17]
    )
    def test_csv_bytes_match_per_sample_reference(self, tmp_path, n):
        # the chunked writer against one f-string per sample, below one
        # chunk, exactly one, and several plus a remainder
        rng = np.random.default_rng(n)
        samples = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, size=n)
        samples[: min(n, 6)] = [-0.0, 5e-324, 1e308, 0.1, 2.0, -1.5e-17][: min(n, 6)]
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        save_series(TimeSeries(samples), got, "csv")
        with open(ref, "w", encoding="utf-8") as fh:
            for value in samples:
                fh.write(f"{value:.17g}\n")
        assert got.read_bytes() == ref.read_bytes()

    def test_ar_generation(self, tmp_path):
        out = tmp_path / "ar.csv"
        code = main(["gen", "--kind", "ar", "--n", "100", "--coeffs", "0.5,-0.2",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert load_series(out, "csv").n == 100


class TestCmdEstimate:
    def _gen(self, tmp_path, n=256):
        path = tmp_path / "series.csv"
        assert main(["gen", "--kind", "qpc", "--n", str(n), "--seed", "2",
                     "--noise-sigma", "0.5", "--out", str(path)]) == 0
        return path

    def test_happy_path_writes_grid(self, tmp_path):
        inp = self._gen(tmp_path)
        out = tmp_path / "grid.csv"
        code = main(
            ["estimate", "--order", "3", "--input", str(inp), "--seg-len", "256",
             "--window", "5", "--plan", "EFFICIENT", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k1", "k2", "re", "im"]
        assert len(rows) > 1

    def test_grid_matches_library_call(self, tmp_path):
        inp = self._gen(tmp_path)
        out = tmp_path / "grid.csv"
        assert main(
            ["estimate", "--input", str(inp), "--seg-len", "256", "--window", "7",
             "--plan", "WS", "--out", str(out)]
        ) == 0
        series = load_series(inp, "csv")
        grid = estimate_spectrum(
            series, EstimationConfig(3, SegmentConfig(m=256), 7, SmoothingPlan.WS)
        )
        with open(out) as fh:
            reader = csv.reader(fh)
            next(reader)
            got = np.array([complex(float(r[2]), float(r[3])) for r in reader])
        assert np.array_equal(got, grid.values)

    def test_oversized_window_exits_2_and_names_flag(self, tmp_path, capsys):
        inp = self._gen(tmp_path)
        code = main(
            ["estimate", "--input", str(inp), "--seg-len", "256", "--window", "128",
             "--out", str(tmp_path / "g.csv")]
        )
        assert code == 2
        assert "--window" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--seg-len", "1", "--window", "1"],
        ["--seg-len", "64", "--window", "5", "--segments", "0"],
        ["--seg-len", "64", "--window", "5", "--threads", "0"],
    ])
    def test_bad_config_exits_2_before_reading_input(self, tmp_path, flags):
        code = main(["estimate", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "g.csv")] + flags)
        assert code == 2

    def test_segments_longer_than_series_exit_2(self, tmp_path, capsys):
        inp = self._gen(tmp_path, n=128)
        out = tmp_path / "g.csv"
        code = main(["estimate", "--input", str(inp), "--seg-len", "64",
                     "--segments", "3", "--window", "5", "--out", str(out)])
        assert code == 2
        assert "exceeds series length" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_takes_any_case(self, tmp_path):
        inp = self._gen(tmp_path)
        outs = [tmp_path / f"{name}.csv" for name in ("upper", "lower", "mixed")]
        for name, out in zip(("STREAMING", "streaming", "Streaming"), outs):
            assert main(["estimate", "--input", str(inp), "--seg-len", "256", "--window", "5",
                         "--plan", name, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_bogus_plan_exits_2_listing_choices(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(
                ["estimate", "--input", "x", "--seg-len", "64", "--window", "5",
                 "--plan", "BOGUS", "--out", "y"]
            )
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        for name in ("NAIVE", "WS", "PREFIX", "FAST", "EFFICIENT", "STREAMING"):
            assert name in stderr

    def test_order_past_4_exits_2(self, capsys):
        # the library takes any order >= 3; the CLI keeps 3 and 4 until it can
        # refuse a run that cannot fit (order-5 PREFIX at m=64 models 1.15 GB)
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--order", "5", "--input", "x", "--seg-len", "64",
                  "--window", "5", "--out", "y"])
        assert err.value.code == 2
        assert "--order" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path):
        code = main(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--seg-len", "64",
             "--window", "5", "--out", str(tmp_path / "g.csv")]
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_threads_env_var_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("HOSPECTRA_THREADS", value)
        code = main(["estimate", "--input", str(tmp_path / "nope.csv"), "--seg-len", "64",
                     "--window", "5", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "HOSPECTRA_THREADS" in capsys.readouterr().err

    def test_threads_env_var_with_flag_override(self, tmp_path, monkeypatch):
        inp = self._gen(tmp_path, n=128)
        monkeypatch.setenv("HOSPECTRA_THREADS", "2")
        out1 = tmp_path / "g1.csv"
        assert main(["estimate", "--input", str(inp), "--seg-len", "128",
                     "--window", "5", "--out", str(out1)]) == 0
        out2 = tmp_path / "g2.csv"
        assert main(["estimate", "--input", str(inp), "--seg-len", "128",
                     "--window", "5", "--threads", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_raw64_input(self, tmp_path):
        raw = tmp_path / "x.raw"
        assert main(["gen", "--kind", "qpc", "--n", "128", "--seed", "4",
                     "--out", str(raw), "--format", "raw64"]) == 0
        code = main(["estimate", "--input", str(raw), "--format", "raw64",
                     "--seg-len", "128", "--window", "5",
                     "--out", str(tmp_path / "g.csv")])
        assert code == 0

    def test_conjugate_off_changes_output(self, tmp_path):
        inp = self._gen(tmp_path, n=128)
        on, off = tmp_path / "on.csv", tmp_path / "off.csv"
        base = ["estimate", "--input", str(inp), "--seg-len", "128", "--window", "5"]
        assert main(base + ["--conjugate", "on", "--out", str(on)]) == 0
        assert main(base + ["--conjugate", "off", "--out", str(off)]) == 0
        assert on.read_bytes() != off.read_bytes()

    def test_order4_estimate(self, tmp_path):
        inp = self._gen(tmp_path, n=64)
        out = tmp_path / "g4.csv"
        code = main(["estimate", "--order", "4", "--input", str(inp),
                     "--seg-len", "64", "--window", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "k1,k2,k3,re,im"


class TestCmdBench:
    def test_cross_product_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["bench", "--sizes", "64,128", "--plans", "NAIVE,EFFICIENT",
             "--repeats", "2", "--windows", "5", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data) == 4
        for entry in data:
            assert set(entry) == {
                "plan", "order", "n", "M", "K", "M3", "P", "wall_seconds",
                "peak_extra_bytes", "peak_rss_bytes", "checksum", "status",
            }
            assert entry["wall_seconds"] > 0
            assert entry["status"] == "ok"

    def test_checksums_identical_across_plans(self, tmp_path):
        reports = run_benchmarks(
            orders=[3], sizes=[128], plans=list(SmoothingPlan),
            repeats=1, windows=5, seed=77,
        )
        sums = [r.checksum for r in reports]
        for s in sums[1:]:
            assert abs(s - sums[0]) <= 1e-9 * abs(sums[0])

    def test_exceeded_cell_recorded_not_repeated(self):
        # brute-force plan over a cell that cannot finish inside the limit
        reports = run_benchmarks(
            orders=[3], sizes=[512], plans=["NAIVE"], repeats=3,
            windows=49, time_limit=0.01, seed=1,
        )
        assert len(reports) == 1
        assert reports[0].status == "exceeded"
        assert reports[0].wall_seconds > 0.01

    def test_report_json_roundtrip(self):
        reports = run_benchmarks(
            orders=[3], sizes=[64], plans=["FAST"], repeats=1, windows=5,
        )
        assert json.loads(reports_to_json(reports)) == [r.to_dict() for r in reports]

    def test_empty_cross_product_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            run_benchmarks(orders=[], sizes=[64], plans=["FAST"])

    def test_reference_windows_by_default(self):
        reports = run_benchmarks(orders=[3], sizes=[16, 24], plans=["EFFICIENT"], repeats=1)
        assert [r.M3 for r in reports] == [reference_window(16), reference_window(24)]
        assert all(r.status == "ok" for r in reports)

    def test_window_count_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="got 3 windows for 2 sizes"):
            run_benchmarks(orders=[3], sizes=[32, 64], plans=["FAST"], windows=[3, 5, 7])

    @pytest.mark.parametrize("bad", [{"threads_list": [1, 0]}, {"orders": [3, 2]}])
    def test_bad_last_cell_refused_before_any_run(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(bench, "measure_run", lambda *args: calls.append(args))
        with pytest.raises(ParameterError):
            run_benchmarks(**{"orders": [3], "sizes": [64], "plans": ["FAST"], **bad})
        assert calls == []

    def test_no_repeats_rejected(self):
        with pytest.raises(ParameterError, match="repeats must be >= 1, got 0"):
            run_benchmarks(orders=[3], sizes=[64], plans=["FAST"], repeats=0)

    def test_empty_plans_via_cli_exits_2(self, tmp_path):
        code = main(["bench", "--sizes", "64", "--plans", "", "--out",
                     str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["bench", "--sizes", "abc"],
        ["bench", "--sizes", "64", "--windows", "5,x"],
        ["bench", "--sizes", "64", "--orders", "3,x"],
        ["bench", "--sizes", "64", "--threads-list", "1,2.5"],
        ["gen", "--kind", "ar", "--n", "64", "--coeffs", "0.5,x"],
    ], ids=["sizes", "windows", "orders", "threads-list", "coeffs"])
    def test_malformed_comma_list_exits_2_naming_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"error: {argv[-2]} takes comma-separated" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_1(self, tmp_path):
        code = main(["bench", "--sizes", "64", "--plans", "FAST", "--repeats", "1",
                     "--windows", "5", "--out", str(tmp_path / "no" / "dir" / "r.json")])
        assert code == 1

    def test_order4_cells(self, tmp_path):
        reports = run_benchmarks(
            orders=[4], sizes=[32], plans=["EFFICIENT", "WS"], repeats=1, windows=5,
        )
        assert all(r.order == 4 and r.status == "ok" for r in reports)
        assert abs(reports[0].checksum - reports[1].checksum) <= 1e-9 * abs(reports[0].checksum)


class TestReferenceWindow:
    def test_table_values(self):
        assert reference_window(128) == 21
        assert reference_window(1024) == 77
        assert reference_window(8192) == 279

    def test_interpolated_values_are_odd_and_feasible(self):
        for n in (*range(5, 41), 200, 3000, 2**14):
            w = reference_window(n)
            assert w % 2 == 1
            assert 1 <= w < n / 2


class TestMeasurePeakMemory:
    def test_identity_window_has_tiny_working_set(self):
        series = generate_qpc(0.1, 0.15, 512, 0.4, seed=20)
        cfg = EstimationConfig(3, SegmentConfig(m=512), 1, SmoothingPlan.EFFICIENT)
        peak = measure_peak_memory(series, cfg)
        assert peak < 64 * 1024  # documented fixed overhead bound

    def test_ws_working_set_quadruples(self):
        peaks = []
        for n in (256, 512):
            series = generate_qpc(0.1, 0.15, n, 0.4, seed=21)
            cfg = EstimationConfig(3, SegmentConfig(m=n), 9, SmoothingPlan.WS)
            peaks.append(measure_peak_memory(series, cfg))
        assert 3.5 <= peaks[1] / peaks[0] <= 4.5

    def test_efficient_working_set_flat(self):
        peaks = []
        for n in (256, 512):
            series = generate_qpc(0.1, 0.15, n, 0.4, seed=22)
            cfg = EstimationConfig(3, SegmentConfig(m=n), 9, SmoothingPlan.EFFICIENT)
            peaks.append(measure_peak_memory(series, cfg))
        assert peaks[1] / peaks[0] < 1.3

    def test_deterministic(self):
        series = generate_qpc(0.1, 0.15, 256, 0.4, seed=23)
        cfg = EstimationConfig(3, SegmentConfig(m=256), 9, SmoothingPlan.FAST)
        assert measure_peak_memory(series, cfg) == measure_peak_memory(series, cfg)
