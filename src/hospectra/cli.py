"""Command-line interface: ``estimate``, ``bench``, and ``gen``.

Exit codes: 0 on success, 2 for configuration errors, 1 for I/O errors.
The default worker count comes from the ``HOSPECTRA_THREADS`` environment
variable, checked as strictly as ``--threads``; the flag wins when both are
given.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import reports_to_json, run_benchmarks
from .errors import DataError, ParameterError
from .parallel import WorkerConfig, parallel_estimate
from .series import SegmentConfig, generate_gaussian_ar, generate_qpc, load_series, save_series
from .spectra import EstimationConfig, write_grid_csv
from .window_sums import SmoothingPlan

PLAN_NAMES = [p.name for p in SmoothingPlan]


def _env_threads() -> int:
    text = os.environ.get("HOSPECTRA_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ParameterError(f"HOSPECTRA_THREADS must be an integer >= 1, got {text!r}")
    return threads


def _csv_list(text: str, flag: str, kind=int) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"{flag} takes comma-separated {kind.__name__} values, "
                             f"got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hospectra",
        description="Higher-order spectrum estimation (bispectrum/trispectrum).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a spectrum from a series file")
    est.add_argument("--order", type=int, choices=(3, 4), default=3)
    est.add_argument("--input", required=True)
    est.add_argument("--format", choices=("csv", "raw64"), default="csv")
    est.add_argument("--seg-len", type=int, required=True, help="samples per segment (M)")
    est.add_argument("--segments", type=int, default=1, help="segment count (K)")
    est.add_argument("--window", type=int, required=True, help="smoothing window side (M3)")
    est.add_argument("--plan", type=str.upper, choices=PLAN_NAMES, default="EFFICIENT")
    est.add_argument("--threads", type=int, default=None)
    est.add_argument("--conjugate", choices=("on", "off"), default="on")
    est.add_argument("--out", required=True)
    est.set_defaults(func=cmd_estimate)

    ben = sub.add_parser("bench", help="run the benchmark cross-product")
    ben.add_argument("--orders", default="3")
    ben.add_argument("--sizes", required=True)
    ben.add_argument("--plans", default=",".join(PLAN_NAMES))
    ben.add_argument("--threads-list", default="1")
    ben.add_argument("--repeats", type=int, default=3)
    ben.add_argument("--time-limit", type=float, default=60.0)
    ben.add_argument("--mem-limit", type=int, default=4 * 2**30)
    ben.add_argument("--windows", default="reference",
                     help="'reference', one value, or a comma list matching --sizes")
    ben.add_argument("--seed", type=int, default=1234)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate a synthetic test series")
    gen.add_argument("--kind", choices=("qpc", "ar"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--f1", type=float, default=0.1)
    gen.add_argument("--f2", type=float, default=0.15)
    gen.add_argument("--noise-sigma", type=float, default=0.0)
    gen.add_argument("--coeffs", default="", help="comma-separated AR coefficients")
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=("csv", "raw64"), default="csv")
    gen.set_defaults(func=cmd_gen)
    return parser


def cmd_estimate(args) -> int:
    if args.window < 1 or 2 * args.window >= args.seg_len:
        raise ParameterError(
            f"--window {args.window} must satisfy 1 <= window < seg-len/2 "
            f"(seg-len = {args.seg_len})"
        )
    cfg = EstimationConfig(
        order=args.order,
        segment=SegmentConfig(m=args.seg_len, k=args.segments),
        m3=args.window,
        plan=SmoothingPlan.parse(args.plan),
        conjugate_last=args.conjugate == "on",
    )
    workers = WorkerConfig(p=args.threads if args.threads is not None else _env_threads())
    series = load_series(args.input, args.format)
    grid = parallel_estimate(series, cfg, workers)
    write_grid_csv(grid, args.out)
    return 0


def cmd_bench(args) -> int:
    windows = args.windows if args.windows == "reference" else _csv_list(args.windows, "--windows")
    reports = run_benchmarks(
        orders=_csv_list(args.orders, "--orders"),
        sizes=_csv_list(args.sizes, "--sizes"),
        plans=[tok.strip() for tok in args.plans.split(",") if tok.strip()],
        threads_list=_csv_list(args.threads_list, "--threads-list"),
        repeats=args.repeats,
        time_limit=args.time_limit,
        mem_limit=args.mem_limit,
        seed=args.seed,
        windows=windows,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(reports_to_json(reports) + "\n")
    return 0


def cmd_gen(args) -> int:
    if args.kind == "qpc":
        series = generate_qpc(args.f1, args.f2, args.n, args.noise_sigma, args.seed)
    else:
        series = generate_gaussian_ar(_csv_list(args.coeffs, "--coeffs", float), args.n, args.seed)
    save_series(series, args.out, args.format)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
