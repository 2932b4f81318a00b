"""Time-series ingestion, segmentation, and synthetic test signals.

All randomness goes through ``numpy.random.default_rng`` (PCG64), which has
a platform-independent stream for a fixed seed, so every generator here is
bit-reproducible across runs and machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

__all__ = [
    "TimeSeries",
    "SegmentConfig",
    "SegmentSet",
    "load_series",
    "save_series",
    "CSV_CHUNK_ROWS",
    "write_csv_rows",
    "segment_and_demean",
    "generate_qpc",
    "generate_gaussian_ar",
]


@dataclass(frozen=True)
class TimeSeries:
    """A finite real-valued sample sequence with provenance.

    Attributes
    ----------
    samples : ndarray
        Float64 samples, dimensionless amplitude.
    source : str
        Free-text provenance label (file path or generator description).
    """

    samples: np.ndarray
    source: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 1:
            raise ParameterError("a time series needs at least one sample")
        if not np.all(np.isfinite(samples)):
            bad = int(np.flatnonzero(~np.isfinite(samples))[0])
            raise DataError(f"non-finite sample at index {bad}")

    @property
    def n(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class SegmentConfig:
    """Partitioning parameters: ``k`` segments of ``m`` samples each."""

    m: int
    k: int = 1

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ParameterError(
                f"segment length and count must be positive, got m={self.m}, k={self.k}"
            )

    def validate_for(self, series: TimeSeries) -> None:
        if self.k * self.m > series.n:
            raise ParameterError(
                f"k*m = {self.k}*{self.m} = {self.k * self.m} exceeds "
                f"series length n = {series.n}"
            )


@dataclass(frozen=True)
class SegmentSet:
    """``k`` contiguous segments of ``m`` samples, optionally demeaned."""

    segments: np.ndarray  # shape (k, m)
    means_removed: bool = False


def load_series(path, fmt: str = "csv") -> TimeSeries:
    """Read a series from ``path``.

    ``csv`` means one decimal value per line, with an optional single header
    line whose first token is non-numeric. ``raw64`` means consecutive
    little-endian IEEE-754 float64 values.
    """
    path = str(path)
    if fmt == "csv":
        try:
            # utf-8-sig drops the byte-order mark spreadsheet tools write first
            with open(path, "r", encoding="utf-8-sig") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        values = []
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if lineno == 1 and not values:
                    continue  # header line
                raise DataError(f"{path}:{lineno}: non-numeric value {text!r}")
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {text!r}")
            values.append(value)
        if not values:
            raise DataError(f"{path}: empty input")
        return TimeSeries(np.asarray(values), source=path)
    if fmt == "raw64":
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        if len(blob) == 0:
            raise DataError(f"{path}: empty input")
        if len(blob) % 8 != 0:
            raise DataError(
                f"{path}: length {len(blob)} is not a multiple of 8 bytes"
            )
        samples = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise DataError(f"{path}: non-finite value at offset {int(bad[0]) * 8}")
        return TimeSeries(samples, source=path)
    raise ParameterError(f"unknown format {fmt!r}; expected csv or raw64")


# Rows per chunk in ``write_csv_rows``, enough to amortise its NumPy calls. An
# order-3 estimate at m=2048, w=117 peaks at 41.5 MB RSS; its write stays under
# that at 4096 rows, and lifts it to 42.4 MB at 8192 rows and 45.8 MB at 16384.
CSV_CHUNK_ROWS = 4096


def write_csv_rows(fh, columns) -> None:
    """Write the rows of ``columns``, equal-length 1-D arrays, to the binary
    file ``fh`` as CSV lines: integer columns as ``'%d'`` and float columns as
    ``'%.17g'``, byte for byte, ``CSV_CHUNK_ROWS`` rows per ``fh.write``."""
    from .csvformat import write_rows  # compiled and tabulated on the first write
    write_rows(fh, columns, CSV_CHUNK_ROWS)


def save_series(series: TimeSeries, path, fmt: str = "csv") -> None:
    """Write a series in a format ``load_series`` reads back exactly."""
    path = str(path)
    if fmt == "csv":
        with open(path, "wb") as fh:
            write_csv_rows(fh, [series.samples])
    elif fmt == "raw64":
        series.samples.astype("<f8").tofile(path)
    else:
        raise ParameterError(f"unknown format {fmt!r}; expected csv or raw64")


def segment_and_demean(series: TimeSeries, cfg: SegmentConfig) -> SegmentSet:
    """Cut the series into ``k`` contiguous blocks of ``m`` and remove each
    block's own mean. Samples beyond ``k*m`` are discarded."""
    cfg.validate_for(series)
    blocks = series.samples[: cfg.k * cfg.m].reshape(cfg.k, cfg.m).copy()
    blocks -= blocks.mean(axis=1, keepdims=True)
    return SegmentSet(segments=blocks, means_removed=True)


def generate_qpc(
    f1: float,
    f2: float,
    n: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> TimeSeries:
    """Quadratically phase-coupled test signal.

    Three cosines at fractional frequencies ``f1``, ``f2`` and ``f1+f2``
    with the third phase locked to the sum of the first two, plus white
    Gaussian noise. The phase coupling puts a bispectral peak near the bin
    pair ``(f1*m, f2*m)``.
    """
    if not (0.0 < f1 and 0.0 < f2 and f1 + f2 < 0.5):
        raise ParameterError(
            f"need 0 < f1, f2 and f1+f2 < 0.5, got f1={f1}, f2={f2}"
        )
    if noise_sigma < 0.0:
        raise ParameterError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    phi1, phi2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    t = np.arange(n, dtype=np.float64)
    x = (
        np.cos(2.0 * np.pi * f1 * t + phi1)
        + np.cos(2.0 * np.pi * f2 * t + phi2)
        + np.cos(2.0 * np.pi * (f1 + f2) * t + phi1 + phi2)
    )
    x += rng.normal(0.0, noise_sigma, size=n) if noise_sigma > 0 else 0.0
    return TimeSeries(
        x, source=f"qpc(f1={f1},f2={f2},n={n},sigma={noise_sigma},seed={seed})"
    )


def generate_gaussian_ar(coeffs, n: int, seed: int = 0) -> TimeSeries:
    """Stable autoregressive process driven by standard Gaussian noise.

    ``x[t] = sum_j coeffs[j] * x[t-j-1] + eps[t]``. Rejects coefficient sets
    whose characteristic roots are not strictly inside the unit circle. A
    burn-in of ten times the model order is generated and discarded.
    """
    coeffs = np.asarray(list(coeffs), dtype=np.float64)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    p = coeffs.size
    if p > 0:
        roots = np.roots(np.concatenate([[1.0], -coeffs]))
        if np.any(np.abs(roots) >= 1.0):
            worst = float(np.max(np.abs(roots)))
            raise ParameterError(
                f"unstable AR coefficients: characteristic root magnitude {worst:.6g} >= 1"
            )
    rng = np.random.default_rng(seed)
    burn = 10 * p
    eps = rng.standard_normal(n + burn)
    if p == 0:
        x = eps
    else:
        x = np.empty(n + burn)
        for t in range(n + burn):
            acc = eps[t]
            for j in range(min(p, t)):
                acc += coeffs[j] * x[t - j - 1]
            x[t] = acc
    return TimeSeries(
        x[burn:].copy(),
        source=f"ar(coeffs={coeffs.tolist()},n={n},seed={seed})",
    )
