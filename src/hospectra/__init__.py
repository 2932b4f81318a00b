"""Higher-order spectrum estimation with interchangeable smoothing engines.

The direct method for the bispectrum (order 3), the trispectrum (order 4)
and any higher order: partition, demean, transform, raw frequency-products,
box smoothing, and segment averaging. Six window-sum plans cover the
time/memory trade-off space from brute-force re-summation to O(w)-memory
streaming, all producing the same values; a process-based parallel layer
scales the lean plans with bit-identical output for any worker count.
"""

from .bench import (
    BenchReport,
    measure_peak_memory,
    measure_run,
    reference_window,
    reports_to_json,
    run_benchmarks,
)
from .dft import SegmentSpectrumSet, dft_segments, naive_dft
from .errors import DataError, ParameterError
from .meter import WORKSPACE, AllocationMeter
from .parallel import WorkerConfig, parallel_estimate
from .series import (
    SegmentConfig,
    SegmentSet,
    TimeSeries,
    generate_gaussian_ar,
    generate_qpc,
    load_series,
    save_series,
    segment_and_demean,
)
from .spectra import (
    EstimationConfig,
    SpectrumGrid,
    SpectrumPoint,
    compare_grids,
    estimate_from_spectra,
    estimate_spectrum,
    principal_domain,
    raw_product_value,
    write_grid_csv,
)
from .window_sums import (
    SmoothingPlan,
    WindowSpec,
    window_sums_2d,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationMeter",
    "BenchReport",
    "DataError",
    "EstimationConfig",
    "ParameterError",
    "SegmentConfig",
    "SegmentSet",
    "SegmentSpectrumSet",
    "SmoothingPlan",
    "SpectrumGrid",
    "SpectrumPoint",
    "TimeSeries",
    "WindowSpec",
    "WorkerConfig",
    "WORKSPACE",
    "compare_grids",
    "dft_segments",
    "estimate_from_spectra",
    "estimate_spectrum",
    "generate_gaussian_ar",
    "generate_qpc",
    "load_series",
    "measure_peak_memory",
    "measure_run",
    "naive_dft",
    "reference_window",
    "parallel_estimate",
    "principal_domain",
    "raw_product_value",
    "reports_to_json",
    "run_benchmarks",
    "save_series",
    "segment_and_demean",
    "window_sums_2d",
    "write_grid_csv",
]
