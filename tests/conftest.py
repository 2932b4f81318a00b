import numpy as np

from hospectra.spectra import domain_runs, estimate_slice


def max_rel_dev(a, b, floor=1e-12):
    """Max of |a-b| / max(|a|, |b|, floor) over all elements."""
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_spectrum_close(a, b, rel=1e-9, context=""):
    """Relative 1e-9 agreement with an absolute floor scaled to the
    vector's magnitude (near-cancelling bins, like the DC bin of a
    demeaned segment, carry rounding noise on both sides)."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    assert_window_equal(a, b, rel=rel, floor=1e-12 * scale, context=context)


def assert_window_equal(a, b, rel=1e-9, floor=1e-12, context=""):
    """Elementwise |a-b| <= max(rel * scale, floor): the package-wide
    equivalence tolerance for window sums (relative with an absolute floor,
    absorbing summation-order differences near cancellation)."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, f"shape {a.shape} vs {b.shape} {context}"
    diff = np.abs(a - b)
    bound = np.maximum(rel * np.maximum(np.abs(a), np.abs(b)), floor)
    worst = float(np.max(diff - bound)) if diff.size else 0.0
    assert np.all(diff <= bound), f"excess {worst:.3e} {context}"


def slice_grid(spec_set, cfg, start, stop):
    """``estimate_slice`` over the domain's cut ``[start, stop)``, into a fresh array: its
    values."""
    values = np.empty(max(stop - start, 0), dtype=np.complex128)
    estimate_slice(spec_set, cfg, domain_runs(cfg.order, spec_set.m).cut(start, stop), values)
    return values
