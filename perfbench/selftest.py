"""Fast self-test of the benchmark at tiny sizes (well under a minute).

Run from the root of a checkout: ``python3 perfbench/selftest.py``
(or ``python3 -m pytest perfbench/selftest.py``). It checks that

* every metric listed in BENCHMARK.json, and only those, is emitted with
  its unit by every workload in both modes, and the checks pass;
* a grid with one perturbed value is counted in ``fail_frac``;
* traced spans nest, each carrying its job id and its parent.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HS = run.import_hospectra()
SECONDS = 0.05

TINY = {
    "cli-o3-csv": dict(m=64, m3=5),
    "o3-smallwin-k4": dict(m=128, m3=3),
    "o3-bigwin-p2": dict(m=256, m3=9),
    "o4-trispec": dict(m=32, m3=5),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def measure(wl, trace, seed=3):
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT))
    try:
        return run.run_workload(HS, wl, seed, SECONDS, trace, tmp, tiny("cli-o3-csv"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_every_metric_emitted_with_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            rec = measure(tiny(name), trace)
            assert rec["correct"], (name, trace, rec["check_problems"], rec["job_problems"])
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for k, v in rec["metrics"].items():
                assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (k, v)
            assert rec["failed"] == 0 and rec["attempted"] >= run.MIN_JOBS
            if not trace:
                got = {k: v["unit"] for k, v in rec["reported"].items()}
                assert got == run.REPORTED and rec["reported"]["fail_frac"]["value"] == 0


def test_perturbed_grid_counts_as_failed():
    real = run.library_job
    calls = []

    def perturbing(hs, wl, series, p=None):
        grid = real(hs, wl, series, p)
        calls.append(1)
        if len(calls) == 3:  # the second timed job (the first call is the warm-up)
            grid.values[len(grid.values) // 2] *= 1 + 1e-6
        return grid

    run.library_job = perturbing
    try:
        rec = measure(tiny("o4-trispec"), False)
    finally:
        run.library_job = real
    assert rec["failed"] == 1, rec["job_problems"]
    assert rec["reported"]["fail_frac"]["value"] == 1 / rec["attempted"]
    assert not rec["correct"]


def test_spans_nest_with_job_and_parent():
    for name in ("o3-smallwin-k4", "o3-bigwin-p2", "cli-o3-csv"):
        spans = measure(tiny(name), True)["spans"]
        assert spans
        by_id = {s["id"]: s for s in spans}
        assert len(by_id) == len(spans)
        for s in spans:
            assert s["job"] and s["end"] >= s["start"]
            if s["parent"] is None:
                continue
            parent = by_id[s["parent"]]
            assert parent["job"] == s["job"], (s, parent)
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s, parent)
        jobs = {s["job"] for s in spans if s["name"] == "job"}
        assert jobs and all(
            any(c["parent"] == s["id"] for c in spans)
            for s in spans if s["name"] == "job"
        )


def main() -> int:
    if HS is None:
        print("selftest: no hospectra package under src/", file=sys.stderr)
        return 2
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    try:
        for test in tests:
            test()
            print(f"ok  {test.__name__}")
    finally:
        run.stop_helper_processes()
    return 0


if __name__ == "__main__":
    sys.exit(main())
