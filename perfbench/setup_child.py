"""Set-up probe, run as a fresh process with the checkout's ``src`` on
PYTHONPATH: time ``import hospectra`` plus one warm-up job.

Usage: ``python3 setup_child.py WORKLOAD_JSON INPUT OUT``, where
WORKLOAD_JSON holds the fields of a ``workloads.Workload``. INPUT is the series
as raw little-endian float64 (library workloads) or the CSV the CLI job
reads (``cli-o3-csv``); OUT is where a CLI warm-up job writes its grid.
Prints one JSON object: ``setup_s`` and ``rss_kb``, the larger of this
process's and its reaped children's ``ru_maxrss``.
"""

import json
import resource
import sys
import time

from workloads import Workload, cli_argv, library_job, stop_helper_processes


def main() -> int:
    try:
        return probe()
    finally:
        stop_helper_processes()


def probe() -> int:
    wl = Workload(**json.loads(sys.argv[1]))
    input_path, out_path = sys.argv[2], sys.argv[3]
    blob = b""
    if not wl.cli:
        with open(input_path, "rb") as fh:
            blob = fh.read()  # read before the clock: not the program's work
    t0 = time.perf_counter()
    import hospectra as hs

    if wl.cli:
        from hospectra import cli

        status = cli.main(cli_argv(wl, input_path, out_path))
        if status != 0:
            raise SystemExit(f"warm-up CLI job exited {status}")
    else:
        import numpy as np

        series = hs.TimeSeries(np.frombuffer(blob, dtype="<f8"))
        library_job(hs, wl, series)
    setup_s = time.perf_counter() - t0
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({"setup_s": setup_s, "rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
