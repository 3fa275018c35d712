"""One workload repetition, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

PLAN holds the CLI argument lists to run in order and whether to trace.
The child imports ``phantomdf.cli`` (the end of set-up), times a fixed
calibration kernel, calls ``phantomdf.cli.main`` once per command, times the
kernel again and writes exit codes, timings, calibration times, peak RSS,
versions and, when traced, the in-memory spans to RESULT.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

CALIBRATIONS = 4  # calibration kernel runs before and again after the commands


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do.

    Python float formatting (the CSV writers), numpy steps on 128-element
    rows (the Metropolis kernel) and a large sort (the max-law tables).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.random(500_000)
    row = rng.random(128)
    start = time.perf_counter()
    "\n".join("%.17g" % v for v in big[:50_000].tolist())
    x = row.copy()
    for _ in range(2_000):
        y = x + row
        x = np.where(y > 1.0, y - 1.0, y)
    np.sort(big)
    return time.perf_counter() - start


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import phantomdf.cli as cli

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready_ns = time.monotonic_ns()

    import numpy
    import scipy

    calib = [calibrate() for _ in range(CALIBRATIONS)]
    codes, errors = [], []
    start = time.perf_counter_ns()
    for argv in plan["commands"]:
        try:
            codes.append(cli.main(argv))
            errors.append(None)
        except Exception:  # a crash is a failed command, not a failed benchmark
            codes.append(None)
            errors.append(traceback.format_exc(limit=3))
    end = time.perf_counter_ns()
    calib += [calibrate() for _ in range(CALIBRATIONS)]

    result = {
        "ready_ns": ready_ns,
        "main_start_ns": start,
        "wall_ns": end - start,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "phantomdf": str(Path(cli.__file__).resolve().parent),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "calib": calib,
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
