"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics for ``--seconds`` seconds; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit, the run's environment and its failures.

BLAS, OpenMP and dgcn's own worker pool are pinned to one thread before
numpy is imported.  Exit status 2 means dgcn could not be loaded from this
checkout; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "DGCN_THREADS": "1",
}

WORKLOAD_NAMES = ("fit-minibatch", "fit-fullbatch", "predict-knn", "forecast-rolling")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were set")
    os.environ.update(THREAD_PINS)
    try:
        import harness
    except ImportError as exc:
        print(f"cannot load dgcn from this checkout: {exc}", file=sys.stderr)
        return 2
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for line in harness.report_lines(result):
        print(line)
    print(json.dumps(result.final()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
