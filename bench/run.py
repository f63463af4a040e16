"""Benchmark of wignerlab's user workloads: verify, scan, classify, selftest.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

One run builds the workload's inputs from --seed (inputs.py), loads
every map from its JSON descriptor as ``wignerlab verify|classify``
does, and makes a fixed number of passes over the workload's
operations, each a call into the public API followed by the JSON
emission of its report.  Every report is checked (checks.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every figure
with its unit, and the run's metadata.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1
the passes alternate between untraced and traced, and the metrics are
the per-layer figures of the traced passes (spans.py).  Times are in
reference seconds (calibration.py).

The pass count depends on --seconds and on a nominal pass time per
workload, never on how fast the program is, so a run always does the
same work and reports the same percentiles.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line.  Loads numpy, so call pin_threads() first."""
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_threads() -> int:
    """Use nproc threads in the verifier and in BLAS, and never more.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ["WIGNERLAB_THREADS"] = str(nproc)
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import wignerlab from this checkout's src/, and from nowhere else."""
    if not (SRC / "wignerlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no wignerlab package in {SRC}")
    sys.path.insert(0, str(SRC))
    import wignerlab.cli  # everything the wignerlab command loads

    if SRC not in Path(wignerlab.__file__).resolve().parents:
        raise SystemExit(f"error: wignerlab was imported from {wignerlab.__file__}")
    return wignerlab


def main(argv=None) -> int:
    nproc = pin_threads()
    args = parse_args(argv)
    import_package()
    import harness  # loads numpy, so only after the thread pins

    return harness.run(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
