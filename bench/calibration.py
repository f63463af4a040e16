"""Machine-speed calibration, so that timings hold still on a shared machine.

On a shared virtual machine the time a piece of work takes changes by
tens of percent over tens of seconds, as other guests come and go, in
two ways: the host runs the machine's CPUs more slowly, and it takes
them away for a while (steal time).  The benchmark corrects for both
over each stretch of work, such as one pass over a workload's
operations, without running anything alongside the program.

For the first, a stretch is scaled by a short fixed kernel.  One
sampling process per CPU, pinned to it, waits on a pipe; before,
between and after the stretch's operations, while the program is idle,
each in turn runs the kernel a few times and reports the median.  The
stretch is scaled by the mean of these samples: a single sample is too
noisy to scale one operation by.  The kernel is what the package spends
its time on: Python calls into numpy on small complex vectors; it never
calls the package.  Its median leaves out runs that the host
interrupted, so it misses steal.

For the second, the stretch's time is cut by the share of the CPUs'
time that the host gave to other guests during it, read from
/proc/stat.  A scaled time reads in reference seconds: the time the
work would take on a machine that is never taken away and runs the
kernel in REFERENCE_S.

The program's own load still shows in both: after work on every CPU the
kernel runs a few percent slower, and the steal share is higher, than
after work on one.  A change to the number of threads the program uses
is therefore understated in scaled time; compare the unscaled wall
time, which every run prints.

Set-up is mostly process start and imports, whose speed swings apart
from the kernel's.  It is scaled instead by a fresh interpreter that
imports numpy alone, run just before and just after (setup_probe.py).

Run as a script with a CPU number, this module is one sampling process.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

ROUNDS = 50
RUNS_PER_SAMPLE = 9
# a stretch of work takes a sample after an operation once this long has
# passed since its last one
SAMPLE_GAP_S = 0.1
# median seconds of the kernel on the reference machine (2 vCPUs,
# Python 3.11.7, numpy 2.4.6), so that reference seconds read close to
# wall-clock seconds there
REFERENCE_S = 7.0e-4
# seconds a fresh interpreter takes to import numpy on that machine
REFERENCE_IMPORT_S = 0.085

_rng = np.random.default_rng(20230509)
_START = _rng.standard_normal(8) + 1j * _rng.standard_normal(8)
_MATRIX = (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))) / 4.0


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = time.perf_counter()
    v = _START
    for _ in range(ROUNDS):
        w = _MATRIX @ v
        w = w / np.sqrt(np.vdot(w, w).real)
        k = int(np.argmax(np.abs(w) > 1e-12))
        v = w * (w[k].conjugate() / abs(w[k]))
    return time.perf_counter() - t0


class Calibrator:
    """The sampling processes, one per CPU; a context manager that stops them."""

    def __enter__(self) -> "Calibrator":
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self._procs = []
        for cpu in sorted(os.sched_getaffinity(0)):
            self._procs.append(subprocess.Popen(
                [sys.executable, __file__, str(cpu)], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def sample(self) -> float:
        """Mean over the CPUs of the kernel's median seconds, one CPU at a time."""
        seconds = []
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration process ended with {proc.wait()}")
            seconds.append(float(line))
        return statistics.fmean(seconds)


def cpu_times() -> tuple[int, int]:
    """Steal and total time of all CPUs since boot, in clock ticks."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


class Stretch:
    """Kernel samples and steal time of one stretch of work; the samples
    are taken before, between and after its operations."""

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrator = calibrator
        self._samples = []
        self._take()
        self._cpu_times = cpu_times()

    def _take(self) -> None:
        self._samples.append(self._calibrator.sample())
        self._last = time.perf_counter()

    def between(self) -> None:
        """Call after each operation."""
        if time.perf_counter() - self._last >= SAMPLE_GAP_S:
            self._take()

    def close(self) -> float:
        """Take the last sample; the factor turning the stretch's seconds
        into reference seconds."""
        steal, total = (b - a for a, b in zip(self._cpu_times, cpu_times()))
        self._take()
        kept = 1.0 - steal / total if total > 0 else 1.0
        return kept * REFERENCE_S / statistics.fmean(self._samples)


def _serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        print(repr(statistics.median(kernel_s() for _ in range(RUNS_PER_SAMPLE))), flush=True)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
