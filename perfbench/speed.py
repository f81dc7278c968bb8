"""The machine's momentary speed, read from a fixed reference kernel.

On a shared host the same code runs up to 1.7x slower while a neighbour
loads the core, for seconds to minutes at a time and with no steal time
reported, so a raw wall time measures the neighbours as much as the
program.  The benchmark therefore times a small, fixed kernel (pure-Python
loops and small numpy gathers, the mix agroups runs, but none of its code)
right before and after every piece of work (or, with ``Sampler``, all
through a piece that runs in worker processes), and scales the piece's
time by ``REFERENCE_S`` over the kernel's time: the result is the piece's
time at the reference speed.  The kernel never changes with the program,
so a change to agroups moves the scaled times in the same proportion as
it moves raw ones.
"""

from __future__ import annotations

import itertools
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# The kernel's time on an idle core of the machine the benchmark was written
# on (2-CPU Xeon VM, Python 3.11).  It only sets the unit of the scaled
# times; any constant gives the same ratios between two commits.
REFERENCE_S = 3.4e-4

SAMPLES = 3

_N = 48
_TABLE = np.array([[(i * 7 + j * 13 + i * j) % _N for j in range(_N)] for i in range(_N)],
                  dtype=np.int32)


def kernel() -> int:
    acc = 0
    for x in range(_N):
        row = _TABLE[x]
        acc += int(row[_TABLE[:, x]].sum())
        acc += len(set(row.tolist()))
        acc += sum(1 for y in row.tolist() if y & 1)
    return acc


def probe() -> float:
    """Kernel seconds now, on the current CPU: the median of SAMPLES passes."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """A separate process that reads the kernel every INTERVAL_S seconds on
    each of CPUS in turn, for work that runs in scan workers on all of them
    while this process only waits.  The sampler sleeps between readings, so
    it takes about 2 % of one CPU from the workers."""

    INTERVAL_S = 0.05

    def __init__(self, cpus: list[int], path: Path):
        self.cpus, self.path = cpus, path

    def __enter__(self) -> "Sampler":
        self.path.write_text("")
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.path), *map(str, self.cpus)],
            stdin=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def readings(self, start: float, end: float) -> list[float]:
        """Kernel seconds read between two `time.monotonic()` instants."""
        out = []
        for line in self.path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and start <= float(fields[0]) <= end:
                out.append(float(fields[1]))
        return out


def _sample_forever(path: Path, cpus: list[int]) -> None:
    with path.open("a") as out:
        for i in itertools.count():
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            at = time.monotonic()
            out.write(f"{at} {probe()}\n")
            out.flush()
            time.sleep(Sampler.INTERVAL_S)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    _sample_forever(Path(sys.argv[1]), [int(c) for c in sys.argv[2:]])
