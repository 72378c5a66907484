"""Calibration samples, timed in a process of their own.

    python3 perfbench/calibrator.py

The child reads one line per request on stdin and answers each with the
seconds that one run of ``job`` took.  ``Calibrator`` starts it, moves it
onto the CPU the calling process is running on before every request, and
stops it on exit.

The speed of a shared VM drifts by up to 2x over tens of seconds, and a
30-second run cannot average that away, so run.py scales every timed step
by the samples taken around it.  The job runs in a process that never
imports the library, with the garbage collector off, so a sample does not
depend on what the library leaves in the benchmark's heap: objects kept
alive, fragmentation, or frozen generations.
"""
from __future__ import annotations

import ctypes
import gc
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

_sched_getcpu = ctypes.CDLL(None, use_errno=True).sched_getcpu


def job() -> float:
    """Time a fixed pure-Python job.

    Half of the work hashes small tuples in a small dict (sensitive to a
    busy sibling core), half fills and walks a large one (sensitive to
    memory contention); on its own each tracked the passes worse than the
    two together.
    """
    start = perf_counter()
    small: dict = {}
    total = 0
    for i in range(200_000):
        key = (i & 1023, i % 7)
        small[key] = small.get(key, 0) + 1
        total += len(small) if i % 3 else hash(key) & 15
    large = {(i, i & 255): (i, i) for i in range(80_000)}
    for key in large:
        total += large[key][0]
    return perf_counter() - start


class Calibrator:
    """A running calibration child; use it as a context manager."""

    def __enter__(self) -> Calibrator:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.sample()   # the first run of the job in a fresh process is slower
        return self

    def sample(self) -> float:
        """Seconds the job took, on the CPU this process is running on."""
        os.sched_setaffinity(self.proc.pid, {_sched_getcpu()})
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main() -> None:
    gc.disable()
    for _ in sys.stdin:
        print(repr(job()), flush=True)


if __name__ == "__main__":
    main()
