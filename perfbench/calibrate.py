"""Host-speed calibration: a small fixed kernel sampled while ops run.

On a shared virtual machine the same op can take half again as long, or
more, from one minute to the next: the CPU is slowed by load the guest
cannot see (no steal time is reported, and CPU time grows with wall
time).  Speed also changes within a single op.  So while an op runs, a
profiling timer interrupts it every :data:`INTERVAL_S` of CPU time and
runs :func:`kernel`, a fixed piece of pure-Python work, timing it.  The
mean kernel time over the op says how fast the host was during the op,
and the op's time multiplied by ``REFERENCE_S / mean`` is its time on a
host of fixed speed.  The kernel's own time is not part of the op's.

The kernel walks a fixed graph (tuple indexing, byte flags, a queue in a
preallocated list).  It allocates no container, so it never sets off the
garbage collector inside the op, and it runs none of the program's code,
so no change to the program moves it.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import statistics
import time
from typing import List

#: Seconds :func:`kernel` takes inside an op at the reference host speed,
#: the speed that scaled times are expressed in (about that of a 2.1 GHz
#: Xeon vCPU in a quiet phase, with CPython 3.11).  Inside an op it takes
#: about twice as long as run on its own, because the op has pushed its
#: data out of the CPU caches.
REFERENCE_S = 0.003
#: CPU time between two kernel runs while an op runs, seconds.
INTERVAL_S = 0.05
#: Kernel runs an op gets at least (the missing ones run right after it).
MIN_RUNS = 5

_NODES = 6000
_rng = random.Random(5)
_ADJACENCY = [tuple(_rng.randrange(_NODES) for _ in range(4)) for _ in range(_NODES)]
_SEEN = bytearray(_NODES)
_QUEUE = [0] * _NODES
_CLEAR = bytes(_NODES)


def kernel() -> int:
    """A breadth-first walk over a fixed random graph; returns the number
    of nodes reached, so it cannot be skipped."""
    seen, adjacency, queue = _SEEN, _ADJACENCY, _QUEUE
    seen[:] = _CLEAR
    seen[0] = 1
    head, tail = 0, 1
    while head < tail:
        node = queue[head]
        head += 1
        for neighbor in adjacency[node]:
            if not seen[neighbor]:
                seen[neighbor] = 1
                queue[tail] = neighbor
                tail += 1
    return tail


def measure() -> float:
    """Seconds one run of :func:`kernel` takes now (garbage collector off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs :func:`kernel` every :data:`INTERVAL_S` of CPU time while active.

    Uses ``SIGPROF`` and ``ITIMER_PROF``, so only in the main thread; the
    per-op watchdog uses ``SIGALRM`` and does not interfere.
    """

    def __init__(self) -> None:
        self.runs: List[float] = []
        self._previous = None

    def _run(self, signum, frame) -> None:
        self.runs.append(measure())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._run)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def spent(self) -> float:
        """Seconds spent in kernel runs so far, to leave out of the op's time."""
        return sum(self.runs)

    def kernel_s(self) -> float:
        """Mean kernel time, after topping up to :data:`MIN_RUNS` runs."""
        while len(self.runs) < MIN_RUNS:
            self.runs.append(measure())
        return statistics.fmean(self.runs)


def pin_to_one_cpu() -> None:
    """Keep this process (and the children it forks) on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
