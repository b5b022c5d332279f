"""A fixed reference computation that tracks the host's current speed.

On a shared host the same answer's host time shifts by 10-20% for
minutes at a time, and its set-up time shifts with it, so the shift is
the host's, not the answer's.  The runner times :func:`kernel` right
before and right after each worker (neither side alone is enough:
either occasionally runs slow as a whole) and reports host times at
the reference speed: measured seconds times ``NOMINAL_REF_S`` over the
measured kernel time.

The kernel is shaped like the simulator's hot paths (an LRU
set-associative lookup over tuple block ids, a heap-ordered event
loop, a little numpy) but calls nothing in ``repro`` and runs in the
runner process, which never imports it, so no change to the program
can move the reference.  Changing the kernel or ``NOMINAL_REF_S``
changes the unit: results from before and after such a change do not
compare.
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict

import numpy as np

REPEATS = 3
# The kernel's time at the reference speed, about its time on the
# 2-vCPU Xeon host the baseline was recorded on.
NOMINAL_REF_S = 0.040


def kernel() -> float:
    """The reference work; returns a checksum so nothing is elided."""
    sets = [OrderedDict() for _ in range(64)]
    hits = 0
    for i in range(40000):
        block = ((i * 2654435761) % 5003, i % 7)
        lines = sets[hash(block) % 64]
        if block in lines:
            lines.move_to_end(block)
            hits += 1
        else:
            lines[block] = True
            if len(lines) > 8:
                lines.popitem(last=False)
    heap = [(float(i), i, 0) for i in range(256)]
    heapq.heapify(heap)
    seq = 256
    now = 0.0
    for _ in range(40000):
        now, _, kind = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + 1.0 + (seq % 13) * 0.1, seq, 1 - kind))
    values = np.arange(20000, dtype=np.float64)
    for _ in range(20):
        values = np.sort(values[::-1] * 1.0001)
    return hits + now + float(values[-1])


def reference_s(repeats: int = REPEATS) -> float:
    """The fastest of ``repeats`` timed kernel runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
