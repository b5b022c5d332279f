"""The deterministic event queue of the serving and resilience simulators.

Every entry is a tuple ``(time_s, tiebreak, payload)`` and pop order is
the total order ``(time_s, tiebreak)`` — the payload is never compared.
Callers make ``tiebreak`` unique per engine (the default is a
monotonically increasing sequence number, i.e. FIFO among equal
timestamps — exactly the ``(time_s, seq, ...)`` heap tuples the
resilience simulator has always used, and the order the cluster tier's
own event loop keeps).  Injection-style callers
that need an argument-order-independent total order pass an explicit
tiebreak tuple built from ``repro.cluster.simulator.injection_sort_key``
semantics: ``(kind_rank, targets, magnitude, seq)``.

Runtime events live in a binary heap (``heapq``); pre-known event
populations staged with :meth:`EventEngine.schedule_batch` drain from
the end of one list sorted latest-first instead.  ``pop`` merges the
two heads, so the drain order is exactly that of one heap holding every
entry (property-tested in ``tests/test_fastsim_properties.py``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Tuple

Entry = Tuple[float, Any, Any]  # (time_s, tiebreak, payload)


class EventEngine:
    """A deterministic event queue: a binary heap plus a staged list.

    ``schedule(time_s, payload)`` assigns the next sequence number as
    the tiebreak (FIFO among equal timestamps); ``schedule(time_s,
    payload, tiebreak=...)`` pins an explicit total order.  ``pop``
    returns the full ``(time_s, tiebreak, payload)`` entry.
    """

    __slots__ = ("_heap", "_seq", "_staged")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = itertools.count()
        # Staged entries: pre-known event populations kept as one flat
        # list sorted latest-first instead of heap entries (see
        # ``schedule_batch``), so the next one is ``_staged[-1]`` and a
        # drained entry is released as it pops.  ``pop`` compares the
        # staged head with the heap head, so the drain order is
        # exactly what individual ``schedule`` calls would produce.
        self._staged: List[Entry] = []

    def schedule(
        self, time_s: float, payload: Any = None, tiebreak: Any = None
    ) -> None:
        if tiebreak is None:
            tiebreak = next(self._seq)
        heapq.heappush(self._heap, (time_s, tiebreak, payload))

    def schedule_batch(self, items) -> None:
        """Schedule many ``(time_s, payload)`` pairs in one call.

        Tiebreaks come off the same running sequence as ``schedule``,
        in iteration order — byte-identical pop order to the equivalent
        loop of ``schedule`` calls, whatever order the items arrive in.
        The batch joins the staged list: entries drain from its end
        rather than through the heap, so a simulator that stages its
        pre-known populations this way (request arrivals, fault
        schedules, probe ticks) keeps the heap down to the handful of
        in-flight runtime events, which is where the log-factor of every
        push and pop goes.  Merging a batch into the staged list is one Timsort pass
        — near-linear, since both sides are already sorted runs.
        """
        seq = self._seq
        staged = self._staged
        staged.extend((time_s, next(seq), payload) for time_s, payload in items)
        staged.sort(reverse=True)

    def pop(self) -> Entry:
        staged = self._staged
        heap = self._heap
        if staged and (not heap or staged[-1] < heap[0]):
            return staged.pop()
        return heapq.heappop(heap)  # IndexError when empty: done

    def count_due(self, time_s: float) -> int:
        """How many pending entries have ``time <= time_s`` (an O(n)
        observability probe — callers gate it on metrics being on)."""
        due = sum(1 for entry in self._heap if entry[0] <= time_s)
        due += sum(1 for entry in self._staged if entry[0] <= time_s)
        return due

    def __len__(self) -> int:
        return len(self._heap) + len(self._staged)

    def __bool__(self) -> bool:
        return bool(self._staged or self._heap)
