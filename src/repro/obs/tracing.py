"""Unified Chrome trace-event writer.

One builder for every timeline the reproduction emits.  Before this
module existed, :mod:`repro.perf.trace` (executor op timelines) and
:mod:`repro.resilience.trace` (fleet incident timelines) each assembled
raw trace-event dicts by hand; both now go through :class:`TraceWriter`,
which owns the two invariants the Chrome trace-event spec cares
about:

* every event carries ``ph``, ``ts``, and ``pid`` (and ``tid`` for
  lane-scoped events);
* lane naming goes through ``M``-phase metadata records emitted ahead
  of the data events.

The writer is deliberately byte-compatible with the documents the two
legacy builders produced: field order inside each event dict is fixed,
so a seeded run serialises to the identical JSON file through the new
path (pinned by regression tests).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = [
    "TraceError",
    "TraceWriter",
    "trace_metadata",
    "write_trace_json",
]


class TraceError(RuntimeError):
    """A malformed timeline: one lane label bound to two tids."""


def trace_metadata(process_name: str, lanes: Dict[str, int], pid: int = 0) -> List[Dict]:
    """Chrome-trace metadata events naming a process and its lanes.

    Any timeline that wants to render in Perfetto builds its lane naming
    through this helper (directly or via :class:`TraceWriter`).
    """
    metadata: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": process_name}}
    ]
    metadata.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }
        for label, tid in lanes.items()
    )
    return metadata


def write_trace_json(document: Dict, path: str) -> None:
    """Write any Chrome trace-event document to ``path``."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


class TraceWriter:
    """Builds one process's Chrome trace-event document.

    Lanes (Chrome "threads") are registered with :meth:`lane`, events
    are appended with :meth:`complete` / :meth:`instant` /
    :meth:`counter` / :meth:`begin` + :meth:`end`, and the finished
    document comes out of :meth:`document` with the lane-naming
    metadata prepended.
    """

    def __init__(self, process_name: str, pid: int = 0) -> None:
        self.process_name = process_name
        self.pid = pid
        self._lanes: Dict[str, int] = {}
        self._events: List[Dict] = []

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------

    def lane(self, label: str, tid: Optional[int] = None) -> int:
        """Register (or look up) a named lane; returns its ``tid``.

        Without an explicit ``tid``, lanes are numbered 1, 2, ... in
        registration order.
        """
        existing = self._lanes.get(label)
        if existing is not None:
            if tid is not None and tid != existing:
                raise TraceError(
                    f"lane {label!r} already registered as tid {existing}"
                )
            return existing
        if tid is None:
            tid = max(self._lanes.values(), default=0) + 1
        self._lanes[label] = tid
        return tid

    @property
    def lanes(self) -> Dict[str, int]:
        """Label -> tid, in registration order."""
        return dict(self._lanes)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def complete(self, name: str, ts: float, dur: float, tid: int,
                 cat: str = "span", args: Optional[Dict] = None) -> None:
        """A complete (``ph: X``) duration event."""
        self._events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": self.pid,
                "tid": tid,
                "args": args if args is not None else {},
            }
        )

    def instant(self, name: str, ts: float, tid: int, cat: str = "instant",
                scope: str = "g", args: Optional[Dict] = None) -> None:
        """An instant (``ph: i``) marker; ``scope`` is g/p/t."""
        self._events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": scope,
                "ts": ts,
                "pid": self.pid,
                "tid": tid,
                "args": args if args is not None else {},
            }
        )

    def counter(self, name: str, ts: float, values: Dict[str, float]) -> None:
        """A counter (``ph: C``) sample; one track per ``values`` key."""
        self._events.append(
            {"name": name, "ph": "C", "ts": ts, "pid": self.pid,
             "args": dict(values)}
        )

    @property
    def events(self) -> List[Dict]:
        """The data events appended so far (no metadata)."""
        return list(self._events)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def document(self, other_data: Optional[Dict] = None) -> Dict:
        """The finished trace document (metadata first, then events)."""
        document: Dict = {
            "traceEvents": trace_metadata(self.process_name, self._lanes,
                                          pid=self.pid) + self._events,
            "displayTimeUnit": "ms",
        }
        if other_data is not None:
            document["otherData"] = other_data
        return document

    def write(self, path: str, other_data: Optional[Dict] = None) -> None:
        """Serialise the document to ``path``."""
        write_trace_json(self.document(other_data), path)
