"""Event records for the resilience simulator.

Every state change in the fleet — faults landing, devices degrading and
recovering, rollout waves restarting servers — is appended to an
:class:`EventLog` in simulation order.  The log is the simulator's
ground truth: tests compare two seeded runs event-for-event, the drill
example prints it as a timeline, and :mod:`repro.resilience.trace`
exports it through the Chrome-trace writer.

The simulator records plain ``(time_s, kind, device_id, detail)`` rows
through :meth:`EventLog.record`; the frozen :class:`Event` objects are
built from them on the first read and cached, so a run whose log is
only counted never builds them.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterator, List, Optional, Tuple


class EventKind(enum.Enum):
    """Everything that can happen to a device (or the pool) over time.

    Members hash by identity (they are singletons), so the dict and set
    lookups keyed on them stay in C instead of calling
    ``Enum.__hash__``.
    """

    __hash__ = object.__hash__

    # Faults, drawn from the reliability models.
    FAULT_DEADLOCK = "fault_deadlock"  # PCIe/NoC/Control-Core wedge (section 5.5)
    FAULT_ECC_UE = "fault_ecc_ue"  # detected-uncorrectable memory error (5.1)
    FAULT_SDC = "fault_sdc"  # silent corruption from thin overclock margin (5.2)
    FAULT_THROTTLE = "fault_throttle"  # power-cap throttling (5.3)
    DEGRADE_END = "degrade_end"
    # Rollout restarts.
    REBOOT_START = "reboot_start"
    REBOOT_DONE = "reboot_done"
    # Serving-tier reactions.
    SLO_AT_RISK = "slo_at_risk"
    LOAD_SHED = "load_shed"
    # Firmware rollout.
    ROLLOUT_TRIGGERED = "rollout_triggered"
    ROLLOUT_WAVE = "rollout_wave"
    ROLLOUT_DONE = "rollout_done"
    DEVICE_PATCHED = "device_patched"


@dataclasses.dataclass(frozen=True)
class Event:
    """One timestamped occurrence.

    ``device_id`` is ``None`` for pool-level events (SLO trips, rollout
    waves); ``detail`` carries small scalar context (counts, durations).
    """

    time_s: float
    kind: EventKind
    device_id: Optional[int] = None
    detail: Dict[str, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("event time must be non-negative")


class EventLog:
    """Append-only, simulation-ordered record of everything that happened."""

    def __init__(self) -> None:
        self._rows: List[Tuple[float, EventKind, Optional[int], Dict[str, float]]] = []
        self._last_s = 0.0
        # Events built from ``_rows[:len(_built)]``, extended on read.
        self._built: List[Event] = []

    def append(self, event: Event) -> None:
        """Record an event; times must be non-decreasing."""
        self.record(event.time_s, event.kind, event.device_id, event.detail)

    def record(self, time_s: float, kind: EventKind,
               device_id: Optional[int], detail: Dict[str, float]) -> None:
        """Record an event as a row, validated as :meth:`append` does."""
        if time_s < 0:
            raise ValueError("event time must be non-negative")
        if time_s < self._last_s - 1e-9:
            raise ValueError("events must be appended in time order")
        self._last_s = time_s
        self._rows.append((time_s, kind, device_id, detail))

    @property
    def _events(self) -> List[Event]:
        built = self._built
        if len(built) < len(self._rows):
            built.extend(
                Event(time_s=time_s, kind=kind, device_id=device_id,
                      detail=detail)
                for time_s, kind, device_id, detail in self._rows[len(built):]
            )
        return built

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def of_kind(self, *kinds: EventKind) -> List[Event]:
        """Events matching any of the given kinds, in order."""
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def first_of_kind(self, kind: EventKind) -> Optional[Event]:
        """Earliest event of a kind, or ``None``."""
        for event in self._events:
            if event.kind == kind:
                return event
        return None

    def to_jsonable(self) -> List[Dict]:
        """A plain-data view, suitable for equality checks and JSON dumps."""
        return [
            {
                "time_s": round(event.time_s, 6),
                "kind": event.kind.value,
                "device_id": event.device_id,
                "detail": {k: round(v, 6) for k, v in sorted(event.detail.items())},
            }
            for event in self._events
        ]

    def timeline(self) -> str:
        """A human-readable digest of the log (for the drill example): the
        first and last 20 events."""
        max_events = 40
        lines = []
        shown = self._events if len(self._events) <= max_events else (
            self._events[: max_events // 2] + self._events[-max_events // 2:]
        )
        elided = len(self._events) - len(shown)
        for event in shown:
            hours = event.time_s / 3600.0
            who = f"device {event.device_id}" if event.device_id is not None else "pool"
            extra = " ".join(f"{k}={v:g}" for k, v in sorted(event.detail.items()))
            lines.append(f"  t={hours:8.2f}h  {event.kind.value:20} {who:12} {extra}")
            if elided and event is shown[max_events // 2 - 1]:
                lines.append(f"  ... {elided} events elided ...")
        return "\n".join(lines)
