"""Chrome-trace export of a resilience run.

Renders a :class:`~repro.resilience.metrics.ResilienceReport` as a
Perfetto / ``chrome://tracing`` timeline through the unified writer in
:mod:`repro.obs.tracing` (the same one the executor traces use):

* one lane per device that experienced an incident, with duration spans
  for its wedged/degraded/rebooting episodes;
* a pool lane carrying instant markers (SLO trip, rollout trigger,
  waves, completion) and SDC flashes;
* counter tracks for goodput fraction, wedged-device count, and
  P99-with-retries, so the section 5.5 arc is visible at a glance.

Times are exported in trace microseconds with 1 simulated second =
1 trace microsecond (a 90-day run renders as a ~7.8 s timeline).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.tracing import TraceWriter, write_trace_json

from repro.resilience.events import EventKind
from repro.resilience.metrics import ResilienceReport

_POOL_LANE = 1

# Per-device span starts keyed by the event that opens them.
_SPAN_OPENERS = {
    EventKind.FAULT_DEADLOCK: "wedged",
    EventKind.FAULT_ECC_UE: "degraded (ecc)",
    EventKind.FAULT_THROTTLE: "degraded (throttle)",
    EventKind.REBOOT_START: "rebooting",
}
_SPAN_CLOSERS = {
    EventKind.FAULT_DEADLOCK,  # a degraded device can still wedge
    EventKind.DEGRADE_END,
    EventKind.REBOOT_START,
    EventKind.REBOOT_DONE,
}
_POOL_MARKERS = {
    EventKind.SLO_AT_RISK,
    EventKind.LOAD_SHED,
    EventKind.ROLLOUT_TRIGGERED,
    EventKind.ROLLOUT_WAVE,
    EventKind.ROLLOUT_DONE,
}


def to_resilience_trace(report: ResilienceReport) -> Dict:
    """Build the Chrome trace-event document for one run."""
    writer = TraceWriter(
        f"resilience: {report.num_devices} devices, seed {report.seed}"
    )
    writer.lane("pool", tid=_POOL_LANE)
    open_span: Dict[int, Optional[Dict]] = {}

    def lane_for(device_id: int) -> int:
        return writer.lane(f"device {device_id}", tid=_POOL_LANE + 1 + device_id)

    def close_span(device_id: int, now_s: float) -> None:
        span = open_span.get(device_id)
        if span is None:
            return
        writer.complete(
            name=span["name"],
            cat="device_state",
            ts=round(span["start_s"], 6),
            dur=round(max(0.0, now_s - span["start_s"]), 6),
            tid=lane_for(device_id),
            args=span["args"],
        )
        open_span[device_id] = None

    for event in report.events:
        if event.device_id is None:
            if event.kind in _POOL_MARKERS:
                writer.instant(
                    name=event.kind.value,
                    cat="pool",
                    scope="g",
                    ts=round(event.time_s, 6),
                    tid=_POOL_LANE,
                    args=dict(event.detail),
                )
            continue
        device_id = event.device_id
        if event.kind == EventKind.FAULT_SDC:
            writer.instant(
                name="sdc",
                cat="fault",
                scope="t",
                ts=round(event.time_s, 6),
                tid=lane_for(device_id),
                args=dict(event.detail),
            )
            continue
        if event.kind in _SPAN_CLOSERS:
            close_span(device_id, event.time_s)
        if event.kind in _SPAN_OPENERS:
            # Re-opening over an existing span (e.g. a second throttle
            # while degraded) just extends it.
            if open_span.get(device_id) is None:
                open_span[device_id] = {
                    "name": _SPAN_OPENERS[event.kind],
                    "start_s": event.time_s,
                    "args": dict(event.detail),
                }
    for device_id in list(open_span):
        close_span(device_id, report.duration_s)

    for metrics in report.intervals:
        ts = round(metrics.time_s, 6)
        writer.counter(
            "goodput_fraction", ts,
            {"goodput": round(metrics.goodput_fraction, 4)},
        )
        writer.counter("wedged_devices", ts, {"wedged": metrics.wedged})
        writer.counter(
            "p99_latency_ms", ts,
            {"p99": round(metrics.p99_latency_s * 1e3, 3)},
        )

    return writer.document(
        other_data={
            "devices": report.num_devices,
            "duration_s": report.duration_s,
            "seed": report.seed,
            "offered_samples_per_s": report.offered_samples_per_s,
            "min_goodput_fraction": round(report.min_goodput_fraction, 4),
            "final_goodput_fraction": round(report.final_goodput_fraction, 4),
            "unavailability_device_minutes": round(
                report.unavailability_device_minutes, 1
            ),
        },
    )


def write_resilience_trace(report: ResilienceReport, path: str) -> None:
    """Write the resilience timeline to ``path`` (1 sim second = 1 us)."""
    write_trace_json(to_resilience_trace(report), path)
