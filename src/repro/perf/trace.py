"""Execution-trace export in Chrome trace-event format.

Turns an :class:`ExecutionReport` into a ``chrome://tracing`` /
Perfetto-compatible JSON timeline: one lane for the dominant engine of
each op, with the per-level memory times attached as arguments.  This is
the profiling view performance engineers use to see where a model's
batch time goes — the same workflow the paper's co-design loop ran on
real hardware traces.

The document itself is assembled by the unified writer in
:mod:`repro.obs.tracing` (shared with the fleet-resilience timeline).
"""

from __future__ import annotations

from typing import Dict

from repro.obs.tracing import TraceWriter, write_trace_json
from repro.perf.executor import ExecutionReport

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "summarize_trace",
]

# Lane assignment: group ops by their bottleneck resource.
_LANES = {
    "compute": 1,
    "issue": 2,
    "local_memory": 3,
    "sram": 4,
    "dram": 5,
    "noc": 6,
    "host": 7,
}


def to_chrome_trace(report: ExecutionReport) -> Dict:
    """Build a Chrome trace-event JSON object from a report.

    Ops are laid out back-to-back on the wall-clock track (the executor's
    schedule is sequential at op granularity); each event carries the
    cost breakdown so hovering shows why the op took that long.
    """
    writer = TraceWriter(f"{report.chip_name}: {report.model_name}")
    for label, tid in _LANES.items():
        writer.lane(f"bottleneck: {label}", tid=tid)
    cursor_us = 0.0
    for index, profile in enumerate(report.op_profiles):
        duration_us = profile.time_s * 1e6
        writer.complete(
            name=profile.op_name,
            cat=profile.op_type,
            ts=round(cursor_us, 3),
            dur=round(duration_us, 3),
            tid=_LANES.get(profile.bottleneck, 0),
            args={
                "bottleneck": profile.bottleneck,
                "compute_us": round(profile.compute_s * 1e6, 3),
                "issue_us": round(profile.issue_s * 1e6, 3),
                "dram_us": round(profile.dram_s * 1e6, 3),
                "sram_us": round(profile.sram_s * 1e6, 3),
                "noc_us": round(profile.noc_s * 1e6, 3),
                "host_us": round(profile.host_s * 1e6, 3),
                "launch_us": round(profile.launch_s * 1e6, 3),
                "dram_bytes": int(profile.dram_bytes),
                "flops": profile.flops,
                "schedule_index": index,
            },
        )
        cursor_us += duration_us
    return writer.document(
        other_data={
            "chip": report.chip_name,
            "model": report.model_name,
            "batch": report.batch,
            "latency_us": round(report.latency_s * 1e6, 3),
            "throughput_samples_per_s": round(report.throughput_samples_per_s, 1),
            "dense_hit_rate": round(report.dense_hit_rate, 4),
            "sparse_hit_rate": round(report.sparse_hit_rate, 4),
        },
    )


def write_chrome_trace(report: ExecutionReport, path: str) -> None:
    """Write the trace JSON to ``path`` (open it in Perfetto or
    chrome://tracing)."""
    write_trace_json(to_chrome_trace(report), path)


def summarize_trace(report: ExecutionReport, top: int = 5) -> str:
    """A text digest: total time, bottleneck shares, and the costliest ops."""
    lines = [
        f"{report.model_name} on {report.chip_name}: "
        f"{report.latency_s * 1e3:.3f} ms/batch "
        f"({report.throughput_samples_per_s:,.0f} samples/s)",
        "bottleneck shares: "
        + ", ".join(
            f"{name}={share:.0%}"
            for name, share in sorted(
                report.bottleneck_histogram().items(), key=lambda kv: -kv[1]
            )
        ),
        f"top {top} ops by time:",
    ]
    ranked = sorted(report.op_profiles, key=lambda p: -p.time_s)[:top]
    for profile in ranked:
        lines.append(
            f"  {profile.op_name:32} {profile.time_s * 1e6:10.1f} us "
            f"[{profile.bottleneck}]"
        )
    return "\n".join(lines)
