"""Model-freshness: real-time weight updates via eager mode (section 3.3).

The paper lists four reasons MTIA 2i supports PyTorch eager mode; the
fourth is that "it enables real-time weight updates, improving model
freshness."  Recommendation quality decays measurably as weights age
(new items/users appear continuously), so the path from trainer to
serving matters:

* **eager path** — updated tensors DMA straight into device memory while
  serving continues; freshness is bounded by transfer time;
* **graph-mode path** — a compiled-graph stack must re-publish: trace and
  compile the graph, validate it, snapshot weights, and swap serving
  instances — minutes, not seconds.
"""

from __future__ import annotations

import dataclasses

from repro.arch.specs import ChipSpec

# A republish on a static-graph stack: re-trace/compile, validate
# numerics, package the snapshot, and drain-swap serving instances.
GRAPH_RECOMPILE_S = 180.0
GRAPH_VALIDATION_S = 120.0
GRAPH_SWAP_S = 60.0


@dataclasses.dataclass(frozen=True)
class FreshnessReport:
    """Time from trainer weight push to updated serving, per path."""

    update_bytes: int
    eager_update_s: float
    graph_republish_s: float

    @property
    def speedup(self) -> float:
        """How much fresher eager serving is."""
        return self.graph_republish_s / self.eager_update_s if self.eager_update_s else 1.0


def weight_update_latency(
    update_bytes: int,
    chip: ChipSpec,
    compression_saved_fraction: float = 0.0,
) -> FreshnessReport:
    """Latency of shipping a weight delta to one serving device.

    The eager path streams the delta over PCIe (optionally through the
    GZIP engine) and swaps pointers between batches; the graph path pays
    the full republish pipeline regardless of delta size.
    """
    if update_bytes < 0:
        raise ValueError("update size must be non-negative")
    if not (0.0 <= compression_saved_fraction < 1.0):
        raise ValueError("saved fraction must be in [0, 1)")
    wire_bytes = update_bytes * (1.0 - compression_saved_fraction)
    transfer = chip.host_link.transfer_time(wire_bytes)
    # Pointer swap happens at a job boundary: one job-replace latency.
    eager = transfer + chip.eager.job_replace_s
    graph = GRAPH_RECOMPILE_S + GRAPH_VALIDATION_S + GRAPH_SWAP_S + transfer
    return FreshnessReport(
        update_bytes=update_bytes,
        eager_update_s=eager,
        graph_republish_s=graph,
    )


def freshness_quality_gain(update_interval_s: float) -> float:
    """Quality retained relative to perfectly fresh weights.

    A simple exponential-staleness model: prediction quality decays by
    0.2% per hour of average weight age (half the update interval).
    Used to translate update cadence into the quality terms product
    teams reason about.
    """
    if update_interval_s < 0:
        raise ValueError("interval must be non-negative")
    average_age_hours = update_interval_s / 2 / 3600.0
    return (1.0 - 0.002) ** average_age_hours
