"""Request coalescing into batches (paper section 4.1).

"To autotune request coalescing, we run experiments to identify the
optimal time window for coalescing requests and the number of windows
that can be supported in parallel.  ...  With effective autotuning, we
typically achieve >95% requests per batch" — i.e. batches leave nearly
full.

A window opens when a request arrives, admits requests until its time
budget expires or the batch fills, then emits a batch.  At most
``max_parallel_windows`` windows form concurrently; excess requests wait,
which is how an undersized window count inflates tail latency.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, active
from repro.serving.workload import Request


@dataclasses.dataclass(frozen=True)
class CoalescingConfig:
    """The two knobs the paper autotunes, plus the batch capacity."""

    window_s: float
    max_parallel_windows: int
    max_batch_samples: int

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window must be positive")
        if self.max_parallel_windows <= 0 or self.max_batch_samples <= 0:
            raise ValueError("window count and batch capacity must be positive")


@dataclasses.dataclass
class Batch:
    """A formed batch ready for device execution."""

    requests: List[Request]
    formed_at_s: float

    @property
    def samples(self) -> int:
        """Total samples across coalesced requests."""
        return sum(r.samples for r in self.requests)


@dataclasses.dataclass
class _Window:
    opened_at: float
    requests: List[Request]
    samples: int


def coalesce(
    requests: Sequence[Request],
    config: CoalescingConfig,
    registry: Optional[MetricsRegistry] = None,
) -> List[Batch]:
    """Form batches from an arrival-ordered request stream.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached, the
    coalescer reports wait-queue depth per arrival plus batch fill,
    per-request wait, and emit counts (``serving.batcher.*``); the
    formed batches are identical either way.
    """
    obs = active(registry)
    queue_depth = obs.histogram("serving.batcher.wait_queue_depth")
    ordered = sorted(requests, key=lambda r: r.arrival_s)
    open_windows: List[_Window] = []
    batches: List[Batch] = []
    waiting: List[Request] = []

    def close_expired(now: float) -> None:
        still_open = []
        for window in open_windows:
            if window.opened_at + config.window_s <= now:
                batches.append(
                    Batch(requests=window.requests, formed_at_s=window.opened_at + config.window_s)
                )
            else:
                still_open.append(window)
        open_windows[:] = still_open

    def admit(request: Request, now: float) -> bool:
        for window in open_windows:
            if window.samples + request.samples <= config.max_batch_samples:
                window.requests.append(request)
                window.samples += request.samples
                if window.samples >= config.max_batch_samples * 0.98:
                    open_windows.remove(window)
                    batches.append(Batch(requests=window.requests, formed_at_s=now))
                return True
        if len(open_windows) < config.max_parallel_windows:
            open_windows.append(
                _Window(opened_at=now, requests=[request], samples=request.samples)
            )
            return True
        return False

    for request in ordered:
        now = request.arrival_s
        queue_depth.observe(float(len(waiting)))
        close_expired(now)
        # Waiting requests re-try as windows free up.
        still_waiting = []
        for queued in waiting:
            if not admit(queued, now):
                still_waiting.append(queued)
        waiting = still_waiting
        if not admit(request, now):
            waiting.append(request)
    # Drain: close remaining windows and flush the wait queue.
    final_time = ordered[-1].arrival_s + config.window_s if ordered else 0.0
    close_expired(final_time + config.window_s)
    for queued in waiting:
        batches.append(Batch(requests=[queued], formed_at_s=final_time))
    batches = sorted(batches, key=lambda b: b.formed_at_s)
    if obs.enabled:
        fill = obs.histogram("serving.batcher.batch_fill")
        wait = obs.histogram("serving.batcher.request_wait_s")
        for batch in batches:
            fill.observe(min(1.0, batch.samples / config.max_batch_samples))
            for member in batch.requests:
                wait.observe(batch.formed_at_s - member.arrival_s)
        obs.counter("serving.batcher.requests_coalesced").inc(len(ordered))
        obs.counter("serving.batcher.batches_emitted").inc(len(batches))
    return batches


@dataclasses.dataclass(frozen=True)
class CoalescingStats:
    """Batch-formation quality metrics."""

    num_batches: int
    mean_requests_per_batch: float
    mean_fill_fraction: float  # samples / capacity
    mean_wait_s: float
    max_wait_s: float


def coalescing_stats(batches: Sequence[Batch], config: CoalescingConfig) -> CoalescingStats:
    """Summarize a batch stream (fill fraction is the paper's 'requests
    per batch' quality measure)."""
    if not batches:
        return CoalescingStats(0, 0.0, 0.0, 0.0, 0.0)
    waits = [
        batch.formed_at_s - request.arrival_s
        for batch in batches
        for request in batch.requests
    ]
    fills = [min(1.0, b.samples / config.max_batch_samples) for b in batches]
    return CoalescingStats(
        num_batches=len(batches),
        mean_requests_per_batch=sum(len(b.requests) for b in batches) / len(batches),
        mean_fill_fraction=sum(fills) / len(fills),
        mean_wait_s=sum(waits) / len(waits) if waits else 0.0,
        max_wait_s=max(waits) if waits else 0.0,
    )
