"""Command Processor (CP) and Circular Buffer model.

The CP orchestrates the fixed-function units: dependency checking,
scheduling, and tracking of custom instructions, plus arbitration of
Local Memory between the RISC-V cores and the engines.  It exposes a
hardware-managed Circular Buffer (CB) abstraction over Local Memory
(paper section 3.2): producers append tiles, consumers pop them, and the
CP tracks the dependencies so software never polls.

The CB here is a *functional* implementation — the dataflow pipeline
simulator uses it to verify that a kernel's producer/consumer schedule is
deadlock-free and to measure its steady-state occupancy.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, List


class CircularBufferError(RuntimeError):
    """Raised on CB protocol violations (overflow/underflow)."""


class CircularBuffer:
    """A bounded FIFO of tiles in Local Memory, managed by the CP."""

    def __init__(self, name: str, num_slots: int, slot_bytes: int) -> None:
        if num_slots <= 0 or slot_bytes <= 0:
            raise ValueError("slots and slot size must be positive")
        self.name = name
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        self._queue: Deque[object] = deque()
        self.max_occupancy = 0
        self.total_pushes = 0

    @property
    def occupancy(self) -> int:
        """Slots currently full."""
        return len(self._queue)

    @property
    def full(self) -> bool:
        """Whether a push would overflow."""
        return len(self._queue) >= self.num_slots

    @property
    def empty(self) -> bool:
        """Whether a pop would underflow."""
        return not self._queue

    @property
    def footprint_bytes(self) -> int:
        """Local Memory consumed by this CB."""
        return self.num_slots * self.slot_bytes

    def push(self, item: object) -> None:
        """Producer side: append a tile."""
        if self.full:
            raise CircularBufferError(f"CB {self.name!r} overflow")
        self._queue.append(item)
        self.total_pushes += 1
        self.max_occupancy = max(self.max_occupancy, len(self._queue))

    def pop(self) -> object:
        """Consumer side: remove the oldest tile."""
        if self.empty:
            raise CircularBufferError(f"CB {self.name!r} underflow")
        return self._queue.popleft()


@dataclasses.dataclass(frozen=True)
class PipelineStage:
    """One fixed-function unit in a coarse-grained PE pipeline."""

    name: str
    time_per_tile_s: float

    def __post_init__(self) -> None:
        if self.time_per_tile_s < 0:
            raise ValueError("stage time must be non-negative")


def pipeline_time(stages: List[PipelineStage], num_tiles: int) -> float:
    """Makespan of a linear dataflow pipeline over ``num_tiles`` tiles.

    Classic pipeline law: fill time (sum of stage times) plus steady-state
    time governed by the slowest stage.  This is the execution model of a
    PE's fixed-function units chained through circular buffers, which is
    why MTIA kernels approach the bottleneck engine's throughput once the
    pipeline is primed.
    """
    if num_tiles < 0:
        raise ValueError("tile count must be non-negative")
    if not stages or num_tiles == 0:
        return 0.0
    fill = sum(stage.time_per_tile_s for stage in stages)
    bottleneck = max(stage.time_per_tile_s for stage in stages)
    return fill + (num_tiles - 1) * bottleneck


def simulate_pipeline(
    stages: List[PipelineStage],
    num_tiles: int,
    cb_slots: int = 2,
) -> float:
    """Makespan of a CB-connected pipeline with *finite* buffers.

    Unlike :func:`pipeline_time`, this honours the bounded circular
    buffers between stages: a fast producer stalls when the downstream CB
    is full (it may run at most ``cb_slots`` tiles ahead of its consumer),
    which is how undersized CBs serialize a kernel.

    Computed with the standard recurrence for a flow line with finite
    inter-stage buffers: tile ``t`` on stage ``s`` starts once (a) stage
    ``s`` finished tile ``t-1``, (b) stage ``s-1`` finished tile ``t``,
    and (c) stage ``s+1`` has finished tile ``t - cb_slots`` so a slot is
    free.
    """
    if num_tiles < 0 or cb_slots <= 0:
        raise ValueError("tile count must be >= 0 and cb_slots > 0")
    if num_tiles == 0 or not stages:
        return 0.0
    num_stages = len(stages)
    finish = [[0.0] * num_tiles for _ in range(num_stages)]
    for tile in range(num_tiles):
        for s in range(num_stages):
            prev_tile_done = finish[s][tile - 1] if tile else 0.0
            upstream_done = finish[s - 1][tile] if s else 0.0
            start = max(prev_tile_done, upstream_done)
            if s + 1 < num_stages and tile >= cb_slots:
                start = max(start, finish[s + 1][tile - cb_slots])
            finish[s][tile] = start + stages[s].time_per_tile_s
    return finish[-1][-1]
