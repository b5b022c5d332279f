"""Command Processor (CP) pipeline model.

The CP orchestrates the fixed-function units: dependency checking,
scheduling, and tracking of custom instructions, plus arbitration of
Local Memory between the RISC-V cores and the engines.  It exposes a
hardware-managed Circular Buffer (CB) abstraction over Local Memory
(paper section 3.2): producers append tiles, consumers pop them, and the
CP tracks the dependencies so software never polls.  The engines chained
through CBs form a dataflow pipeline, priced here.
"""

from __future__ import annotations

import dataclasses
from typing import List


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
