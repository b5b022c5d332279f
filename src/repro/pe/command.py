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
