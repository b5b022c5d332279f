"""Common kernel-estimate types.

A kernel model answers, for one op on one chip: how long do the compute
engines take, how long does instruction issue take, and how many times is
each operand read or written.  The executor combines these with the
memory hierarchy (which knows *where* each operand lives) to get the
op's latency.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class KernelEstimate:
    """Engine-side cost of one kernel invocation, chip-wide.  Frozen:
    the executor hands one instance to every op with the same kernel."""

    # Time the bottleneck compute engine is busy.
    compute_s: float = 0.0
    # Time the scalar cores need to issue the custom-instruction stream.
    issue_s: float = 0.0
    # Local Memory streaming time (operand staging inside PEs).
    local_memory_s: float = 0.0
    # How many times each operand class is transferred (tiling re-reads).
    weight_read_factor: float = 1.0
    activation_read_factor: float = 1.0
    # When True, weight reads are broadcast to PE columns in hardware:
    # the NoC carries one copy instead of one per column (section 4.2).
    broadcast_weights: bool = False
    # When True, DMA prefetch hides DRAM latency behind compute; the
    # executor applies the higher streaming efficiency.
    prefetch: bool = True
    # Which engine dominates compute (for reports).
    engine: str = "dpe"

    def __post_init__(self) -> None:
        if min(self.compute_s, self.issue_s, self.local_memory_s) < 0:
            raise ValueError("kernel times must be non-negative")
        if min(self.weight_read_factor, self.activation_read_factor) <= 0:
            raise ValueError("read/write factors must be positive")

    @property
    def engine_time_s(self) -> float:
        """Time the PE is busy regardless of memory: the slower of compute
        and instruction issue, plus any serialized Local Memory staging
        that pipelining cannot hide."""
        return max(self.compute_s, self.issue_s, self.local_memory_s)

    @property
    def issue_bound(self) -> bool:
        """Whether the scalar cores, not the engines, are the bottleneck."""
        return self.issue_s > self.compute_s
