"""Memory hierarchy: LLC cache simulation, LLS scratch allocation, and the
partitioned SRAM placement machinery (paper sections 3.6 and 4.1)."""

from repro.memory.cache import CacheStats, SetAssociativeCache, tensor_blocks
from repro.memory.hierarchy import (
    MemoryHierarchy,
    Placement,
    SramPartition,
    Traffic,
    partition_for_activations,
)
from repro.memory.scratch import BufferRequest, ScratchAllocator, plan_allocation

__all__ = [
    "BufferRequest",
    "CacheStats",
    "MemoryHierarchy",
    "Placement",
    "ScratchAllocator",
    "SetAssociativeCache",
    "SramPartition",
    "Traffic",
    "partition_for_activations",
    "plan_allocation",
    "tensor_blocks",
]
