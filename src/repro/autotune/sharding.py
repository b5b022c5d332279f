"""Model-sharding autotuning (paper section 4.1).

"To determine model sharding, we measure whether a model and its runtime
buffers exceed the size of DRAM for a single device.  If so, autotuning
automatically explores how to shard the model across multiple devices."

Sharding splits the embedding tables (90% of model size, Table 1) across
devices behind one PCIe switch; dense weights are replicated.  The plan
balances per-device bytes and respects the NUMA constraint that shards
co-locate on one socket.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.tensors.tensor import TensorKind

# Fraction of device DRAM reserved for runtime buffers (activations
# spilled from SRAM, I/O staging, code, allocator slack).
RUNTIME_RESERVE_FRACTION = 0.15


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A sharding decision: which tables land on which device."""

    num_shards: int
    table_assignment: Dict[int, int]  # tensor uid -> shard index
    bytes_per_shard: List[int]
    replicated_bytes: int  # dense weights present on every shard

    @property
    def max_shard_bytes(self) -> int:
        """Footprint of the fullest shard, including replicated weights."""
        return (max(self.bytes_per_shard) if self.bytes_per_shard else 0) + self.replicated_bytes


def required_shards(graph: OpGraph, chip: ChipSpec) -> int:
    """Minimum devices to hold the model plus runtime buffers."""
    usable = chip.dram.capacity_bytes * (1.0 - RUNTIME_RESERVE_FRACTION)
    dense = graph.weight_bytes() - graph.embedding_bytes()
    table_bytes = graph.embedding_bytes()
    if dense >= usable:
        raise ValueError(
            "dense weights alone exceed device DRAM; model cannot be served"
        )
    shards = 1
    while table_bytes / shards + dense > usable:
        shards += 1
        if shards > 64:
            raise ValueError("model too large to shard within one PCIe switch")
    return shards


def plan_sharding(graph: OpGraph, chip: ChipSpec, num_shards: int = 0) -> ShardPlan:
    """Greedy balanced assignment of embedding tables to shards.

    Tables are placed largest-first onto the least-loaded shard — the
    classic LPT heuristic, which is what production sharders use for
    table placement.
    """
    if num_shards <= 0:
        num_shards = required_shards(graph, chip)
    tables = [t for t in graph.weights() if t.kind == TensorKind.EMBEDDING]
    dense = graph.weight_bytes() - graph.embedding_bytes()
    loads = [0] * num_shards
    assignment: Dict[int, int] = {}
    for table in sorted(tables, key=lambda t: -t.num_bytes):
        shard = loads.index(min(loads))
        assignment[table.uid] = shard
        loads[shard] += table.num_bytes
    plan = ShardPlan(
        num_shards=num_shards,
        table_assignment=assignment,
        bytes_per_shard=loads,
        replicated_bytes=dense,
    )
    usable = chip.dram.capacity_bytes * (1.0 - RUNTIME_RESERVE_FRACTION)
    if plan.max_shard_bytes > usable:
        raise ValueError(
            f"shard plan overflows DRAM: {plan.max_shard_bytes} > {usable:.0f}; "
            "increase num_shards"
        )
    return plan


def shard_throughput_tax(num_shards: int) -> float:
    """Throughput multiplier for serving a model sharded across devices.

    Sharding distributes capacity, not serving: every shard still
    executes merge/remote jobs, but pooled embeddings cross the PCIe
    switch, costing ~4% of throughput per extra shard (floored — even a
    maximally sharded model keeps half its throughput).  This is the
    same tax :func:`repro.tco.model.compare_platforms` applies; the
    codesign DSE uses it for candidate chips whose DRAM forces different
    shard counts than the base design.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    return max(0.5, 1.0 - 0.04 * (num_shards - 1))
