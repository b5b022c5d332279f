"""Multi-model server co-location (paper section 3.4).

A Grand Teton MTIA server runs many model instances at once: the cluster
manager grants each one or more accelerators plus proportional host
resources.  Dense packing amortizes platform cost but makes *host DRAM
bandwidth* the shared bottleneck when low-complexity models occupy all
24 accelerators — the contention this module resolves.

Given per-model execution reports and instance counts, the simulator
allocates accelerators NUMA-aware, sums each socket's host-DRAM demand,
and derates every instance on an oversubscribed socket proportionally
(host DRAM is consumed by NIC receive, staging copies, and DMA reads of
every batch's inputs/outputs).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.arch.server import ServerSpec
from repro.arch.specs import ChipSpec
from repro.fleet.allocator import NumaAllocator
from repro.fleet.server_sim import (
    HOST_BASELINE_FRACTION,
    HOST_DRAM_AMPLIFICATION_OPTIMIZED,
)
from repro.perf.executor import ExecutionReport


@dataclasses.dataclass(frozen=True)
class ColocationRequest:
    """One model to place on the server."""

    name: str
    report: ExecutionReport  # per-chip execution report
    instances: int  # model instances to run
    accelerators_per_instance: int = 1

    def __post_init__(self) -> None:
        if self.instances <= 0 or self.accelerators_per_instance <= 0:
            raise ValueError("instances and accelerators must be positive")


@dataclasses.dataclass(frozen=True)
class PlacedModel:
    """One placed instance after contention resolution."""

    name: str
    socket: int
    accelerator_ids: Tuple[int, ...]
    standalone_throughput: float  # samples/s without contention
    effective_throughput: float  # after host-DRAM derating

    @property
    def derate(self) -> float:
        """Throughput retained under contention (<= 1)."""
        if self.standalone_throughput == 0:
            return 1.0
        return self.effective_throughput / self.standalone_throughput


@dataclasses.dataclass
class ColocationResult:
    """The server's resolved allocation."""

    placements: List[PlacedModel]
    socket_demand_bytes_per_s: Dict[int, float]
    socket_capacity_bytes_per_s: float

    def socket_derate(self, socket: int) -> float:
        """Throughput scale applied to a socket's instances."""
        demand = self.socket_demand_bytes_per_s.get(socket, 0.0)
        if demand <= self.socket_capacity_bytes_per_s:
            return 1.0
        return self.socket_capacity_bytes_per_s / demand

    @property
    def host_bound_sockets(self) -> List[int]:
        """Sockets where host DRAM limits the accelerators."""
        return [
            socket
            for socket, demand in self.socket_demand_bytes_per_s.items()
            if demand > self.socket_capacity_bytes_per_s
        ]


def _host_bytes_per_batch(report: ExecutionReport, chip: ChipSpec) -> float:
    return sum(p.host_s for p in report.op_profiles) * chip.host_link.bandwidth_bytes_per_s


def colocate(
    server: ServerSpec,
    requests: Sequence[ColocationRequest],
    amplification: float = HOST_DRAM_AMPLIFICATION_OPTIMIZED,
) -> ColocationResult:
    """Place model instances on the server and resolve host contention.

    Placement is NUMA-aware (each instance's accelerators co-locate on a
    socket); instances on an oversubscribed socket are derated by the
    socket's demand/capacity ratio — the fair outcome of a saturated
    memory controller.
    """
    allocator = NumaAllocator(server)
    placements: List[PlacedModel] = []
    demand: Dict[int, float] = {}
    for request in requests:
        per_batch_bytes = _host_bytes_per_batch(request.report, server.chip)
        batches_per_s = (
            request.report.throughput_samples_per_s / request.report.batch
            if request.report.batch
            else 0.0
        )
        for _ in range(request.instances):
            grant = allocator.allocate(request.name, request.accelerators_per_instance)
            demand[grant.socket] = demand.get(grant.socket, 0.0) + (
                batches_per_s * per_batch_bytes * amplification
            )
            placements.append(
                PlacedModel(
                    name=request.name,
                    socket=grant.socket,
                    accelerator_ids=grant.accelerator_ids,
                    standalone_throughput=request.report.throughput_samples_per_s,
                    effective_throughput=request.report.throughput_samples_per_s,
                )
            )
    capacity = server.sockets[0].dram_bandwidth_bytes_per_s * (1 - HOST_BASELINE_FRACTION)
    result = ColocationResult(
        placements=placements,
        socket_demand_bytes_per_s=demand,
        socket_capacity_bytes_per_s=capacity,
    )
    # Apply per-socket derating.
    resolved = [
        dataclasses.replace(
            placement,
            effective_throughput=placement.standalone_throughput
            * result.socket_derate(placement.socket),
        )
        for placement in placements
    ]
    result.placements = resolved
    return result
