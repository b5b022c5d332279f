"""Multi-host capacity pool: where replicas physically land.

One :class:`~repro.fleet.allocator.NumaAllocator` governs one server;
the cluster tier owns many servers.  :class:`HostPool` wraps a rack of
them and hands out replica grants first-fit (each grant still lands on a
single socket, per the NUMA constraint), releases them on scale-down,
and aggregates the fragmentation accounting — the quantity capacity
planning actually cares about, because a rack can be "30% free" and
still unable to place one more 12-accelerator sharded replica.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.arch.server import ServerSpec
from repro.fleet.allocator import (
    Allocation,
    AllocationError,
    FragmentationStats,
    NumaAllocator,
)


@dataclasses.dataclass(frozen=True)
class ReplicaGrant:
    """One replica's physical placement: a host and its allocation."""

    host_id: int
    allocation: Allocation


def _default_server() -> ServerSpec:
    from repro.arch import mtia2i_server

    return mtia2i_server()


class HostPool:
    """A rack of accelerator servers the autoscaler draws from."""

    def __init__(
        self,
        num_hosts: int,
    ) -> None:
        if num_hosts <= 0:
            raise ValueError("pool needs at least one host")
        self._allocators: List[NumaAllocator] = [
            NumaAllocator(_default_server()) for _ in range(num_hosts)
        ]

    @property
    def num_hosts(self) -> int:
        return len(self._allocators)

    def acquire(self, model_name: str, accelerators: int) -> ReplicaGrant:
        """Place one replica first-fit across hosts (NUMA-aware within)."""
        for host_id, allocator in enumerate(self._allocators):
            try:
                allocation = allocator.allocate(model_name, accelerators)
            except AllocationError:
                continue
            return ReplicaGrant(host_id=host_id, allocation=allocation)
        raise AllocationError(
            f"{model_name}: no host can place {accelerators} accelerators "
            f"(pool of {self.num_hosts} hosts, "
            f"{self.free_accelerators()} free but fragmented)"
        )

    def release(self, grant: ReplicaGrant) -> None:
        """Return a replica's accelerators to its host."""
        self._allocators[grant.host_id].release(grant.allocation)

    def free_accelerators(self) -> int:
        """Unallocated accelerators across the whole pool."""
        return sum(a.free_accelerators() for a in self._allocators)

    def utilization(self) -> float:
        """Allocated fraction of the pool's accelerators."""
        total = sum(
            a.server.accelerators_per_server for a in self._allocators
        )
        return (total - self.free_accelerators()) / total

    def hosts_in_use(self) -> int:
        """Hosts carrying at least one allocation."""
        return sum(1 for a in self._allocators if a.allocations)

    def fragmentation_stats(self, request_size: int = 1) -> FragmentationStats:
        """Pool-wide fragmentation: sockets are the placement unit."""
        if request_size <= 0:
            raise ValueError("probe request size must be positive")
        per_socket = [
            free
            for allocator in self._allocators
            for free in allocator.free_by_socket()
        ]
        free_total = sum(per_socket)
        largest = max(per_socket, default=0)
        return FragmentationStats(
            free_total=free_total,
            largest_socket_free=largest,
            fragmentation=1.0 - largest / free_total if free_total else 0.0,
            request_size=request_size,
            unplaceable_free=sum(f for f in per_socket if f < request_size),
        )
