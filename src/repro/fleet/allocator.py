"""NUMA-aware accelerator allocation (paper section 3.4).

The container management system allocates accelerators to models at the
granularity of one or more accelerators, along with proportional CPU
cores, host DRAM, and NIC bandwidth.  Scheduling is NUMA-aware: sharded
models land on modules behind the same PCIe switch so peer-to-peer
traffic never crosses sockets.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.arch.server import ServerSpec


class AllocationError(RuntimeError):
    """Raised when a request cannot be placed."""


@dataclasses.dataclass(frozen=True)
class FragmentationStats:
    """How usable the free accelerators are for NUMA-constrained grants.

    Because sharded grants must land on one socket, free capacity that is
    spread thinly across sockets can be unusable for a large request even
    when the total free count looks sufficient.  ``fragmentation`` is
    ``1 - largest_socket_free / free_total`` (0 when one socket holds all
    the free capacity, approaching 1 as it scatters);
    ``unplaceable_free`` counts free accelerators stranded on sockets
    whose free block is smaller than the probe ``request_size``.
    """

    free_total: int
    largest_socket_free: int
    fragmentation: float
    request_size: int
    unplaceable_free: int

    @property
    def placeable(self) -> bool:
        """Whether a ``request_size`` grant can currently be placed."""
        return self.largest_socket_free >= self.request_size


@dataclasses.dataclass(frozen=True)
class Allocation:
    """A model instance's accelerator grant."""

    model_name: str
    socket: int
    accelerator_ids: Tuple[int, ...]
    cores: float
    host_dram_bytes: float
    nic_bytes_per_s: float


class NumaAllocator:
    """Tracks accelerator assignment across a server's sockets."""

    def __init__(self, server: ServerSpec) -> None:
        self.server = server
        per_socket = server.accelerators_per_socket
        self._free: List[List[int]] = [
            list(range(s * per_socket, (s + 1) * per_socket))
            for s in range(len(server.sockets))
        ]
        self.allocations: List[Allocation] = []

    def free_accelerators(self) -> int:
        """Count of unallocated accelerators."""
        return sum(len(f) for f in self._free)

    def allocate(self, model_name: str, num_accelerators: int) -> Allocation:
        """Grant ``num_accelerators`` on a single socket (NUMA-aware).

        Sharded models must be co-located behind one PCIe switch; a
        request larger than one socket's capacity is rejected, matching
        the production constraint.
        """
        if num_accelerators <= 0:
            raise ValueError("must request at least one accelerator")
        per_socket = self.server.accelerators_per_socket
        if num_accelerators > per_socket:
            raise AllocationError(
                f"{model_name}: {num_accelerators} accelerators exceed one "
                f"socket's {per_socket}; cross-socket sharding is not allowed"
            )
        # Best-fit: pick the socket with the least free capacity that fits,
        # keeping large contiguous capacity available.
        candidates = [
            (len(free), s) for s, free in enumerate(self._free) if len(free) >= num_accelerators
        ]
        if not candidates:
            raise AllocationError(f"{model_name}: no socket has {num_accelerators} free")
        _, socket = min(candidates)
        ids = tuple(self._free[socket][:num_accelerators])
        del self._free[socket][:num_accelerators]
        spec = self.server.sockets[socket]
        share = num_accelerators / per_socket
        allocation = Allocation(
            model_name=model_name,
            socket=socket,
            accelerator_ids=ids,
            cores=spec.cores * share,
            host_dram_bytes=spec.dram_capacity_bytes * share,
            nic_bytes_per_s=spec.nic_bandwidth_bytes_per_s * share,
        )
        self.allocations.append(allocation)
        return allocation

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's accelerators to the free pool."""
        if allocation not in self.allocations:
            raise AllocationError(f"unknown allocation for {allocation.model_name}")
        self.allocations.remove(allocation)
        self._free[allocation.socket].extend(allocation.accelerator_ids)
        self._free[allocation.socket].sort()

    def utilization(self) -> float:
        """Fraction of the server's accelerators currently allocated."""
        total = self.server.accelerators_per_server
        return (total - self.free_accelerators()) / total

    def free_by_socket(self) -> List[int]:
        """Free accelerator count per socket."""
        return [len(free) for free in self._free]
