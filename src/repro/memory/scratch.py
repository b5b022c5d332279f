"""Liveness-based scratch-memory allocator for the LLS.

The software-managed portion of MTIA 2i's SRAM (LLS) backs the model's
activation buffer.  The paper notes (section 4.1) that the activation
buffer is *reused* throughout model execution: the same memory backs
multiple activation tensors whose lifetimes do not overlap.  This module
implements that reuse: given buffers with liveness intervals over the op
schedule, it packs them into as little memory as possible and reports the
peak footprint — which is what autotuning compares against LLS capacity.

The packing algorithm is the classic greedy offset assignment used by ML
memory planners: process buffers in order of increasing start time and
place each at the lowest offset not overlapping any live, already-placed
buffer.  It is not optimal (optimal is NP-hard) but matches what
production planners do.

The packer makes one sweep over the start-ordered buffers.  Because
starts never decrease, a placed buffer whose ``end`` is before the
current ``start`` can never overlap a later one, so it leaves the live
set for good; the live set stays sorted by offset, the order the
first-fit scan walks.  Each placement therefore costs the size of the
live set rather than of every buffer placed so far.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class BufferRequest:
    """A buffer to place: size plus liveness over [start, end] inclusive,
    in schedule-step units."""

    name: str
    size_bytes: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"{self.name}: size must be positive")
        if self.end < self.start:
            raise ValueError(f"{self.name}: end {self.end} before start {self.start}")

    def overlaps(self, other: "BufferRequest") -> bool:
        """Whether the two buffers are ever live at the same time."""
        return self.start <= other.end and other.start <= self.end


@dataclasses.dataclass(frozen=True)
class Placement:
    """Where one buffer landed."""

    request: BufferRequest
    offset: int

    @property
    def end_offset(self) -> int:
        """One past the last byte of this buffer."""
        return self.offset + self.request.size_bytes


@dataclasses.dataclass
class AllocationPlan:
    """The result of packing a set of buffers."""

    placements: List[Placement]

    @property
    def peak_bytes(self) -> int:
        """High-water mark of the packed region."""
        return max((p.end_offset for p in self.placements), default=0)

    @property
    def total_requested_bytes(self) -> int:
        """Sum of buffer sizes — the footprint without any reuse."""
        return sum(p.request.size_bytes for p in self.placements)

    @property
    def reuse_factor(self) -> float:
        """How much memory reuse saved: requested / peak (>= 1)."""
        return self.total_requested_bytes / self.peak_bytes if self.peak_bytes else 1.0

    def offset_of(self, name: str) -> int:
        """Offset of a named buffer."""
        for placement in self.placements:
            if placement.request.name == name:
                return placement.offset
        raise KeyError(f"no buffer named {name!r}")

    def validate(self) -> None:
        """Check no two simultaneously-live buffers overlap in memory."""
        for i, a in enumerate(self.placements):
            for b in self.placements[i + 1 :]:
                if not a.request.overlaps(b.request):
                    continue
                if a.offset < b.end_offset and b.offset < a.end_offset:
                    raise AssertionError(
                        f"overlap between {a.request.name} and {b.request.name}"
                    )


def plan_allocation(
    requests: Sequence[BufferRequest], alignment: int = 128
) -> AllocationPlan:
    """Pack buffers with liveness-aware reuse.

    ``alignment`` rounds every offset up, matching DMA alignment
    requirements (MTIA 1 lacked unaligned access entirely).
    """
    if alignment <= 0:
        raise ValueError("alignment must be positive")
    ordered = sorted(requests, key=lambda r: (r.start, -r.size_bytes))
    placements: List[Placement] = []
    # (offset, aligned end offset, end step) of every placed buffer
    # still live at the current start.  All are live at that one step,
    # so their offsets are distinct and offset order alone fixes the
    # first-fit scan.
    live: List[Tuple[int, int, int]] = []
    for request in ordered:
        start, size = request.start, request.size_bytes
        live = [entry for entry in live if entry[2] >= start]
        offset = 0
        for placed_offset, aligned_end, _ in live:
            if offset + size <= placed_offset:
                break
            offset = max(offset, aligned_end)
        bisect.insort(live, (offset, _align(offset + size, alignment), request.end))
        placements.append(Placement(request=request, offset=offset))
    return AllocationPlan(placements=placements)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class ScratchAllocator:
    """A stateful wrapper enforcing an LLS capacity limit."""

    def __init__(self, capacity_bytes: int, alignment: int = 128) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.alignment = alignment
        self._requests: List[BufferRequest] = []
        self._plan: Optional[AllocationPlan] = None

    def request(self, name: str, size_bytes: int, start: int, end: int) -> None:
        """Register a buffer to be placed."""
        self._requests.append(BufferRequest(name, size_bytes, start, end))
        self._plan = None

    @property
    def plan(self) -> AllocationPlan:
        """The (lazily computed) packing of all registered buffers."""
        if self._plan is None:
            self._plan = plan_allocation(self._requests, alignment=self.alignment)
        return self._plan

    @property
    def fits(self) -> bool:
        """Whether the packed buffers fit within LLS capacity."""
        return self.plan.peak_bytes <= self.capacity_bytes

    @property
    def utilization(self) -> float:
        """Peak footprint as a fraction of capacity."""
        return self.plan.peak_bytes / self.capacity_bytes
