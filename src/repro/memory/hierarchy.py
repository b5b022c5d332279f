"""The partitioned on-chip SRAM and tensor-placement machinery.

MTIA 2i's 256 MB shared SRAM is partitioned, at 32 MB granularity, into a
hardware-managed cache (LLC) and software-managed scratch (LLS) — paper
section 4.1.  The executor routes each tensor access through this module,
which decides (given the autotuner's placement) how many bytes move at
SRAM speed versus LPDDR speed, and measures LLC hit rates with a real
cache simulation.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

from repro.arch.specs import ChipSpec
from repro.memory.cache import SetAssociativeCache
from repro.tensors.tensor import TensorSpec


class Placement(enum.Enum):
    """Where a tensor's home is during model execution.

    Members hash by identity (they are singletons), so the dict lookups
    keyed on them stay in C.
    """

    __hash__ = object.__hash__

    LOCAL_MEMORY = "local_memory"  # distributed PE-local SRAM
    LLS = "lls"  # software-managed scratch (pinned, never evicted)
    LLC = "llc"  # hardware cache over DRAM
    DRAM = "dram"  # streamed from LPDDR, bypassing SRAM
    HOST = "host"  # host DRAM over PCIe


@dataclasses.dataclass(frozen=True)
class SramPartition:
    """An LLC/LLS split of the shared SRAM."""

    lls_bytes: int
    llc_bytes: int
    granularity_bytes: int

    def __post_init__(self) -> None:
        if self.lls_bytes < 0 or self.llc_bytes < 0:
            raise ValueError("partition sizes must be non-negative")
        if self.lls_bytes % self.granularity_bytes or self.llc_bytes % self.granularity_bytes:
            raise ValueError(
                f"partition sizes must be multiples of {self.granularity_bytes} bytes"
            )

    @property
    def total_bytes(self) -> int:
        """Total SRAM covered by the partition."""
        return self.lls_bytes + self.llc_bytes


def partition_for_activations(
    chip: ChipSpec, activation_buffer_bytes: int
) -> SramPartition:
    """The paper's partitioning policy: size the LLS to hold the entire
    activation buffer (rounded up to partition granularity) and give the
    remaining SRAM to the LLC.

    If the activation buffer cannot fit even with all of SRAM as LLS, the
    LLS is set to zero and everything becomes LLC (activations then
    compete with weights in the cache) — the fallback section 4.1
    describes autotuning comparing against a smaller batch.
    """
    gran = chip.sram_partition_bytes
    total = chip.sram.capacity_bytes
    needed = _round_up(activation_buffer_bytes, gran)
    if needed > total - gran:
        # Leave at least one granule of LLC for weight traffic; if
        # activations cannot fit, fall back to all-LLC.
        if needed > total:
            return SramPartition(lls_bytes=0, llc_bytes=total, granularity_bytes=gran)
        needed = total - gran
    return SramPartition(lls_bytes=needed, llc_bytes=total - needed, granularity_bytes=gran)


def _round_up(value: int, granule: int) -> int:
    return (value + granule - 1) // granule * granule


@dataclasses.dataclass
class Traffic:
    """Bytes moved per memory level for one access (or one op)."""

    local_memory_bytes: float = 0.0
    sram_bytes: float = 0.0
    dram_bytes: float = 0.0
    host_bytes: float = 0.0
    noc_bytes: float = 0.0

    def __iadd__(self, other: "Traffic") -> "Traffic":
        self.local_memory_bytes += other.local_memory_bytes
        self.sram_bytes += other.sram_bytes
        self.dram_bytes += other.dram_bytes
        self.host_bytes += other.host_bytes
        self.noc_bytes += other.noc_bytes
        return self

    def __add__(self, other: "Traffic") -> "Traffic":
        result = Traffic()
        result += self
        result += other
        return result


# The LLC's block size and associativity.
LLC_BLOCK_BYTES = 64 * 1024
LLC_ASSOCIATIVITY = 16


class MemoryHierarchy:
    """Stateful model of one chip's memory system during a model run."""

    def __init__(
        self,
        chip: ChipSpec,
        partition: Optional[SramPartition] = None,
        seed: int = 0,
    ) -> None:
        """``seed`` seeds the LLC's random-victim sequence."""
        self.chip = chip
        if partition is None:
            half = _round_up(chip.sram.capacity_bytes // 2, chip.sram_partition_bytes)
            partition = SramPartition(
                lls_bytes=half,
                llc_bytes=chip.sram.capacity_bytes - half,
                granularity_bytes=chip.sram_partition_bytes,
            )
        if partition.total_bytes > chip.sram.capacity_bytes:
            raise ValueError("partition exceeds SRAM capacity")
        self.partition = partition
        self.block_bytes = LLC_BLOCK_BYTES
        self.llc: Optional[SetAssociativeCache] = (
            SetAssociativeCache(
                capacity_bytes=partition.llc_bytes,
                block_bytes=LLC_BLOCK_BYTES,
                associativity=LLC_ASSOCIATIVITY,
                seed=seed,
            )
            if partition.llc_bytes >= LLC_BLOCK_BYTES
            else None
        )
        self._placements: Dict[int, Placement] = {}
        self._lls_used_bytes = 0

    def place(self, tensor: TensorSpec, placement: Placement, reserve: bool = True) -> None:
        """Assign a tensor's home.

        Placing into LLS with ``reserve=True`` charges the tensor against
        LLS capacity.  Pass ``reserve=False`` when the tensor lives inside
        a liveness-managed activation buffer whose peak footprint was
        already validated by the scratch allocator (the buffer is reused
        across non-overlapping lifetimes, so summing tensor sizes would
        double count).
        """
        if placement is Placement.LLS and reserve:
            already = self._placements.get(tensor.uid) is Placement.LLS
            if not already:
                if self._lls_used_bytes + tensor.num_bytes > self.partition.lls_bytes:
                    raise ValueError(
                        f"LLS overflow placing {tensor}: "
                        f"{self._lls_used_bytes + tensor.num_bytes} > {self.partition.lls_bytes}"
                    )
                self._lls_used_bytes += tensor.num_bytes
        self._placements[tensor.uid] = placement

    def placement_of(self, tensor: TensorSpec) -> Placement:
        """Where a tensor lives; unplaced tensors default to LLC-cached DRAM
        (weights) or LLS when kind-based policy says so."""
        return self._placements.get(tensor.uid, Placement.LLC)

    def read(self, tensor: TensorSpec) -> Traffic:
        """Model reading a whole tensor.

        Returns the byte counts that moved at each level.  LLC-resident
        tensors go through the cache simulation: hits cost SRAM bandwidth,
        misses cost DRAM bandwidth *and* SRAM fill bandwidth.
        """
        placement = self.placement_of(tensor)
        return self._move(tensor, tensor.num_bytes, placement, write=False)

    def write(self, tensor: TensorSpec) -> Traffic:
        """Model writing a tensor (allocating it at its placement)."""
        placement = self.placement_of(tensor)
        return self._move(tensor, tensor.num_bytes, placement, write=True)

    def _move(
        self, tensor: TensorSpec, size: int, placement: Placement, write: bool
    ) -> Traffic:
        if size < 0:
            raise ValueError("byte count must be non-negative")
        traffic = Traffic(noc_bytes=float(size))
        if placement is Placement.LOCAL_MEMORY:
            traffic.local_memory_bytes += size
            traffic.noc_bytes = 0.0  # stays inside the PE
        elif placement is Placement.LLS:
            traffic.sram_bytes += size
        elif placement is Placement.DRAM:
            traffic.dram_bytes += size
        elif placement is Placement.HOST:
            traffic.host_bytes += size
        elif placement is Placement.LLC:
            if self.llc is None:
                traffic.dram_bytes += size
            else:
                missed = self.llc.access_tensor(tensor.uid, size, write)
                # Every byte passes through SRAM.  A read miss also costs
                # the DRAM fill; a write miss is write-allocate, with no
                # fill read.
                traffic.sram_bytes += size
                if not write:
                    traffic.dram_bytes += missed
        else:
            raise AssertionError(f"unhandled placement {placement}")
        return traffic

    def llc_hit_rate(self) -> float:
        """Measured LLC hit rate so far."""
        return self.llc.stats.hit_rate if self.llc else 0.0
