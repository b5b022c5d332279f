"""Fabric Interface (FI) DMA model.

The FI moves data between a PE's Local Memory and the NoC (to shared SRAM
or off-chip memory).  MTIA 2i doubled the FI-to-NoC bandwidth over MTIA 1
(paper section 3.2) and added a DMA_IN prefetch mode that reads DRAM data
into SRAM ahead of the Local Memory load (section 3.3), hiding LPDDR
latency behind compute.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DmaConfig:
    """One PE's FI characteristics."""

    bandwidth_bytes_per_s: float = 64e9  # FI-to-NoC, per PE
    setup_latency_s: float = 200e-9

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("DMA bandwidth must be positive")


def dma_time(num_bytes: float, config: DmaConfig, num_transfers: int = 1) -> float:
    """Time for one PE's FI to move ``num_bytes`` in ``num_transfers``
    descriptor-level transfers (each pays the setup latency)."""
    if num_bytes < 0 or num_transfers <= 0:
        raise ValueError("bytes must be >= 0 and transfers > 0")
    return num_transfers * config.setup_latency_s + num_bytes / config.bandwidth_bytes_per_s


def overlapped_load_time(
    compute_time_s: float,
    load_time_s: float,
    prefetch: bool,
) -> float:
    """Combined time when a data load can (or cannot) hide behind compute.

    With prefetch, the load overlaps compute and only the non-hidden
    remainder is exposed; without it, the kernel serializes load then
    compute.  Prefetch hides at most 95% of the compute time: overlap is
    imperfect at tile boundaries.
    """
    if compute_time_s < 0 or load_time_s < 0:
        raise ValueError("times must be non-negative")
    if not prefetch:
        return compute_time_s + load_time_s
    hidden = min(load_time_s, compute_time_s * 0.95)
    return compute_time_s + (load_time_s - hidden)
