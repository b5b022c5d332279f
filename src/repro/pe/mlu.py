"""Memory Layout Unit (MLU) model.

The MLU performs layout transformations — transpose, concatenate, reshape
— directly on Local Memory data (paper section 3.2), sparing the compute
engines.  Section 6 replaces a Slice/Reshape/Concat operator sequence in
the MHA blocks with a single custom transpose on this unit.
"""

from __future__ import annotations

import dataclasses


# Strided access patterns (transpose) run below streaming rate.
TRANSPOSE_EFFICIENCY = 0.6


@dataclasses.dataclass(frozen=True)
class MluConfig:
    """Throughput of one PE's MLU: 64 bytes a cycle."""

    frequency_hz: float = 1.35e9

    @property
    def streaming_bandwidth(self) -> float:
        """Peak streaming bytes/s for layout-preserving moves."""
        return 64 * self.frequency_hz


def reshape_time(num_bytes: int, config: MluConfig) -> float:
    """Reshape/concat are streaming copies at full MLU bandwidth."""
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    return num_bytes / config.streaming_bandwidth


def transpose_time(num_bytes: int, config: MluConfig) -> float:
    """Transpose pays the strided-access efficiency penalty."""
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    return num_bytes / (config.streaming_bandwidth * TRANSPOSE_EFFICIENCY)
