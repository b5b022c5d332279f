"""Packet fragmentation (paper section 3.1).

Large DMA transfers are fragmented into bounded-size packets before
injection so that no single transfer monopolizes a NoC link.  Each
fragment carries a fixed header, so fragmentation trades a small bandwidth
overhead for fairness.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.noc.shaping import Packet

DEFAULT_MAX_FRAGMENT_BYTES = 4096
DEFAULT_HEADER_BYTES = 16


@dataclasses.dataclass(frozen=True)
class FragmentationResult:
    """Fragments of one transfer plus accounting."""

    fragments: List[Packet]
    payload_bytes: int
    header_overhead_bytes: int

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire including headers."""
        return self.payload_bytes + self.header_overhead_bytes

    @property
    def overhead_fraction(self) -> float:
        """Header bytes as a fraction of wire bytes."""
        return self.header_overhead_bytes / self.wire_bytes if self.wire_bytes else 0.0


def fragment(
    transfer_bytes: int,
    max_fragment_bytes: int = DEFAULT_MAX_FRAGMENT_BYTES,
    header_bytes: int = DEFAULT_HEADER_BYTES,
) -> FragmentationResult:
    """Split a transfer into header-carrying fragments.

    All fragments arrive together at time 0; the shaper spreads
    them out.
    """
    if transfer_bytes < 0:
        raise ValueError("transfer size must be non-negative")
    if max_fragment_bytes <= header_bytes:
        raise ValueError("fragment size must exceed header size")
    payload_per_fragment = max_fragment_bytes - header_bytes
    fragments: List[Packet] = []
    remaining = transfer_bytes
    while remaining > 0:
        payload = min(payload_per_fragment, remaining)
        fragments.append(Packet(arrival_s=0.0, size_bytes=payload + header_bytes))
        remaining -= payload
    return FragmentationResult(
        fragments=fragments,
        payload_bytes=transfer_bytes,
        header_overhead_bytes=len(fragments) * header_bytes,
    )
