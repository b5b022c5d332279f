"""Host-to-device link compression (paper section 3.3).

MTIA 2i adds a GZIP decompression engine on the PCIe path running at up
to 25 GB/s, raising the *effective* host-link bandwidth for compressible
payloads — a significant win for early-stage retrieval models that move
large volumes of candidate data between host and device.
"""

from __future__ import annotations

import dataclasses
import zlib

from repro.arch.specs import MemoryLevelSpec

# The decompression engine consumes compressed data at up to 25 GB/s
# (the paper's quoted rate); the decompressed output rate is that divided
# by the compressed fraction, which is what makes the feature a win over
# the ~32 GB/s raw link for compressible payloads.
GZIP_ENGINE_BYTES_PER_S = 25e9


@dataclasses.dataclass(frozen=True)
class LinkTransferReport:
    """Outcome of moving one payload over the (de)compressing link."""

    payload_bytes: int
    wire_bytes: int
    raw_time_s: float
    compressed_time_s: float

    @property
    def effective_bandwidth(self) -> float:
        """Payload bytes per second achieved with compression."""
        return self.payload_bytes / self.compressed_time_s if self.compressed_time_s else 0.0

    @property
    def speedup(self) -> float:
        """Transfer-time improvement from link compression."""
        return self.raw_time_s / self.compressed_time_s if self.compressed_time_s else 1.0


def gzip_ratio(data: bytes) -> float:
    """Measured GZIP saved fraction for a payload (real zlib, level 1)."""
    if not data:
        return 0.0
    compressed = zlib.compress(data, 1)
    return max(0.0, 1.0 - len(compressed) / len(data))


def link_transfer(
    payload_bytes: int,
    link: MemoryLevelSpec,
    compression_saved_fraction: float,
) -> LinkTransferReport:
    """Transfer time over a link with an inline decompression engine.

    The wire carries the compressed bytes; the decompression engine
    consumes them at up to ``GZIP_ENGINE_BYTES_PER_S`` (compressed side).  The
    two stages pipeline, so the slower one sets the pace.
    """
    if payload_bytes < 0:
        raise ValueError("payload must be non-negative")
    if not (0.0 <= compression_saved_fraction < 1.0):
        raise ValueError("saved fraction must be in [0, 1)")
    wire_bytes = payload_bytes * (1.0 - compression_saved_fraction)
    raw_time = link.transfer_time(payload_bytes)
    wire_time = link.transfer_time(wire_bytes)
    engine_time = (
        wire_bytes / GZIP_ENGINE_BYTES_PER_S if compression_saved_fraction else 0.0
    )
    return LinkTransferReport(
        payload_bytes=payload_bytes,
        wire_bytes=int(wire_bytes),
        raw_time_s=raw_time,
        compressed_time_s=max(wire_time, engine_time),
    )
