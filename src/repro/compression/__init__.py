"""Lossless compression: rANS weight codec and the GZIP PCIe engine."""

from repro.compression.ans import (
    ans_decode,
    ans_encode,
    fp16_weight_bytes,
    int8_weight_bytes,
)
from repro.compression.pcie import GZIP_ENGINE_BYTES_PER_S, gzip_ratio, link_transfer

__all__ = [
    "GZIP_ENGINE_BYTES_PER_S",
    "ans_decode",
    "ans_encode",
    "fp16_weight_bytes",
    "gzip_ratio",
    "int8_weight_bytes",
    "link_transfer",
]
