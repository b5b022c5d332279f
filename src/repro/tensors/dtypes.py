"""Data types used throughout the performance model.

MTIA 2i natively computes GEMMs in INT8 and FP16/BF16 (accumulating in
FP32), and the SIMD engine additionally handles FP32.  The performance
model only needs each type's storage width.
"""

from __future__ import annotations

import enum


class DType(enum.Enum):
    """An element type with a known storage width.

    Members hash by identity (they are singletons), so the dict lookups
    keyed on them stay in C.
    """

    __hash__ = object.__hash__

    INT8 = "int8"
    UINT8 = "uint8"
    INT32 = "int32"
    FP16 = "fp16"
    BF16 = "bf16"
    FP32 = "fp32"

    @property
    def bytes(self) -> int:
        """Storage size of one element in bytes."""
        return _WIDTH_BYTES[self]

    @property
    def bits(self) -> int:
        """Storage size of one element in bits."""
        return self.bytes * 8


_WIDTH_BYTES = {
    DType.INT8: 1,
    DType.UINT8: 1,
    DType.INT32: 4,
    DType.FP16: 2,
    DType.BF16: 2,
    DType.FP32: 4,
}
