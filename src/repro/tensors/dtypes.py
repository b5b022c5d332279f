"""Data types used throughout the performance model.

MTIA 2i natively computes GEMMs in INT8 and FP16/BF16 (accumulating in
FP32), and the SIMD engine additionally handles FP32.  The performance
model only needs element widths and a few classification helpers, but the
quantization and error-injection subsystems also need concrete numpy
equivalents, so both views live here.
"""

from __future__ import annotations

import enum

import numpy as np


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

    @property
    def is_float(self) -> bool:
        """Whether this is a floating-point type."""
        return self in (DType.FP16, DType.BF16, DType.FP32)

    @property
    def is_int(self) -> bool:
        """Whether this is an integer type."""
        return not self.is_float

    def to_numpy(self) -> np.dtype:
        """The closest numpy dtype.

        BF16 has no numpy equivalent; we model its numerics with FP32
        storage truncated to a BF16-width mantissa (see
        :func:`quantize_to_bf16`), so its *storage* dtype here is FP32.
        Performance modelling always uses :attr:`bytes` (2 for BF16), never
        the numpy width.
        """
        return np.dtype(_NUMPY_EQUIV[self])


_WIDTH_BYTES = {
    DType.INT8: 1,
    DType.UINT8: 1,
    DType.INT32: 4,
    DType.FP16: 2,
    DType.BF16: 2,
    DType.FP32: 4,
}

_NUMPY_EQUIV = {
    DType.INT8: np.int8,
    DType.UINT8: np.uint8,
    DType.INT32: np.int32,
    DType.FP16: np.float16,
    DType.BF16: np.float32,
    DType.FP32: np.float32,
}


def quantize_to_bf16(values: np.ndarray) -> np.ndarray:
    """Round an FP32 array to BF16 precision, keeping FP32 storage.

    BF16 keeps the FP32 exponent and truncates the mantissa to 7 bits.
    We implement round-to-nearest-even on the raw bit pattern, which is
    what hardware BF16 conversion units do.
    """
    as_f32 = np.asarray(values, dtype=np.float32)
    bits = as_f32.view(np.uint32)
    # Round to nearest even: add 0x7FFF plus the LSB of the surviving part.
    lsb = (bits >> 16) & 1
    rounded = bits + 0x7FFF + lsb
    return (rounded & 0xFFFF0000).view(np.float32)


def parse_dtype(name: str) -> DType:
    """Parse a dtype from a case-insensitive string such as ``"fp16"``."""
    try:
        return DType(name.lower())
    except ValueError:
        valid = ", ".join(d.value for d in DType)
        raise ValueError(f"unknown dtype {name!r}; expected one of: {valid}") from None
