"""SIMD Engine model.

The SIMD Engine performs vector operations — quantization, activation
functions, embedding-row accumulation — with floating-point ALUs fed from
the Reduction Engine or Local Memory, plus lookup tables (LUTs) for
approximating nonlinear functions (paper section 3.2).  Section 4.3
describes repurposing the LUT for piecewise gathers in HSTU's bias
computation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict

import numpy as np

from repro.tensors.dtypes import DType

# Nonlinear functions with LUT approximation support.
LUT_FUNCTIONS = ("exp", "sigmoid", "tanh", "gelu", "rsqrt", "log", "reciprocal")
# LUT geometry: entries per table, and tables resident at once.
LUT_ENTRIES = 1024
LUT_TABLES = 4


@dataclasses.dataclass(frozen=True)
class SimdConfig:
    """Throughput description of one PE's SIMD Engine."""

    # Elements processed per cycle per dtype (Table 2's SIMD Engine row:
    # 5.5 TOPS at every dtype => elements/cycle constant across widths).
    lanes: Dict[DType, int]
    frequency_hz: float = 1.35e9

    def elements_per_s(self, dtype: DType) -> float:
        """Vector elements processed per second."""
        if dtype not in self.lanes:
            raise ValueError(f"SIMD engine does not support {dtype}")
        return self.lanes[dtype] * self.frequency_hz


def mtia2i_simd_config() -> SimdConfig:
    """MTIA 2i's SIMD Engine: 5.5 TOPS at INT8/FP16/BF16/FP32 per Table 2
    chip-wide; per-PE that is 5.5e12 / 64 ops/s => 64 lanes at 1.35 GHz."""
    lanes = {d: 64 for d in (DType.INT8, DType.FP16, DType.BF16, DType.FP32)}
    return SimdConfig(lanes=lanes)


def elementwise_time(
    num_elements: int, config: SimdConfig, dtype: DType, ops_per_element: float = 1.0
) -> float:
    """Time for an elementwise vector operation on one PE."""
    if num_elements < 0 or ops_per_element <= 0:
        raise ValueError("element count must be >= 0 and ops/element > 0")
    return num_elements * ops_per_element / config.elements_per_s(dtype)


def lut_gather_time(
    num_lookups: int, table_bytes: int, config: SimdConfig, dtype: DType
) -> float:
    """Time for a piecewise gather through the SIMD LUT (section 4.3).

    When the gather table exceeds the LUT capacity, the kernel loads it in
    segments and performs the gather piecewise; each segment reload costs
    a table-load pass over the lookups.
    """
    lut_capacity_bytes = LUT_ENTRIES * LUT_TABLES * dtype.bytes
    segments = max(1, math.ceil(table_bytes / lut_capacity_bytes))
    per_pass = elementwise_time(num_lookups, config, dtype, ops_per_element=1.0)
    reloads = elementwise_time(
        segments * LUT_ENTRIES, config, dtype, ops_per_element=1.0
    )
    return segments * per_pass + reloads


def lut_approximation(function: str, x: np.ndarray) -> np.ndarray:
    """A concrete ``LUT_ENTRIES``-point piecewise-linear LUT approximation
    of a nonlinearity.

    Used by the quantization-quality analysis to model the numeric error a
    LUT-based activation introduces relative to exact math.  The domain is
    clamped to a fixed range as hardware LUTs are.
    """
    funcs = {
        "exp": np.exp,
        "sigmoid": lambda v: 1.0 / (1.0 + np.exp(-v)),
        "tanh": np.tanh,
        "gelu": lambda v: 0.5 * v * (1.0 + np.tanh(0.7978845608 * (v + 0.044715 * v**3))),
        "rsqrt": lambda v: 1.0 / np.sqrt(np.maximum(v, 1e-12)),
        "log": lambda v: np.log(np.maximum(v, 1e-12)),
        "reciprocal": lambda v: 1.0 / np.where(np.abs(v) < 1e-12, 1e-12, v),
    }
    if function not in funcs:
        raise ValueError(f"unknown LUT function {function!r}; supported: {LUT_FUNCTIONS}")
    exact = funcs[function]
    lo, hi = (1e-6, 16.0) if function in ("rsqrt", "log") else (-8.0, 8.0)
    grid = np.linspace(lo, hi, LUT_ENTRIES)
    table = exact(grid.astype(np.float64))
    clamped = np.clip(np.asarray(x, dtype=np.float64), lo, hi)
    return np.interp(clamped, grid, table)
