"""Dot Product Engine (DPE) model.

Each PE's DPE contains two 32 x 32B x 32 MAC tiles (paper section 3.2),
together delivering 2.76 TFLOP/s per PE at FP16/BF16 (64 PEs x 2.76 ~= 177
TFLOP/s chip-wide, matching Table 2).  The first operand is cached inside
the engine; the second streams from Local Memory.  2:4 structured weight
sparsity doubles effective throughput.

The model computes tile-level utilization: shapes that do not fill the
32-wide MAC dimensions waste lanes, which is why small GEMMs run far from
peak even after the instruction-issue fixes.
"""

from __future__ import annotations

import dataclasses
import math

from repro.tensors.dtypes import DType
from repro.tensors.tensor import GemmShape


@dataclasses.dataclass(frozen=True)
class DpeConfig:
    """Geometry and rates of one PE's DPE."""

    mac_tiles: int = 2
    tile_rows: int = 32  # M dimension handled per tile pass
    tile_k_bytes: int = 32  # reduction bytes consumed per lane per cycle
    tile_cols: int = 32  # N dimension lanes
    frequency_hz: float = 1.35e9
    sparsity_supported: bool = True

    def macs_per_cycle(self, dtype: DType) -> int:
        """MACs per cycle across all tiles for a given input dtype.

        Each tile consumes ``tile_k_bytes`` of the reduction dimension per
        lane-row per cycle, so narrower dtypes pack more MACs: with two
        tiles, 2 x 32 x 16 = 1024 MACs/cycle at FP16 and 2048 at INT8 —
        at 1.35 GHz that is 2.76 TFLOP/s and 5.5 TOPS per PE, matching
        Table 2 when multiplied by 64 PEs.
        """
        k_elements = self.tile_k_bytes // dtype.bytes
        return self.mac_tiles * self.tile_rows * k_elements

    def peak_flops(self, dtype: DType) -> float:
        """Peak FLOP/s of one DPE for a dtype (2 FLOPs per MAC)."""
        return 2.0 * self.macs_per_cycle(dtype) * self.frequency_hz


def tile_utilization(shape: GemmShape, config: DpeConfig, dtype: DType) -> float:
    """Fraction of MAC lanes doing useful work for a GEMM shape.

    Each dimension is padded up to the tile geometry; utilization is the
    product of the fill fractions.  A 2048x2048x2048 GEMM fills every
    dimension; a 32x64x16 GEMM wastes half the N lanes.
    """
    k_elements = config.tile_k_bytes // dtype.bytes
    m_fill = shape.m / (math.ceil(shape.m / config.tile_rows) * config.tile_rows)
    k_fill = shape.k / (math.ceil(shape.k / k_elements) * k_elements)
    n_fill = shape.n / (math.ceil(shape.n / config.tile_cols) * config.tile_cols)
    return m_fill * k_fill * n_fill
