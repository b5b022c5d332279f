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


def dpe_compute_time(
    shape: GemmShape,
    config: DpeConfig,
    dtype: DType,
    sparse: bool = False,
) -> float:
    """Time for one DPE to execute a GEMM, compute-side only.

    A 97% pipeline efficiency covers drain/fill bubbles between tile
    passes.  Memory and instruction-issue constraints are composed by the
    kernel model, not here.
    """
    if sparse and not config.sparsity_supported:
        raise ValueError("this DPE does not support 2:4 sparsity")
    util = tile_utilization(shape, config, dtype)
    peak = config.peak_flops(dtype) * (2.0 if sparse else 1.0)
    effective = peak * util * 0.97
    return shape.flops / effective


def weight_cache_passes(shape: GemmShape, config: DpeConfig, dtype: DType) -> int:
    """How many times the streamed operand must be re-read because the
    cached operand does not fit in the DPE's 64 KiB input cache.

    MTIA 2i increased the DPE input caches to accommodate the 2x larger
    effective tile size (section 3.6); when the cached tile still does not
    cover K x tile_cols, the activation stream repeats.
    """
    tile_weight_bytes = shape.k * config.tile_cols * dtype.bytes
    return max(1, math.ceil(tile_weight_bytes / (64 * 1024)))
