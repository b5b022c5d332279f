"""Tiled GEMM kernel model with tunable variants.

The FC kernel generator (paper section 4.1) customizes kernel variants by
stationarity (input, weight, or output resident in the DPE while the
other operand streams), block sizes, DMA scheduling, and circular-buffer
usage.  This module models those choices' cost so the kernel tuner can
search them.

The GEMM is distributed over the PE grid: M splits across grid rows, N
across grid columns.  Weight tiles common to a column can be delivered
with hardware broadcast reads, and DMA prefetch can hide DRAM latency —
the two optimizations behind the paper's 45% latency improvement on
DRAM-bound shapes like 512 x 26592 x 2048 (section 4.2).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

from repro.arch.specs import ChipSpec
from repro.kernels.base import KernelEstimate
from repro.pe.dpe import DpeConfig, tile_utilization
from repro.pe.riscv import gemm_issue
from repro.tensors.dtypes import DType
from repro.tensors.tensor import GemmShape


class Stationarity:
    """Which operand stays resident in the DPE across tile passes."""

    INPUT = "input"
    WEIGHT = "weight"
    OUTPUT = "output"

    ALL = (INPUT, WEIGHT, OUTPUT)


@dataclasses.dataclass(frozen=True)
class GemmVariant:
    """One point in the FC kernel tuning space."""

    stationarity: str = Stationarity.WEIGHT
    block_m: int = 256
    block_n: int = 256
    block_k: int = 512
    broadcast_weights: bool = True
    prefetch: bool = True
    double_buffer: bool = True
    use_advanced_instructions: bool = True

    def __post_init__(self) -> None:
        if self.stationarity not in Stationarity.ALL:
            raise ValueError(f"unknown stationarity {self.stationarity!r}")
        if min(self.block_m, self.block_n, self.block_k) <= 0:
            raise ValueError("block sizes must be positive")


def default_variants() -> List[GemmVariant]:
    """The variant grid the kernel generator emits.

    The cross product — stationarity x block sizes x DMA scheduling x
    circular-buffer usage — is what made exhaustive FC tuning 'too
    time-consuming' (section 4.1): over a thousand variants per shape.
    """
    variants = []
    for stationarity in Stationarity.ALL:
        for block_m in (64, 128, 256, 512):
            for block_n in (64, 128, 256):
                for block_k in (128, 256, 512, 1024):
                    for prefetch in (False, True):
                        for double_buffer in (False, True):
                            for broadcast in (False, True):
                                variants.append(
                                    GemmVariant(
                                        stationarity=stationarity,
                                        block_m=block_m,
                                        block_n=block_n,
                                        block_k=block_k,
                                        prefetch=prefetch,
                                        double_buffer=double_buffer,
                                        broadcast_weights=broadcast,
                                    )
                                )
    return variants


def naive_variant() -> GemmVariant:
    """The out-of-the-box kernel before co-design optimization: no
    broadcast reads, no prefetch, no multi-context instructions."""
    return GemmVariant(
        stationarity=Stationarity.OUTPUT,
        block_m=64,
        block_n=64,
        broadcast_weights=False,
        prefetch=False,
        double_buffer=False,
        use_advanced_instructions=False,
    )


def _dpe_config_for(chip: ChipSpec) -> DpeConfig:
    # Infer the per-PE DPE rate from the chip's aggregate peak: supports
    # re-clocked chip specs (overclocking study) without re-deriving tile
    # geometry.
    fp16_peak = None
    for dtype in (DType.FP16, DType.BF16):
        if dtype in chip.gemm.peak_flops:
            fp16_peak = chip.gemm.peak_flops[dtype]
            break
    if fp16_peak is None:
        # INT8-only chips: derive from INT8 (twice the FP16 MACs).
        fp16_peak = chip.gemm.peak_flops[DType.INT8] / 2
    per_pe_macs_fp16 = fp16_peak / chip.num_pes / 2 / chip.frequency_hz
    # Tile geometry: rows x k_elements with tile_k_bytes = 32 (16 FP16).
    tiles = max(1, round(per_pe_macs_fp16 / (32 * 16)))
    return DpeConfig(
        mac_tiles=tiles,
        tile_rows=32,
        tile_k_bytes=32,
        tile_cols=32,
        frequency_hz=chip.frequency_hz,
        sparsity_supported=chip.gemm.sparsity_speedup > 1.0,
    )


def estimate_gemm(
    shape: GemmShape,
    chip: ChipSpec,
    dtype: DType = DType.FP16,
    variant: GemmVariant = GemmVariant(),
    sparse: bool = False,
) -> KernelEstimate:
    """Engine-side estimate for a GEMM distributed over the PE grid."""
    grid_side = max(1, int(round(math.sqrt(chip.num_pes))))
    per_pe = GemmShape(
        m=max(1, math.ceil(shape.m / grid_side)),
        k=shape.k,
        n=max(1, math.ceil(shape.n / grid_side)),
    )
    config = _dpe_config_for(chip)
    util = tile_utilization(per_pe, config, dtype)
    pipeline_eff = 0.97 if variant.double_buffer else 0.85
    peak = config.peak_flops(dtype) * (2.0 if sparse and config.sparsity_supported else 1.0)
    compute_s = per_pe.flops / (peak * util * pipeline_eff)

    issue = gemm_issue(
        per_pe,
        chip.issue,
        dtype,
        tile_m=config.tile_rows,
        tile_n=config.tile_cols,
        tile_k_bytes=config.tile_k_bytes,
        use_advanced_instructions=variant.use_advanced_instructions,
    )

    # Operand re-read factors from the blocking scheme.
    m_blocks = max(1, math.ceil(shape.m / variant.block_m))
    n_blocks = max(1, math.ceil(shape.n / variant.block_n))
    if variant.stationarity == Stationarity.WEIGHT:
        weight_reads, act_reads = 1.0, 1.0
        # Weights resident; activations stream once per full pass but the
        # weight tensor must fit blocks; oversized weights force re-reads
        # of activations per n-block.
        act_reads = float(min(n_blocks, 4))
    elif variant.stationarity == Stationarity.INPUT:
        weight_reads, act_reads = float(min(m_blocks, 4)), 1.0
    else:  # OUTPUT stationary: both stream per k pass, bounded by blocking.
        weight_reads = float(min(m_blocks, 2))
        act_reads = float(min(n_blocks, 2))

    # Local Memory staging: every operand byte crosses LM once per read.
    lm_bytes_per_pe = (
        shape.activation_bytes(dtype) * act_reads / chip.num_pes
        + shape.weight_bytes(dtype) * weight_reads / grid_side / chip.num_pes * grid_side
        + shape.output_bytes(DType.FP32) / chip.num_pes
    )
    lm_time = lm_bytes_per_pe / chip.local_memory.bandwidth_bytes_per_s
    if variant.double_buffer:
        lm_time *= 0.5  # staging overlaps compute with double buffering

    return KernelEstimate(
        compute_s=compute_s,
        issue_s=issue.issue_time_s,
        local_memory_s=lm_time,
        weight_read_factor=weight_reads,
        activation_read_factor=act_reads,
        broadcast_weights=variant.broadcast_weights,
        prefetch=variant.prefetch,
        engine="dpe",
    )


def gemm_efficiency(
    shape: GemmShape,
    chip: ChipSpec,
    variant: GemmVariant = GemmVariant(),
) -> float:
    """Achieved fraction of peak FP16 FLOPS for a GEMM.

    The figure is the compute/issue-side efficiency (the paper's '>92%
    of peak for 2K x 2K' claim is of this kind, with operands resident
    in SRAM).
    """
    est = estimate_gemm(shape, chip, DType.FP16, variant)
    actual = est.engine_time_s
    ideal = shape.flops / chip.peak_gemm_flops(DType.FP16)
    return ideal / actual if actual else 0.0
