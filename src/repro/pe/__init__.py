"""Processing Element engine models (paper section 3.2 and 3.3)."""

from repro.pe.command import PipelineStage, pipeline_time, simulate_pipeline
from repro.pe.dpe import DpeConfig, tile_utilization
from repro.pe.mlu import MluConfig, reshape_time, transpose_time
from repro.pe.reduction import rowwise_minmax
from repro.pe.riscv import RiscvVectorConfig, gemm_issue, tbe_issue
from repro.pe.simd import (
    elementwise_time,
    lut_approximation,
    lut_gather_time,
    mtia2i_simd_config,
)
from repro.pe.wqe import eager_launch_timeline, eager_viable, launch_reduction

__all__ = [
    "DpeConfig",
    "MluConfig",
    "PipelineStage",
    "RiscvVectorConfig",
    "eager_launch_timeline",
    "eager_viable",
    "elementwise_time",
    "gemm_issue",
    "launch_reduction",
    "lut_approximation",
    "lut_gather_time",
    "mtia2i_simd_config",
    "pipeline_time",
    "reshape_time",
    "rowwise_minmax",
    "simulate_pipeline",
    "tbe_issue",
    "tile_utilization",
    "transpose_time",
]
