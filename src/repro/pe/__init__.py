"""Processing Element engine models (paper section 3.2 and 3.3)."""

from repro.pe.command import (
    CircularBuffer,
    CircularBufferError,
    PipelineStage,
    pipeline_time,
    simulate_pipeline,
)
from repro.pe.dpe import (
    DpeConfig,
    dpe_compute_time,
    tile_utilization,
    weight_cache_passes,
)
from repro.pe.fi import DmaConfig, dma_time, overlapped_load_time
from repro.pe.mlu import MluConfig, fused_transpose_savings, reshape_time, transpose_time
from repro.pe.reduction import (
    ReductionConfig,
    accumulate_time,
    cross_pe_reduce_time,
    rowwise_minmax,
)
from repro.pe.riscv import RiscvVectorConfig, gemm_issue, tbe_issue, vector_kernel_issue
from repro.pe.simd import (
    elementwise_time,
    lut_approximation,
    lut_gather_time,
    mtia2i_simd_config,
)
from repro.pe.wqe import eager_launch_timeline, eager_viable, launch_reduction

__all__ = [
    "CircularBuffer",
    "CircularBufferError",
    "DmaConfig",
    "DpeConfig",
    "MluConfig",
    "PipelineStage",
    "ReductionConfig",
    "RiscvVectorConfig",
    "accumulate_time",
    "cross_pe_reduce_time",
    "dma_time",
    "dpe_compute_time",
    "eager_launch_timeline",
    "eager_viable",
    "elementwise_time",
    "fused_transpose_savings",
    "gemm_issue",
    "launch_reduction",
    "lut_approximation",
    "lut_gather_time",
    "mtia2i_simd_config",
    "overlapped_load_time",
    "pipeline_time",
    "reshape_time",
    "rowwise_minmax",
    "simulate_pipeline",
    "tbe_issue",
    "tile_utilization",
    "transpose_time",
    "vector_kernel_issue",
    "weight_cache_passes",
]
