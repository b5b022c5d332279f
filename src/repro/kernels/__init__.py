"""Kernel cost models for every operator class."""

from repro.kernels.attention import estimate_hstu_attention, estimate_mha
from repro.kernels.base import KernelEstimate
from repro.kernels.gemm import (
    GemmVariant,
    Stationarity,
    default_variants,
    estimate_gemm,
    gemm_efficiency,
    naive_variant,
)
from repro.kernels.normalization import (
    LAYERNORM_PASSES,
    SOFTMAX_PASSES,
    estimate_layernorm,
    estimate_softmax,
)
from repro.kernels.registry import estimate_op
from repro.kernels.tbe import (
    EmbeddingAccessPattern,
    estimate_tbe,
    simulate_tbe_hit_rate,
)

__all__ = [
    "EmbeddingAccessPattern",
    "GemmVariant",
    "KernelEstimate",
    "LAYERNORM_PASSES",
    "SOFTMAX_PASSES",
    "Stationarity",
    "default_variants",
    "estimate_gemm",
    "estimate_hstu_attention",
    "estimate_layernorm",
    "estimate_mha",
    "estimate_op",
    "estimate_softmax",
    "estimate_tbe",
    "gemm_efficiency",
    "naive_variant",
    "simulate_tbe_hit_rate",
]
