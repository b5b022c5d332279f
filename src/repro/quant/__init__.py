"""Dynamic INT8 quantization: numerics and performance analysis."""

from repro.quant.analysis import fc_quantization_report, plan_model_quantization
from repro.quant.sparsity import (
    natural_sparsity,
    prune_2_4,
    satisfies_2_4,
    sparse_trained_weights,
    sparsity_impact,
)
from repro.quant.int8 import (
    ACCUMULATOR_DTYPE,
    INT32_ACC_MAX,
    accumulate_int8,
    dequantize_accumulator,
    fp16_matmul_error,
    quantization_error,
    quantize_activations,
    quantize_per_group,
    quantize_per_tensor,
    quantize_rowwise,
    quantize_weights_static,
    quantized_matmul,
)

__all__ = [
    "ACCUMULATOR_DTYPE",
    "INT32_ACC_MAX",
    "accumulate_int8",
    "dequantize_accumulator",
    "fc_quantization_report",
    "fp16_matmul_error",
    "plan_model_quantization",
    "quantization_error",
    "quantize_activations",
    "quantize_per_group",
    "quantize_per_tensor",
    "quantize_rowwise",
    "quantize_weights_static",
    "quantized_matmul",
    "natural_sparsity",
    "prune_2_4",
    "satisfies_2_4",
    "sparse_trained_weights",
    "sparsity_impact",
]
