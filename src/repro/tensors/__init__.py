"""Tensor descriptions (symbolic) and jagged tensors (concrete numerics)."""

from repro.tensors.dtypes import DType
from repro.tensors.jagged import (
    JaggedTensor,
    jagged_softmax,
    jagged_sum_pool,
)
from repro.tensors.tensor import (
    GemmShape,
    TensorKind,
    TensorSpec,
    activation,
    concat_specs,
    embedding_table,
    model_input,
    transposed,
    weight,
)

__all__ = [
    "DType",
    "GemmShape",
    "JaggedTensor",
    "TensorKind",
    "TensorSpec",
    "activation",
    "concat_specs",
    "embedding_table",
    "jagged_softmax",
    "jagged_sum_pool",
    "model_input",
    "transposed",
    "weight",
]
