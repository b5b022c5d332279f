"""Model graph IR: operators, graphs, liveness, and optimization passes."""

from repro.graph.graph import GraphError, OpGraph
from repro.graph.ops import (
    OpType,
    broadcast,
    cast,
    concat,
    dequantize,
    elementwise,
    fc,
    fused,
    hstu_attention,
    interaction,
    layernorm,
    mha,
    quantize,
    reshape,
    softmax,
    tbe,
    transpose,
)

__all__ = [
    "GraphError",
    "OpGraph",
    "OpType",
    "broadcast",
    "cast",
    "concat",
    "dequantize",
    "elementwise",
    "fc",
    "fused",
    "hstu_attention",
    "interaction",
    "layernorm",
    "mha",
    "quantize",
    "reshape",
    "softmax",
    "tbe",
    "transpose",
]
