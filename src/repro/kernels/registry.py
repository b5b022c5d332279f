"""Kernel dispatch: map an IR op to its engine-side cost estimate."""

from __future__ import annotations

from typing import Optional

from repro.arch.specs import ChipSpec
from repro.graph.ops import Op, OpType
from repro.kernels.attention import estimate_hstu_attention, estimate_mha
from repro.kernels.base import KernelEstimate
from repro.kernels.gemm import GemmVariant, estimate_gemm
from repro.kernels.layout import (
    estimate_cast,
    estimate_copy,
    estimate_transpose,
)
from repro.kernels.normalization import (
    estimate_elementwise,
    estimate_layernorm,
)
from repro.kernels.tbe import estimate_tbe

# Fused kernels pipeline their stages through Local Memory circular
# buffers; the composed compute time is below the sum of the parts.
FUSION_PIPELINE_FACTOR = 0.9


def estimate_op(
    op: Op,
    chip: ChipSpec,
    gemm_variant: Optional[GemmVariant] = None,
) -> KernelEstimate:
    """Engine-side kernel estimate for one op on one chip."""
    if op.op_type is OpType.FC:
        dtype = op.inputs[0].dtype
        variant = gemm_variant or GemmVariant()
        return estimate_gemm(
            op.attrs["gemm"], chip, dtype, variant, sparse=op.attr("sparse", False)
        )
    if op.op_type is OpType.TBE:
        return estimate_tbe(
            total_rows=op.attrs["total_rows"],
            embed_dim=op.attrs["embed_dim"],
            chip=chip,
            dtype=op.inputs[0].dtype,
            weighted=op.attr("weighted", False),
        )
    if op.op_type is OpType.LAYERNORM:
        return estimate_layernorm(op.attrs["rows"], op.attrs["cols"], chip, op.inputs[0].dtype)
    if op.op_type is OpType.MHA:
        return estimate_mha(
            batch=op.attrs["batch"],
            heads=op.attrs["heads"],
            seq_len=op.attrs["seq_len"],
            head_dim=op.attrs["head_dim"],
            chip=chip,
            dtype=op.inputs[0].dtype,
        )
    if op.op_type is OpType.HSTU_ATTENTION:
        return estimate_hstu_attention(
            seq_lengths=op.attrs["seq_lengths"],
            heads=op.attrs["heads"],
            head_dim=op.attrs["head_dim"],
            chip=chip,
            dtype=op.inputs[0].dtype,
        )
    if op.op_type is OpType.TRANSPOSE:
        return estimate_transpose(op.inputs[0].num_bytes, chip)
    if op.op_type in (OpType.CONCAT, OpType.BROADCAST):
        return estimate_copy(op.output_bytes(), chip)
    if op.op_type is OpType.CAST:
        return estimate_cast(op.output.num_elements, chip, op.inputs[0].dtype)
    if op.op_type is OpType.ELEMENTWISE:
        return estimate_elementwise(
            op.output.num_elements,
            chip,
            op.inputs[0].dtype,
            ops_per_element=op.attr("ops_per_element", 1.0),
        )
    if op.op_type is OpType.INTERACTION:
        # Pairwise dots run on the DPE as a batched small GEMM.
        from repro.tensors.tensor import GemmShape

        batch = op.attrs["batch"]
        features = op.attrs["num_features"]
        dim = op.attrs["dim"]
        shape = GemmShape(m=batch * features, k=dim, n=features)
        return estimate_gemm(shape, chip, op.inputs[0].dtype, gemm_variant or GemmVariant())
    if op.op_type is OpType.FUSED:
        subs = [estimate_op(sub, chip, gemm_variant) for sub in op.attrs["sub_ops"]]
        return KernelEstimate(
            compute_s=sum(s.compute_s for s in subs) * FUSION_PIPELINE_FACTOR,
            issue_s=sum(s.issue_s for s in subs),
            local_memory_s=sum(s.local_memory_s for s in subs),
            weight_read_factor=max(s.weight_read_factor for s in subs),
            activation_read_factor=max(s.activation_read_factor for s in subs),
            broadcast_weights=any(s.broadcast_weights for s in subs),
            prefetch=all(s.prefetch for s in subs),
            engine="fused",
        )
    raise ValueError(f"no kernel model for op type {op.op_type}")
