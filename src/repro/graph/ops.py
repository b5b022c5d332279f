"""Operator nodes of the model IR.

The model builders (:mod:`repro.models`) construct graphs of these ops;
the optimization passes rewrite them; the kernel models cost them.  The
op set covers the workloads the paper describes: FC/GEMM, Table Batched
Embedding (pooled and sequence), LayerNorm, Softmax, multi-headed and
HSTU ragged attention, layout ops, elementwise math, quantize/dequantize,
and broadcast (the In-Batch Broadcast of section 6).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Any, Dict, List, Sequence

from repro.tensors.dtypes import DType
from repro.tensors.tensor import (
    GemmShape,
    TensorKind,
    TensorSpec,
    activation,
    concat_specs,
    transposed,
)

_OP_IDS = itertools.count()


class OpType(enum.Enum):
    """Kinds of operators in the IR.

    Members hash by identity (they are singletons), so the executor's
    dict lookups keyed on them stay in C.
    """

    __hash__ = object.__hash__

    FC = "fc"
    TBE = "tbe"
    LAYERNORM = "layernorm"
    MHA = "mha"
    HSTU_ATTENTION = "hstu_attention"
    TRANSPOSE = "transpose"
    CONCAT = "concat"
    ELEMENTWISE = "elementwise"
    INTERACTION = "interaction"
    BROADCAST = "broadcast"
    CAST = "cast"
    FUSED = "fused"


@dataclasses.dataclass
class Op:
    """One operator: inputs, outputs, and type-specific attributes."""

    op_type: OpType
    name: str
    inputs: List[TensorSpec]
    outputs: List[TensorSpec]
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    uid: int = dataclasses.field(default_factory=lambda: next(_OP_IDS))

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValueError(f"op {self.name!r} must produce at least one output")

    @property
    def output(self) -> TensorSpec:
        """The primary (first) output."""
        return self.outputs[0]

    def attr(self, key: str, default: Any = None) -> Any:
        """Fetch an attribute with a default."""
        return self.attrs.get(key, default)

    def flops(self) -> float:
        """Canonical FLOP count of this op (per graph execution)."""
        return _FLOP_COUNTERS.get(self.op_type, _default_flops)(self)

    def input_bytes(self) -> int:
        """Bytes across all inputs."""
        return sum(t.num_bytes for t in self.inputs)

    def output_bytes(self) -> int:
        """Bytes across all outputs."""
        return sum(t.num_bytes for t in self.outputs)

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.outputs)
        return f"{self.name}<{self.op_type.value}>({ins}) -> {outs}"


# --------------------------------------------------------------------------
# FLOP accounting
# --------------------------------------------------------------------------


def _default_flops(op: Op) -> float:
    return float(op.output.num_elements)


def _fc_flops(op: Op) -> float:
    shape: GemmShape = op.attrs["gemm"]
    return float(shape.flops)


def _tbe_flops(op: Op) -> float:
    # Pooling is one add per element gathered.
    rows = op.attrs["total_rows"]
    dim = op.attrs["embed_dim"]
    weighted = 2.0 if op.attrs.get("weighted", False) else 1.0
    return float(rows * dim * weighted)


def _layernorm_flops(op: Op) -> float:
    # Mean, variance, and normalize: ~8 flops per element.
    return 8.0 * op.inputs[0].num_elements


def _mha_flops(op: Op) -> float:
    batch = op.attrs["batch"]
    heads = op.attrs["heads"]
    seq = op.attrs["seq_len"]
    head_dim = op.attrs["head_dim"]
    # QK^T and PV, per head: 2 * seq^2 * head_dim MACs each.
    return float(batch * heads * 2 * (2 * seq * seq * head_dim))


def _hstu_flops(op: Op) -> float:
    lengths: Sequence[int] = op.attrs["seq_lengths"]
    heads = op.attrs["heads"]
    head_dim = op.attrs["head_dim"]
    # Ragged attention: per sample, attention over its own history length,
    # plus the pointwise bias gather (~3 ops per score).
    total = 0.0
    for length in lengths:
        total += heads * (2 * 2 * length * length * head_dim + 3 * length * length)
    return total


def _elementwise_flops(op: Op) -> float:
    return op.attrs.get("ops_per_element", 1.0) * op.output.num_elements


def _interaction_flops(op: Op) -> float:
    # Pairwise dot products among F feature vectors of dim D, per batch item.
    batch = op.attrs["batch"]
    features = op.attrs["num_features"]
    dim = op.attrs["dim"]
    pairs = features * (features - 1) // 2
    return float(batch * pairs * 2 * dim)


_FLOP_COUNTERS = {
    OpType.FC: _fc_flops,
    OpType.TBE: _tbe_flops,
    OpType.LAYERNORM: _layernorm_flops,
    OpType.MHA: _mha_flops,
    OpType.HSTU_ATTENTION: _hstu_flops,
    OpType.ELEMENTWISE: _elementwise_flops,
    OpType.INTERACTION: _interaction_flops,
    OpType.TRANSPOSE: lambda op: 0.0,
    OpType.CONCAT: lambda op: 0.0,
    OpType.BROADCAST: lambda op: 0.0,
    OpType.CAST: lambda op: float(op.output.num_elements),
    OpType.FUSED: lambda op: sum(sub.flops() for sub in op.attrs.get("sub_ops", [])),
}


# --------------------------------------------------------------------------
# Factory functions — the API model builders use
# --------------------------------------------------------------------------


def fc(
    x: TensorSpec,
    w: TensorSpec,
    name: str = "fc",
    sparse: bool = False,
) -> Op:
    """A fully-connected layer: ``y[M,N] = x[M,K] @ w[K,N]``, output in
    the input's dtype."""
    if x.rank != 2 or w.rank != 2:
        raise ValueError(f"fc expects rank-2 tensors, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"fc shape mismatch: {x.shape} @ {w.shape}")
    shape = GemmShape(m=x.shape[0], k=x.shape[1], n=w.shape[1])
    out = activation(shape.m, shape.n, dtype=x.dtype, name=f"{name}_out")
    return Op(
        op_type=OpType.FC,
        name=name,
        inputs=[x, w],
        outputs=[out],
        attrs={"gemm": shape, "sparse": sparse},
    )


def tbe(
    tables: Sequence[TensorSpec],
    batch: int,
    avg_indices_per_lookup: float,
    name: str = "tbe",
    weighted: bool = False,
    sequence: bool = False,
) -> Op:
    """Table Batched Embedding: gather + pool rows from many tables.

    For pooled TBE the output is dense ``(batch, T * D)``.  For sequence
    (jagged) TBE the output is the flattened sequence values; the symbolic
    shape uses the average length.
    """
    if not tables:
        raise ValueError("tbe needs at least one table")
    if batch <= 0 or avg_indices_per_lookup <= 0:
        raise ValueError("batch and pooling factor must be positive")
    dims = {t.shape[1] for t in tables}
    if len(dims) != 1:
        raise ValueError(f"tables disagree on embedding dim: {sorted(dims)}")
    dim = dims.pop()
    num_tables = len(tables)
    total_rows = int(batch * num_tables * avg_indices_per_lookup)
    if sequence:
        out = activation(max(1, total_rows), dim, dtype=tables[0].dtype, name=f"{name}_seq")
    else:
        out = activation(batch, num_tables * dim, dtype=tables[0].dtype, name=f"{name}_pooled")
    return Op(
        op_type=OpType.TBE,
        name=name,
        inputs=list(tables),
        outputs=[out],
        attrs={
            "batch": batch,
            "num_tables": num_tables,
            "embed_dim": dim,
            "avg_indices_per_lookup": avg_indices_per_lookup,
            "total_rows": total_rows,
            "weighted": weighted,
            "sequence": sequence,
        },
    )


def layernorm(x: TensorSpec, name: str = "layernorm") -> Op:
    """Row-wise layer normalization."""
    out = activation(*x.shape, dtype=x.dtype, name=f"{name}_out")
    rows = x.shape[0] if x.rank > 1 else 1
    cols = x.num_elements // rows
    return Op(
        op_type=OpType.LAYERNORM,
        name=name,
        inputs=[x],
        outputs=[out],
        attrs={"rows": rows, "cols": cols},
    )


def mha(
    x: TensorSpec,
    heads: int,
    head_dim: int,
    seq_len: int,
    batch: int,
    name: str = "mha",
) -> Op:
    """A multi-headed attention block over an already-projected input."""
    if heads <= 0 or head_dim <= 0 or seq_len <= 0 or batch <= 0:
        raise ValueError("mha dimensions must be positive")
    out = activation(batch * seq_len, heads * head_dim, dtype=x.dtype, name=f"{name}_out")
    return Op(
        op_type=OpType.MHA,
        name=name,
        inputs=[x],
        outputs=[out],
        attrs={"heads": heads, "head_dim": head_dim, "seq_len": seq_len, "batch": batch},
    )


def hstu_attention(
    x: TensorSpec,
    seq_lengths: Sequence[int],
    heads: int,
    head_dim: int,
    name: str = "hstu_attn",
) -> Op:
    """HSTU's fused ragged attention with positional/timestamp bias."""
    if not len(seq_lengths):
        raise ValueError("need at least one sequence")
    total = int(sum(seq_lengths))
    out = activation(max(1, total), heads * head_dim, dtype=x.dtype, name=f"{name}_out")
    return Op(
        op_type=OpType.HSTU_ATTENTION,
        name=name,
        inputs=[x],
        outputs=[out],
        attrs={
            "seq_lengths": list(int(s) for s in seq_lengths),
            "heads": heads,
            "head_dim": head_dim,
        },
    )


def transpose(x: TensorSpec, name: str = "transpose") -> Op:
    """2-D transpose (MLU-executed layout change).

    The output is an on-chip activation regardless of the input's kind —
    once data has been transformed by an engine it lives in the
    activation buffer.
    """
    out = transposed(x).with_kind(TensorKind.ACTIVATION)
    return Op(op_type=OpType.TRANSPOSE, name=name, inputs=[x], outputs=[out])


def concat(xs: Sequence[TensorSpec], axis: int = -1, name: str = "concat") -> Op:
    """Concatenate along an axis; output is an activation."""
    out = concat_specs(list(xs), axis=axis).with_kind(TensorKind.ACTIVATION)
    return Op(op_type=OpType.CONCAT, name=name, inputs=list(xs), outputs=[out], attrs={"axis": axis})


def elementwise(
    xs: Sequence[TensorSpec],
    function: str = "add",
    ops_per_element: float = 1.0,
    name: str = "elementwise",
) -> Op:
    """An elementwise op over one or more same-shape inputs."""
    if not xs:
        raise ValueError("elementwise needs at least one input")
    first = xs[0]
    for x in xs[1:]:
        if x.shape != first.shape:
            raise ValueError(f"elementwise shape mismatch: {x.shape} vs {first.shape}")
    out = activation(*first.shape, dtype=first.dtype, name=f"{name}_out")
    return Op(
        op_type=OpType.ELEMENTWISE,
        name=name,
        inputs=list(xs),
        outputs=[out],
        attrs={"function": function, "ops_per_element": ops_per_element},
    )


def interaction(
    x: TensorSpec, batch: int, num_features: int, dim: int, name: str = "interaction"
) -> Op:
    """DLRM pairwise feature interaction (dot products between features)."""
    pairs = num_features * (num_features - 1) // 2
    out = activation(batch, pairs, dtype=x.dtype, name=f"{name}_out")
    return Op(
        op_type=OpType.INTERACTION,
        name=name,
        inputs=[x],
        outputs=[out],
        attrs={"batch": batch, "num_features": num_features, "dim": dim},
    )


def broadcast(x: TensorSpec, factor: int, name: str = "broadcast") -> Op:
    """In-Batch Broadcast: replicate user-side rows ``factor`` times to
    align user-ad pairs (section 6)."""
    if factor <= 0:
        raise ValueError("broadcast factor must be positive")
    new_shape = (x.shape[0] * factor,) + tuple(x.shape[1:])
    out = activation(*new_shape, dtype=x.dtype, name=f"{name}_out")
    return Op(
        op_type=OpType.BROADCAST,
        name=name,
        inputs=[x],
        outputs=[out],
        attrs={"factor": factor},
    )


def cast(x: TensorSpec, out_dtype: DType, name: str = "cast") -> Op:
    """Dtype conversion (e.g. the FP32->FP16 host-offload cast of §3.4)."""
    out = activation(*x.shape, dtype=out_dtype, name=f"{name}_out")
    return Op(op_type=OpType.CAST, name=name, inputs=[x], outputs=[out])


def fused(sub_ops: Sequence[Op], name: str = "fused") -> Op:
    """A fusion of several ops into one kernel.

    Inputs are every sub-op input not produced inside the fusion; the
    outputs are the sub-op outputs consumed outside (callers typically
    treat the last sub-op's output as primary).  Intermediate tensors
    live in PE Local Memory and never touch LLS/LLC — the working-set
    reduction fusions exist for (section 4.2).
    """
    sub_list = list(sub_ops)
    if not sub_list:
        raise ValueError("fusion needs at least one sub-op")
    produced = {t.uid for op in sub_list for t in op.outputs}
    external_inputs: List[TensorSpec] = []
    seen = set()
    for op in sub_list:
        for t in op.inputs:
            if t.uid not in produced and t.uid not in seen:
                external_inputs.append(t)
                seen.add(t.uid)
    consumed_inside = {t.uid for op in sub_list for t in op.inputs}
    outputs = [
        t for op in sub_list for t in op.outputs if t.uid not in consumed_inside
    ]
    if not outputs:
        outputs = [sub_list[-1].outputs[0]]
    return Op(
        op_type=OpType.FUSED,
        name=name,
        inputs=external_inputs,
        outputs=outputs,
        attrs={"sub_ops": sub_list},
    )
