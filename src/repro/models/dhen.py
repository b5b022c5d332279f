"""DHEN-style graph builder (paper sections 2 and 6).

DHEN (Deep and Hierarchical Ensemble Network) stacks layers with skip
connections and layer normalization; each layer ensembles interaction
modules — here a Factorization Machine Block and a Linear Compression
Block, the combination the section 6 case-study model uses.  High-order
interactions convert FLOPs into model quality, which is why late-stage
models grew to ~1 GFLOPS/sample.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.graph.graph import OpGraph
from repro.graph.ops import concat, elementwise, fc, interaction, layernorm, mha, tbe
from repro.models.dlrm import EmbeddingBagConfig
from repro.tensors.dtypes import DType
from repro.tensors.tensor import TensorSpec, embedding_table, model_input, weight

# Sequence length of each MHA ensemble member.
MHA_SEQ_LEN = 8

@dataclasses.dataclass(frozen=True)
class DhenConfig:
    """Hyperparameters of a DHEN-style ranking model."""

    name: str
    batch: int
    hidden_dim: int
    num_layers: int
    num_dense_features: int
    embeddings: Sequence[EmbeddingBagConfig]
    # Factorization-machine block feature count per layer.
    fm_features: int = 16
    # Optional MHA ensemble members (the case-study model added a network
    # of multi-headed attention blocks late in its evolution).
    mha_heads: int = 0

    def __post_init__(self) -> None:
        if min(self.batch, self.hidden_dim, self.num_layers) <= 0:
            raise ValueError("batch, hidden_dim, and num_layers must be positive")


def _dhen_layer(
    graph: OpGraph, x: TensorSpec, config: DhenConfig, layer: int
) -> TensorSpec:
    """One DHEN layer: FM block + linear compression block, ensembled,
    with a skip connection and layer norm."""
    dtype = DType.FP16
    hidden = config.hidden_dim
    # Factorization Machine Block: project then pairwise interactions.
    fm_proj_w = weight(hidden, hidden, dtype=dtype, name=f"l{layer}_fm_w")
    fm_proj = graph.add(fc(x, fm_proj_w, name=f"l{layer}_fm_proj"))
    fm_out = graph.add(
        interaction(
            fm_proj.output,
            batch=config.batch,
            num_features=config.fm_features,
            dim=hidden // config.fm_features,
            name=f"l{layer}_fm_interaction",
        )
    )
    fm_pairs = config.fm_features * (config.fm_features - 1) // 2
    fm_expand_w = weight(fm_pairs, hidden, dtype=dtype, name=f"l{layer}_fm_expand_w")
    fm_expanded = graph.add(fc(fm_out.output, fm_expand_w, name=f"l{layer}_fm_expand"))

    # Linear Compression Block: compress then restore.
    lcb_down_w = weight(hidden, hidden // 4, dtype=dtype, name=f"l{layer}_lcb_down_w")
    lcb_down = graph.add(fc(x, lcb_down_w, name=f"l{layer}_lcb_down"))
    lcb_up_w = weight(hidden // 4, hidden, dtype=dtype, name=f"l{layer}_lcb_up_w")
    lcb_up = graph.add(fc(lcb_down.output, lcb_up_w, name=f"l{layer}_lcb_up"))

    # Optional MHA ensemble member.
    members = [fm_expanded.output, lcb_up.output]
    if config.mha_heads > 0:
        head_dim = hidden // config.mha_heads // MHA_SEQ_LEN
        if head_dim > 0:
            mha_op = graph.add(
                mha(
                    x,
                    heads=config.mha_heads,
                    head_dim=head_dim,
                    seq_len=MHA_SEQ_LEN,
                    batch=config.batch // MHA_SEQ_LEN or 1,
                    name=f"l{layer}_mha",
                )
            )
            mha_proj_w = weight(
                mha_op.output.shape[1], hidden, dtype=dtype, name=f"l{layer}_mha_proj_w"
            )
            mha_proj = graph.add(
                fc(mha_op.output, mha_proj_w, name=f"l{layer}_mha_proj")
            )
            if mha_proj.output.shape[0] == config.batch:
                members.append(mha_proj.output)

    # Ensemble sum + skip connection + layer norm.
    ensemble = graph.add(
        elementwise(members, function="add", name=f"l{layer}_ensemble")
    )
    skip = graph.add(
        elementwise([ensemble.output, x], function="add", name=f"l{layer}_skip")
    )
    norm = graph.add(layernorm(skip.output, name=f"l{layer}_layernorm"))
    return norm.output


def build_dhen(config: DhenConfig) -> OpGraph:
    """Build a DHEN-style ranking model graph."""
    graph = OpGraph(name=config.name)
    dtype = DType.FP16
    dense_in = model_input(
        config.batch, config.num_dense_features, dtype=dtype, name="dense_features"
    )
    stem_w = weight(config.num_dense_features, config.hidden_dim, dtype=dtype, name="stem_w")
    stem = graph.add(fc(dense_in, stem_w, name="stem_fc"))

    sparse_parts = [stem.output]
    for bag_index, bag in enumerate(config.embeddings):
        tables = [
            embedding_table(
                bag.rows_per_table, bag.embed_dim, dtype=dtype, name=f"emb{bag_index}_t{i}"
            )
            for i in range(bag.num_tables)
        ]
        tbe_op = graph.add(
            tbe(
                tables,
                batch=config.batch,
                avg_indices_per_lookup=bag.pooling_factor,
                name=f"tbe{bag_index}",
            )
        )
        sparse_parts.append(tbe_op.output)
    merged = graph.add(concat(sparse_parts, axis=-1, name="merge_concat")).output
    merge_w = weight(merged.shape[1], config.hidden_dim, dtype=dtype, name="merge_w")
    current = graph.add(fc(merged, merge_w, name="merge_fc")).output

    for layer in range(config.num_layers):
        current = _dhen_layer(graph, current, config, layer)

    head_w = weight(config.hidden_dim, 1, dtype=dtype, name="head_w")
    graph.add(fc(current, head_w, name="prediction_head"))
    return graph
