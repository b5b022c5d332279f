"""Canonical DLRM graph builder (paper section 2).

The canonical DLRM architecture: embeddings for sparse (categorical)
features, a bottom MLP for dense (continuous) features, a feature
interaction between the two, and a top MLP producing the prediction.
Model builders here are parameterized so the zoo can hit the published
complexity/size points of Table 1 and Figure 6.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.graph.graph import OpGraph
from repro.graph.ops import concat, elementwise, fc, interaction, tbe
from repro.tensors.dtypes import DType
from repro.tensors.tensor import TensorSpec, embedding_table, model_input, weight


@dataclasses.dataclass(frozen=True)
class EmbeddingBagConfig:
    """A group of identically-shaped embedding tables."""

    num_tables: int
    rows_per_table: int
    embed_dim: int
    pooling_factor: float  # average indices looked up per sample per table (unweighted)

    def __post_init__(self) -> None:
        if min(self.num_tables, self.rows_per_table, self.embed_dim) <= 0:
            raise ValueError("embedding config dimensions must be positive")
        if self.pooling_factor <= 0:
            raise ValueError("pooling factor must be positive")

    @property
    def total_bytes(self) -> int:
        """Total embedding footprint at FP16."""
        return self.num_tables * self.rows_per_table * self.embed_dim * 2


@dataclasses.dataclass(frozen=True)
class DlrmConfig:
    """Hyperparameters of one DLRM instance."""

    name: str
    batch: int
    num_dense_features: int
    bottom_mlp_dims: Sequence[int]
    top_mlp_dims: Sequence[int]
    embeddings: Sequence[EmbeddingBagConfig]

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if not self.bottom_mlp_dims or not self.top_mlp_dims:
            raise ValueError("MLP stacks must be non-empty")
        if not self.embeddings:
            raise ValueError("DLRM needs at least one embedding bag")


def _mlp(
    graph: OpGraph,
    x: TensorSpec,
    dims: Sequence[int],
    prefix: str,
    dtype: DType,
) -> TensorSpec:
    """Append an MLP stack (FC + pointwise activation per layer)."""
    current = x
    for layer, out_dim in enumerate(dims):
        w = weight(current.shape[1], out_dim, dtype=dtype, name=f"{prefix}_w{layer}")
        fc_op = graph.add(fc(current, w, name=f"{prefix}_fc{layer}"))
        act = graph.add(
            elementwise([fc_op.output], function="relu", name=f"{prefix}_relu{layer}")
        )
        current = act.output
    return current


def build_dlrm(config: DlrmConfig) -> OpGraph:
    """Build the canonical DLRM op graph."""
    graph = OpGraph(name=config.name)
    dense_in = model_input(
        config.batch, config.num_dense_features, dtype=DType.FP16, name="dense_features"
    )
    bottom_out = _mlp(graph, dense_in, config.bottom_mlp_dims, "bottom", DType.FP16)

    pooled_outputs: List[TensorSpec] = []
    for bag_index, bag in enumerate(config.embeddings):
        tables = [
            embedding_table(
                bag.rows_per_table,
                bag.embed_dim,
                dtype=DType.FP16,
                name=f"emb{bag_index}_t{i}",
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
        pooled_outputs.append(tbe_op.output)

    sparse_concat = (
        graph.add(concat(pooled_outputs, axis=-1, name="sparse_concat")).output
        if len(pooled_outputs) > 1
        else pooled_outputs[0]
    )
    combined = graph.add(
        concat([bottom_out, sparse_concat], axis=-1, name="dense_sparse_concat")
    ).output

    # Feature interaction across the embedding dim slices.
    num_features = 1 + sum(bag.num_tables for bag in config.embeddings)
    inter_dim = config.embeddings[0].embed_dim
    inter = graph.add(
        interaction(
            combined,
            batch=config.batch,
            num_features=min(num_features, 64),
            dim=inter_dim,
            name="interaction",
        )
    ).output

    top_in = graph.add(concat([bottom_out, inter], axis=-1, name="top_concat")).output
    _mlp(graph, top_in, list(config.top_mlp_dims) + [1], "top", DType.FP16)
    return graph


def small_dlrm() -> DlrmConfig:
    """A small, fast-to-simulate DLRM for tests and the quickstart."""
    return DlrmConfig(
        name="small_dlrm",
        batch=512,
        num_dense_features=256,
        bottom_mlp_dims=(512, 256, 128),
        top_mlp_dims=(512, 256),
        embeddings=(
            EmbeddingBagConfig(
                num_tables=16, rows_per_table=1_000_000, embed_dim=128, pooling_factor=10
            ),
        ),
    )
