"""HSTU-style generative recommendation model builder (paper section 2).

HSTU processes user history generatively with ragged attention over
jagged sequences, introducing a 10-100x complexity increase per request
and much larger embeddings than pooled DLRM models (Table 1: 1-2 TB,
10-80 GFLOPS/request).
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.graph.graph import OpGraph
from repro.graph.ops import fc, hstu_attention, layernorm, tbe
from repro.tensors.dtypes import DType
from repro.tensors.tensor import embedding_table, weight


@dataclasses.dataclass(frozen=True)
class HstuConfig:
    """Hyperparameters of an HSTU-style sequence model."""

    name: str
    batch: int
    hidden_dim: int
    num_layers: int
    heads: int
    # Skewed user-history length distribution (section 2: "ragged
    # attention to effectively manage the skewed distribution of user
    # history sequences").
    mean_seq_len: float
    max_seq_len: int
    num_tables: int
    rows_per_table: int
    embed_dim: int
    seed: int = 7

    def __post_init__(self) -> None:
        if min(self.batch, self.hidden_dim, self.num_layers, self.heads) <= 0:
            raise ValueError("HSTU dimensions must be positive")
        if self.mean_seq_len <= 0 or self.max_seq_len <= 0:
            raise ValueError("sequence lengths must be positive")

    def sample_seq_lengths(self) -> List[int]:
        """Draw a skewed (log-normal) batch of user-history lengths."""
        rng = np.random.default_rng(self.seed)
        sigma = 1.0
        mu = np.log(self.mean_seq_len) - sigma**2 / 2
        lengths = np.exp(rng.normal(mu, sigma, size=self.batch))
        return [int(x) for x in np.clip(lengths, 1, self.max_seq_len)]


def build_hstu(config: HstuConfig) -> OpGraph:
    """Build an HSTU-style model graph over a sampled jagged batch."""
    graph = OpGraph(name=config.name)
    dtype = DType.FP16
    seq_lengths = config.sample_seq_lengths()
    total_tokens = sum(seq_lengths)

    tables = [
        embedding_table(config.rows_per_table, config.embed_dim, dtype=dtype, name=f"hstu_t{i}")
        for i in range(config.num_tables)
    ]
    # Sequence TBE: per-event embedding lookups, one per history token.
    seq_tbe = graph.add(
        tbe(
            tables,
            batch=config.batch,
            avg_indices_per_lookup=max(1.0, total_tokens / config.batch / config.num_tables),
            name="sequence_tbe",
            sequence=True,
        )
    )
    proj_w = weight(config.embed_dim, config.hidden_dim, dtype=dtype, name="input_proj_w")
    current = graph.add(fc(seq_tbe.output, proj_w, name="input_proj")).output

    head_dim = config.hidden_dim // config.heads
    for layer in range(config.num_layers):
        norm = graph.add(layernorm(current, name=f"l{layer}_norm"))
        # Pointwise projections (U, V, Q, K in HSTU's pointwise section).
        uvqk_w = weight(
            config.hidden_dim, 4 * config.hidden_dim, dtype=dtype, name=f"l{layer}_uvqk_w"
        )
        uvqk = graph.add(fc(norm.output, uvqk_w, name=f"l{layer}_uvqk"))
        attn = graph.add(
            hstu_attention(
                uvqk.output,
                seq_lengths=seq_lengths,
                heads=config.heads,
                head_dim=head_dim,
                name=f"l{layer}_ragged_attn",
            )
        )
        out_w = weight(
            config.heads * head_dim, config.hidden_dim, dtype=dtype, name=f"l{layer}_out_w"
        )
        projected = graph.add(fc(attn.output, out_w, name=f"l{layer}_out_proj"))
        current = projected.output

    head_w = weight(config.hidden_dim, 1, dtype=dtype, name="hstu_head_w")
    graph.add(fc(current, head_w, name="hstu_prediction"))
    return graph
