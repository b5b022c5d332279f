"""Wukong-style scaled interaction models (paper section 2).

"Wukong extends DHEN by scaling models across two orders of magnitude.
With effective modeling of high-order interactions, more sparse features
enabled by larger embedding tables improve model quality."  Wukong's
architecture stacks Factorization Machine Blocks and Linear Compression
Blocks with a single *scale* knob that grows every dimension together —
the property that makes it a scaling-law family rather than one model.

This builder parameterizes that family so sweeps can walk the 60x+
complexity range the paper reports across late-stage ranking models and
locate where MTIA 2i's efficiency falls off.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

from repro.graph.graph import OpGraph
from repro.models.dhen import DhenConfig, build_dhen
from repro.models.dlrm import EmbeddingBagConfig

# The scale-1.0 point every Wukong dimension grows from.
BASE_HIDDEN = 1024
BASE_LAYERS = 4
BASE_EMBEDDING_GIB = 8.0
BASE_TABLES = 32


@dataclasses.dataclass(frozen=True)
class WukongConfig:
    """One point of the Wukong scaling family.

    ``scale=1.0`` is a modest late-ranking model (~60 MFLOPS/sample);
    dimensions grow with sqrt(scale) and depth with log2(scale), so FLOPs
    per sample grow roughly linearly in ``scale`` — sweeping scale over
    [1, 100] walks the two orders of magnitude the paper cites.
    """

    scale: float = 1.0
    batch: int = 512

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def hidden_dim(self) -> int:
        """Width grows with sqrt(scale), rounded to a multiple of 256."""
        width = BASE_HIDDEN * math.sqrt(self.scale)
        return max(256, int(round(width / 256)) * 256)

    @property
    def num_layers(self) -> int:
        """Depth grows logarithmically with scale."""
        return BASE_LAYERS + max(0, int(round(2 * math.log2(max(1.0, self.scale)))))

    @property
    def embedding_gib(self) -> float:
        """Larger models carry more sparse features (bigger tables)."""
        return BASE_EMBEDDING_GIB * self.scale ** 0.75

    @property
    def num_tables(self) -> int:
        """Table count grows with sqrt(scale)."""
        return max(8, int(round(BASE_TABLES * math.sqrt(self.scale))))

    def to_dhen(self) -> DhenConfig:
        """The concrete DHEN-family instantiation of this scale point."""
        rows = max(
            1, int(self.embedding_gib * (1 << 30)) // (self.num_tables * 128 * 2)
        )
        return DhenConfig(
            name=f"wukong_x{self.scale:g}",
            batch=self.batch,
            hidden_dim=self.hidden_dim,
            num_layers=self.num_layers,
            num_dense_features=1024,
            embeddings=(
                EmbeddingBagConfig(
                    num_tables=self.num_tables,
                    rows_per_table=rows,
                    embed_dim=128,
                    pooling_factor=12.0,
                ),
            ),
            fm_features=32,
            mha_heads=0,
        )


def build_wukong(config: WukongConfig) -> OpGraph:
    """Build the graph for one Wukong scale point."""
    return build_dhen(config.to_dhen())


def scaling_sweep(
    scales: List[float] = (1.0, 4.0, 16.0, 64.0),
) -> List[WukongConfig]:
    """Configurations walking the paper's two-orders-of-magnitude range."""
    return [WukongConfig(scale=s) for s in scales]
