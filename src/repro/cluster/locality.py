"""Embedding-shard locality: which hosts hold which tables.

Sharded models split their embedding tables across devices behind one
PCIe switch (:mod:`repro.autotune.sharding`); at the cluster tier the
consequence is that a request whose dominant embedding lookups live on
shard *s* is cheap on a replica holding shard *s* and pays a host-network
round trip anywhere else.  :class:`ShardLocalityMap` carries the
shard-popularity distribution the front door samples request affinities
from — built either uniformly or from a real zoo model's table placement
(:func:`repro.autotune.sharding.plan_sharding`), weighting each shard by
the bytes of the tables it holds.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np



@dataclasses.dataclass(frozen=True)
class ShardLocalityMap:
    """Shard count plus the request-affinity distribution over shards."""

    num_shards: int
    shard_weights: Tuple[float, ...]  # popularity, sums to 1

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("need at least one shard")
        if len(self.shard_weights) != self.num_shards:
            raise ValueError("one weight per shard required")
        if any(w < 0 for w in self.shard_weights):
            raise ValueError("shard weights must be non-negative")
        total = sum(self.shard_weights)
        if not np.isclose(total, 1.0):
            raise ValueError("shard weights must sum to 1")

    @classmethod
    def uniform(cls, num_shards: int) -> "ShardLocalityMap":
        """Every shard equally popular."""
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        return cls(
            num_shards=num_shards,
            shard_weights=tuple([1.0 / num_shards] * num_shards),
        )

    def sample_shards(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` request shard affinities from the popularity
        distribution (one vectorized draw, deterministic under seed)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        cdf = np.cumsum(self.shard_weights)
        cdf[-1] = 1.0  # guard against float round-down at the top end
        return np.searchsorted(cdf, rng.random(count), side="right").astype(int)
