"""Front-door routing policies: which replica takes the next request.

Each policy sees the currently *admissible* replicas (up, below the
admission queue cap) and picks one.  The menu is the classic load-balancer
ladder the capacity sweep compares:

* **round_robin** — cycle through replicas, blind to queue state;
* **jsq** (join-shortest-queue / least-outstanding) — global minimum of
  outstanding requests; optimal with perfect state, expensive to know at
  scale;
* **po2** (power of two choices) — sample two replicas, queue the less
  loaded; nearly JSQ's tail at a fraction of the state, the standard
  production compromise;
* **locality** — keep a request on a replica holding its embedding
  shard (least-outstanding within the shard group), spilling to
  power-of-two across the whole set only when the local group is deep in
  queue — trading a little balance for avoiding cross-host sparse
  lookups.

Policies are deliberately stateful-but-seedless: any randomness comes
from the simulator's generator passed into ``choose``, so one seed fixes
the whole run.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

import numpy as np

from repro.fastsim.vectorize import bounded_uint32, uint32_source

POLICY_NAMES = ("round_robin", "jsq", "po2", "locality")


class ReplicaView(Protocol):
    """What a routing policy may observe about a replica."""

    replica_id: int
    shard: int
    outstanding: int


class RoutingPolicy:
    """Base: pick one of ``candidates`` for a request with ``shard_id``."""

    name = "base"

    def choose(
        self,
        candidates: Sequence[ReplicaView],
        shard_id: int,
        rng: np.random.Generator,
    ) -> Optional[ReplicaView]:
        raise NotImplementedError


def _least_outstanding(candidates: Sequence[ReplicaView]) -> ReplicaView:
    # Manual scan, not ``min(..., key=...)`` — this runs once per routed
    # request and the key-tuple allocations dominate at that rate.  Ties
    # break on replica id, and the scan keeps the first (lowest-id)
    # minimum, so the result is the historical ``(outstanding,
    # replica_id)`` ordering exactly.
    best = candidates[0]
    best_outstanding = best.outstanding
    for candidate in candidates:
        outstanding = candidate.outstanding
        if outstanding < best_outstanding or (
            outstanding == best_outstanding
            and candidate.replica_id < best.replica_id
        ):
            best = candidate
            best_outstanding = outstanding
    return best


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas regardless of queue state."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        chosen = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return chosen


class LeastOutstandingPolicy(RoutingPolicy):
    """Join the shortest queue (global least-outstanding, ties by id)."""

    name = "jsq"

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        return _least_outstanding(candidates)


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two distinct replicas, queue the less loaded one.

    The pair is ``rng.choice(n, size=2, replace=False)`` drawn as three
    bounded draws that consume the generator identically: numpy's Floyd
    sampler takes ``a`` in ``[0, n-2]`` and ``b`` in ``[0, n-1]``
    (``b = n-1`` if it repeats ``a``), then its two-element shuffle
    swaps them on a coin draw.  Each draw is
    :func:`~repro.fastsim.vectorize.bounded_uint32` through the
    generator's ctypes handle, the same stream as ``rng.integers``.
    The handle is cached next to the generator it points into and is
    dropped when the policy is pickled.
    ``tests/test_po2_draw_equivalence.py`` pins the equivalence against
    ``choice`` itself.
    """

    name = "po2"

    def __init__(self) -> None:
        self._rng: Optional[np.random.Generator] = None
        self._source = None

    def __getstate__(self):
        return {"_rng": None, "_source": None}

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        n = len(candidates)
        if n == 1:
            return candidates[0]
        if rng is not self._rng:
            self._rng = rng
            self._source = uint32_source(rng)
        next_uint32, state = self._source
        first = bounded_uint32(next_uint32, state, n - 1)
        second = bounded_uint32(next_uint32, state, n)
        if second == first:
            second = n - 1
        if bounded_uint32(next_uint32, state, 2) == 0:
            first, second = second, first
        return _least_outstanding([candidates[first], candidates[second]])


class LocalityAwarePolicy(RoutingPolicy):
    """Prefer replicas holding the request's shard; spill under pressure.

    ``spill_outstanding`` is the local-group queue depth beyond which the
    policy gives up on locality for this request and falls back to
    power-of-two over every admissible replica (the spilled request then
    pays the cross-host penalty, which the simulator accounts).
    """

    name = "locality"

    def __init__(self, spill_outstanding: int = 8) -> None:
        if spill_outstanding < 1:
            raise ValueError("spill threshold must be at least 1")
        self.spill_outstanding = spill_outstanding
        self._fallback = PowerOfTwoPolicy()

    def choose(self, candidates, shard_id, rng):
        if not candidates:
            return None
        local = [r for r in candidates if r.shard == shard_id]
        if local:
            best = _least_outstanding(local)
            if best.outstanding < self.spill_outstanding:
                return best
        return self._fallback.choose(candidates, shard_id, rng)


def make_policy(name: str, spill_outstanding: int = 8) -> RoutingPolicy:
    """Instantiate a routing policy by its sweep name."""
    policies = {
        "round_robin": RoundRobinPolicy,
        "jsq": LeastOutstandingPolicy,
        "po2": PowerOfTwoPolicy,
    }
    if name == "locality":
        return LocalityAwarePolicy(spill_outstanding=spill_outstanding)
    if name not in policies:
        raise ValueError(
            f"unknown routing policy {name!r}; choose one of {POLICY_NAMES}"
        )
    return policies[name]()
