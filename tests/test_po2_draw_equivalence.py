"""Differential test: the power-of-two pair draw versus ``Generator.choice``.

:class:`repro.cluster.routing.PowerOfTwoPolicy` draws its two distinct
replicas with three scalar ``integers`` calls instead of
``rng.choice(n, size=2, replace=False)``.  Every seeded cluster run
depends on the two consuming the generator identically, so this test
compares them step by step, with the service sampler's ``lognormal``
draws interleaved between routing decisions as the simulator makes
them.  A numpy release that changes ``choice`` fails here instead of
shifting every seeded cluster result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.routing import PowerOfTwoPolicy

SIZES = list(range(2, 65)) + [100, 257, 1000, 4097, 10_000]


@dataclass
class _Replica:
    replica_id: int
    shard: int = 0
    outstanding: int = 0


def _pair_by_choice(rng: np.random.Generator, n: int):
    first, second = rng.choice(n, size=2, replace=False)
    return int(first), int(second)


def _pair_by_policy(rng: np.random.Generator, replicas):
    """The indices of the two replicas ``choose`` compared, in draw
    order, read off a candidate list that records each lookup."""
    seen = []

    class _Spy(list):
        def __getitem__(self, index):
            seen.append(index)
            return list.__getitem__(self, index)

    PowerOfTwoPolicy().choose(_Spy(replicas), 0, rng)
    return tuple(seen)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_pair_and_generator_state_match_choice(seed):
    by_choice = np.random.default_rng(seed)
    by_policy = np.random.default_rng(seed)
    for n in SIZES:
        replicas = [_Replica(i) for i in range(n)]
        for _ in range(40 if n <= 64 else 10):
            assert _pair_by_policy(by_policy, replicas) == _pair_by_choice(
                by_choice, n
            ), n
            assert by_policy.bit_generator.state == by_choice.bit_generator.state
            # The service sampler's draw between two routing decisions.
            assert by_policy.lognormal(0.0, 0.45) == by_choice.lognormal(0.0, 0.45)
            assert by_policy.bit_generator.state == by_choice.bit_generator.state


def test_single_candidate_draws_nothing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    only = _Replica(0)
    assert PowerOfTwoPolicy().choose([only], 0, rng) is only
    assert rng.bit_generator.state == before
    assert PowerOfTwoPolicy().choose([], 0, rng) is None

