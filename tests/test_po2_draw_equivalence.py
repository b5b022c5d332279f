"""Differential tests: the power-of-two pair draw versus numpy's own draws.

:class:`repro.cluster.routing.PowerOfTwoPolicy` draws its two distinct
replicas with three bounded draws instead of
``rng.choice(n, size=2, replace=False)``, and takes each one through
:func:`repro.fastsim.vectorize.bounded_uint32`, a port of the sampler
behind ``rng.integers``, instead of ``integers`` itself.  Every seeded
cluster run depends on these consuming the generator identically, so
the tests compare them step by step, with the service sampler's
``lognormal`` draws interleaved between routing decisions as the
simulator makes them:

- the policy against ``choice`` itself;
- the policy against the retired three-``integers`` draw, on every
  numpy bit generator;
- ``bounded_uint32`` against ``integers`` over small ranges and over
  ranges near ``2**31`` and ``2**32``, where rejection is heavy.

A numpy release that changes either sampler fails here instead of
shifting every seeded cluster result.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.routing import PowerOfTwoPolicy, _least_outstanding
from repro.fastsim.vectorize import bounded_uint32, uint32_source

BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]
# Just above 2**31 about half the 32-bit draws are rejected.
WIDE_SIZES = [
    2**31 - 1, 2**31, 2**31 + 1, 2**31 + 3, 3 * 2**30,
    2**32 - 3, 2**32 - 1, 2**32,
]
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



def _same_state(left, right) -> bool:
    """Bit-generator states are dicts that may hold arrays (MT19937)."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _same_state(left[key], right[key]) for key in left
        )
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def _twins(bit_generator, seed):
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


def _choose_by_integers(candidates, rng):
    """The retired scalar draw, kept verbatim as the oracle: three
    ``integers`` calls recomposing ``choice(n, 2, replace=False)``."""
    if not candidates:
        return None
    n = len(candidates)
    if n == 1:
        return candidates[0]
    first = int(rng.integers(0, n - 1))
    second = int(rng.integers(0, n))
    if second == first:
        second = n - 1
    if rng.integers(0, 2) == 0:
        first, second = second, first
    return _least_outstanding([candidates[first], candidates[second]])


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("seed", [0, 5])
def test_policy_matches_the_retired_integers_draw(bit_generator, seed):
    by_oracle, by_policy = _twins(bit_generator, seed)
    policy = PowerOfTwoPolicy()
    for n in list(range(1, 65)) + [100, 4097]:
        # Uneven loads, so which of the pair wins depends on the order.
        replicas = [_Replica(i, outstanding=(i * 7) % 5) for i in range(n)]
        for _ in range(12):
            expected = _choose_by_integers(replicas, by_oracle)
            assert policy.choose(replicas, 0, by_policy) is expected, n
            assert _same_state(by_policy.bit_generator.state,
                               by_oracle.bit_generator.state)
            assert by_policy.random() == by_oracle.random()
            assert by_policy.lognormal(0.0, 0.45) == by_oracle.lognormal(
                0.0, 0.45)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_bounded_draw_matches_integers(bit_generator, seed):
    by_integers, by_helper = _twins(bit_generator, seed)
    next_uint32, state = uint32_source(by_helper)
    sizes = list(range(1, 65)) + WIDE_SIZES
    for n in sizes:
        for _ in range(25):
            assert bounded_uint32(next_uint32, state, n) == int(
                by_integers.integers(0, n)), n
            assert _same_state(by_helper.bit_generator.state,
                               by_integers.bit_generator.state), n
            # Interleaved draws of other shapes, as a simulator makes.
            assert by_helper.lognormal(0.0, 0.45) == by_integers.lognormal(
                0.0, 0.45)
            assert by_helper.random() == by_integers.random()
            assert _same_state(by_helper.bit_generator.state,
                               by_integers.bit_generator.state), n


def test_one_value_range_draws_nothing():
    rng = np.random.default_rng(3)
    next_uint32, state = uint32_source(rng)
    before = rng.bit_generator.state
    assert bounded_uint32(next_uint32, state, 1) == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
def test_bounded_draw_rejects_ranges_outside_32_bits(n):
    rng = np.random.default_rng(0)
    next_uint32, state = uint32_source(rng)
    with pytest.raises(ValueError):
        bounded_uint32(next_uint32, state, n)


def test_used_policy_pickles_without_its_handle():
    replicas = [_Replica(i) for i in range(9)]
    policy = PowerOfTwoPolicy()
    rng = np.random.default_rng(11)
    policy.choose(replicas, 0, rng)
    copy = pickle.loads(pickle.dumps(policy))
    twin = pickle.loads(pickle.dumps(rng))
    for _ in range(50):
        assert (policy.choose(replicas, 0, rng).replica_id
                == copy.choose(replicas, 0, twin).replica_id)
    assert rng.bit_generator.state == twin.bit_generator.state
