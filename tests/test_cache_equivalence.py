"""Differential tests: the per-tensor LLC replay versus the per-block model.

:meth:`SetAssociativeCache.access_tensor` replays all blocks of a tensor
in one loop.  It must be indistinguishable from calling the original
per-block ``access`` on each block of :func:`tensor_blocks`: the same
bytes missed, the same seven counters, the same random-victim state and
the same resident lines, in the same order, after every step.

The oracle below is the per-block cache as it stood before the replay
loop, kept verbatim (``_Line`` dataclass, one ``access`` per block, one
LCG step per random victim).  It lives only here, not in ``src/``.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Hashable, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import CacheStats, SetAssociativeCache, tensor_blocks

BlockId = Hashable


@dataclasses.dataclass
class _Line:
    block: BlockId
    dirty: bool
    size_bytes: int


class PerBlockCache:
    """The retired per-block set-associative cache (the oracle)."""

    def __init__(
        self,
        capacity_bytes: int,
        block_bytes: int = 64 * 1024,
        associativity: int = 16,
        replacement: str = "random",
        seed: int = 0,
    ) -> None:
        if capacity_bytes <= 0 or block_bytes <= 0 or associativity <= 0:
            raise ValueError("capacity, block size, and associativity must be positive")
        if capacity_bytes < block_bytes:
            raise ValueError("cache must hold at least one block")
        if replacement not in ("lru", "random"):
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.replacement = replacement
        total_blocks = max(1, capacity_bytes // block_bytes)
        self.num_sets = max(1, total_blocks // associativity)
        # Each set is an OrderedDict from block id to line, LRU first.
        self._sets: List["OrderedDict[BlockId, _Line]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # A deterministic linear-congruential sequence drives random
        # victim selection so runs are reproducible.
        self._rand_state = (seed * 2654435761 + 1) & 0xFFFFFFFF
        self.stats = CacheStats()

    def _set_for(self, block: BlockId) -> "OrderedDict[BlockId, _Line]":
        return self._sets[hash(block) % self.num_sets]

    def _next_rand(self) -> int:
        self._rand_state = (self._rand_state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self._rand_state

    def access(
        self, block: BlockId, write: bool = False, size_bytes: Optional[int] = None
    ) -> bool:
        """Access one block; returns True on hit.

        On a miss the block is installed, evicting a victim chosen by the
        replacement policy if the set is full.  A ``write`` access marks
        the line dirty; evicting a dirty line counts a writeback (the
        slow path the paper avoids by keeping weights — clean lines — in
        LLC).
        """
        size = self.block_bytes if size_bytes is None else min(size_bytes, self.block_bytes)
        cache_set = self._set_for(block)
        line = cache_set.get(block)
        if line is not None:
            if self.replacement == "lru":
                cache_set.move_to_end(block)
            line.dirty = line.dirty or write
            self.stats.hits += 1
            self.stats.bytes_hit += size
            return True
        self.stats.misses += 1
        self.stats.bytes_missed += size
        if len(cache_set) >= self.associativity:
            if self.replacement == "lru":
                _, victim = cache_set.popitem(last=False)
            else:
                keys = list(cache_set.keys())
                victim_key = keys[self._next_rand() % len(keys)]
                victim = cache_set.pop(victim_key)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_writebacks += 1
                self.stats.bytes_written_back += victim.size_bytes
        cache_set[block] = _Line(block=block, dirty=write, size_bytes=size)
        return False

    def contains(self, block: BlockId) -> bool:
        """Whether the block is currently resident (no LRU update)."""
        return block in self._set_for(block)

    def invalidate(self, block: BlockId) -> bool:
        """Drop a block without a writeback; returns True if it was present."""
        return self._set_for(block).pop(block, None) is not None

    def flush(self) -> int:
        """Write back and drop everything; returns the dirty line count."""
        dirty = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.dirty:
                    dirty += 1
                    self.stats.dirty_writebacks += 1
                    self.stats.bytes_written_back += line.size_bytes
            cache_set.clear()
        return dirty


BLOCK = 64


def _pair(num_sets, ways, replacement, seed=0):
    kwargs = dict(capacity_bytes=num_sets * ways * BLOCK, block_bytes=BLOCK,
                  associativity=ways, replacement=replacement, seed=seed)
    return SetAssociativeCache(**kwargs), PerBlockCache(**kwargs)


def _oracle_tensor(oracle, uid, num_bytes, dirty):
    """Bytes missed replaying one tensor block by block."""
    missed = 0
    for block_uid, index, size in tensor_blocks(uid, num_bytes, oracle.block_bytes):
        if not oracle.access((block_uid, index), write=dirty, size_bytes=size):
            missed += size
    return missed


def _assert_same_state(cache, oracle):
    assert dataclasses.asdict(cache.stats) == dataclasses.asdict(oracle.stats)
    assert cache._rand_state == oracle._rand_state
    lines = [[(block, dirty, size) for block, (dirty, size) in s.items()]
             for s in cache._sets]
    oracle_lines = [[(block, line.dirty, line.size_bytes) for block, line in s.items()]
                    for s in oracle._sets]
    assert lines == oracle_lines
    if cache.replacement == "random":
        # The victim-position lists mirror each set's order.
        assert cache._order == [list(s) for s in cache._sets]


_GEOMETRY = dict(
    num_sets=st.integers(min_value=1, max_value=8),
    ways=st.integers(min_value=1, max_value=4),
    replacement=st.sampled_from(["lru", "random"]),
    seed=st.integers(min_value=0, max_value=3),
)


@given(
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=5 * BLOCK),
                  st.booleans()),
        max_size=40,
    ),
    **_GEOMETRY,
)
@settings(max_examples=200, deadline=None)
def test_access_tensor_matches_per_block_model(num_sets, ways, replacement, seed, steps):
    cache, oracle = _pair(num_sets, ways, replacement, seed)
    for uid, num_bytes, dirty in steps:
        assert cache.access_tensor(uid, num_bytes, dirty) == _oracle_tensor(
            oracle, uid, num_bytes, dirty)
        _assert_same_state(cache, oracle)
    assert cache.flush() == oracle.flush()
    _assert_same_state(cache, oracle)


@given(
    steps=st.lists(
        st.tuples(st.one_of(st.integers(min_value=-3, max_value=12),
                            st.tuples(st.integers(min_value=0, max_value=2),
                                      st.integers(min_value=0, max_value=3))),
                  st.booleans(),
                  st.one_of(st.none(), st.integers(min_value=0, max_value=2 * BLOCK))),
        max_size=60,
    ),
    **_GEOMETRY,
)
@settings(max_examples=200, deadline=None)
def test_access_matches_per_block_model(num_sets, ways, replacement, seed, steps):
    """The one-block ``access`` runs the same replay loop."""
    cache, oracle = _pair(num_sets, ways, replacement, seed)
    for block, write, size in steps:
        assert cache.access(block, write=write, size_bytes=size) == oracle.access(
            block, write=write, size_bytes=size)
        _assert_same_state(cache, oracle)
    assert cache.flush() == oracle.flush()
    _assert_same_state(cache, oracle)


def test_negative_tensor_size_rejected():
    cache, _ = _pair(2, 2, "random")
    with pytest.raises(ValueError):
        tensor_blocks(0, -1, BLOCK)
    with pytest.raises(ValueError):
        cache.access_tensor(0, -1, False)
    assert cache.stats == CacheStats()


_BLOCKS = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
)
_OPERATIONS = st.one_of(
    st.tuples(st.just("access"), _BLOCKS, st.booleans(),
              st.one_of(st.none(), st.integers(min_value=0, max_value=2 * BLOCK))),
    st.tuples(st.just("tensor"), st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=5 * BLOCK), st.booleans()),
    st.tuples(st.just("invalidate"), _BLOCKS),
    st.tuples(st.just("contains"), _BLOCKS),
    st.tuples(st.just("flush")),
)


@given(steps=st.lists(_OPERATIONS, max_size=60), **_GEOMETRY)
@settings(max_examples=300, deadline=None)
def test_interleaved_operations_match_per_block_model(num_sets, ways, replacement, seed, steps):
    """``invalidate``, ``contains`` and a mid-stream ``flush`` between
    accesses: where a victim-position list could drift from its set."""
    cache, oracle = _pair(num_sets, ways, replacement, seed)
    for kind, *args in steps:
        if kind == "access":
            block, write, size = args
            assert cache.access(block, write=write, size_bytes=size) == oracle.access(
                block, write=write, size_bytes=size)
        elif kind == "tensor":
            assert cache.access_tensor(*args) == _oracle_tensor(oracle, *args)
        else:
            assert getattr(cache, kind)(*args) == getattr(oracle, kind)(*args)
        _assert_same_state(cache, oracle)
