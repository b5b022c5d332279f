"""A set-associative, write-back cache simulator.

This models MTIA 2i's hardware-managed LLC portion of the shared SRAM
(paper section 4.1).  The executor replays tensor accesses through it so
SRAM hit rates — the paper's 40-60% for sparse lookups and >95% for dense
networks — are *measured* from the access stream rather than asserted.

Fidelity note: accesses are simulated at *tensor-block* granularity
(default 64 KiB) rather than 64-byte cache lines.  DLRM working sets are
hundreds of megabytes, so block-granular simulation captures the capacity
and reuse behaviour that determines hit rates.  The executor replays one
tensor per call (:meth:`SetAssociativeCache.access_tensor`): a single
loop walks the tensor's blocks with counters and the random-victim state
held in locals, which keeps the replay cheap enough to run under
autotuning and co-design sweeps.
"""

from __future__ import annotations

import dataclasses
from itertools import repeat
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

BlockId = Hashable


@dataclasses.dataclass
class CacheStats:
    """Access counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    bytes_hit: int = 0
    bytes_missed: int = 0
    bytes_written_back: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit; 0.0 if no accesses yet."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.evictions = self.dirty_writebacks = 0
        self.bytes_hit = self.bytes_missed = self.bytes_written_back = 0


class SetAssociativeCache:
    """Set-associative cache over hashable block ids.

    Blocks may have heterogeneous sizes up to ``block_bytes``; a block
    always occupies one way regardless of its actual size (hardware would
    pad to the allocation unit).  A block maps to set
    ``hash(block) % num_sets``.  ``str`` hashes are salted per process, so
    block ids must be ints or tuples of ints for a run to reproduce
    across processes.

    Two replacement policies are supported.  ``"lru"`` is the textbook
    policy; ``"random"`` (the default) is what large last-level caches
    deploy in practice because LRU degenerates to a 0% hit rate on the
    cyclic streaming patterns ML weight traffic produces — with random
    replacement a working set W larger than capacity C settles near a
    C/W hit rate instead of zero.  Random victims come from one
    linear-congruential sequence shared by all sets, so evictions are
    ordered globally and no set can be replayed on its own.
    """

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
        # Each set is a dict from block id to a ``(dirty, size_bytes)``
        # line in insertion order, LRU first.
        self._sets: List[Dict[BlockId, Tuple[bool, int]]] = [
            {} for _ in range(self.num_sets)
        ]
        # A deterministic linear-congruential sequence drives random
        # victim selection so runs are reproducible.
        self._rand_state = (seed * 2654435761 + 1) & 0xFFFFFFFF
        self.stats = CacheStats()

    def _set_for(self, block: BlockId) -> Dict[BlockId, Tuple[bool, int]]:
        return self._sets[hash(block) % self.num_sets]

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
        hits = self.stats.hits
        self._replay((block,), size, write)
        return self.stats.hits > hits

    def access_tensor(self, uid: int, num_bytes: int, dirty: bool) -> int:
        """Access every block of a tensor in order; returns bytes missed.

        Equivalent to :meth:`access` on each ``(uid, index)`` block of
        :func:`tensor_blocks` — full blocks, then a partial tail.
        """
        if num_bytes < 0:
            raise ValueError("tensor size must be non-negative")
        full, tail = divmod(num_bytes, self.block_bytes)
        missed = 0
        if full:
            missed = self._replay(zip(repeat(uid), range(full)), self.block_bytes, dirty)
        if tail:
            missed += self._replay(((uid, full),), tail, dirty)
        return missed

    def _replay(self, blocks: Iterable[BlockId], size: int, write: bool) -> int:
        """Access ``blocks`` in order, each of ``size`` bytes; returns
        bytes missed.  The one place hits, fills, victims and writebacks
        are decided; counters and the random state live in locals and are
        written back once."""
        sets, num_sets, ways = self._sets, self.num_sets, self.associativity
        lru = self.replacement == "lru"
        rand = self._rand_state
        hits = misses = evictions = writebacks = written_back = 0
        for block in blocks:
            cache_set = sets[hash(block) % num_sets]
            line = cache_set.get(block)
            if line is not None:
                hits += 1
                if lru:
                    del cache_set[block]  # re-inserted at the MRU end
                if lru or (write and not line[0]):
                    cache_set[block] = (line[0] or write, line[1])
                continue
            misses += 1
            if len(cache_set) >= ways:
                if lru:
                    victim = cache_set.pop(next(iter(cache_set)))
                else:
                    rand = (rand * 1664525 + 1013904223) & 0xFFFFFFFF
                    victim = cache_set.pop(list(cache_set)[rand % len(cache_set)])
                evictions += 1
                if victim[0]:
                    writebacks += 1
                    written_back += victim[1]
            cache_set[block] = (write, size)
        self._rand_state = rand
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.dirty_writebacks += writebacks
        stats.bytes_hit += hits * size
        stats.bytes_missed += misses * size
        stats.bytes_written_back += written_back
        return misses * size

    def contains(self, block: BlockId) -> bool:
        """Whether the block is currently resident (no LRU update)."""
        return block in self._set_for(block)

    def invalidate(self, block: BlockId) -> bool:
        """Drop a block without a writeback; returns True if it was present."""
        cache_set = self._set_for(block)
        return cache_set.pop(block, None) is not None

    def flush(self) -> int:
        """Write back and drop everything; returns the dirty line count."""
        dirty = 0
        for cache_set in self._sets:
            for is_dirty, size in cache_set.values():
                if is_dirty:
                    dirty += 1
                    self.stats.dirty_writebacks += 1
                    self.stats.bytes_written_back += size
            cache_set.clear()
        return dirty

    @property
    def resident_blocks(self) -> int:
        """Number of blocks currently cached."""
        return sum(len(s) for s in self._sets)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently cached (actual block sizes)."""
        return sum(size for s in self._sets for _, size in s.values())


def tensor_blocks(tensor_uid: int, num_bytes: int, block_bytes: int) -> List[Tuple[int, int, int]]:
    """Split a tensor into cache blocks.

    Returns ``(tensor_uid, block_index, block_size)`` triples; the last
    block may be partial.
    """
    if num_bytes < 0:
        raise ValueError("tensor size must be non-negative")
    blocks = []
    index = 0
    remaining = num_bytes
    while remaining > 0:
        size = min(block_bytes, remaining)
        blocks.append((tensor_uid, index, size))
        remaining -= size
        index += 1
    return blocks
