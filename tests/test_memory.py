"""Tests for the memory hierarchy: cache, scratch allocator, partitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_spec
from repro.memory import (
    BufferRequest,
    MemoryHierarchy,
    Placement,
    SetAssociativeCache,
    SramPartition,
    Traffic,
    partition_for_activations,
    plan_allocation,
    tensor_blocks,
)
from repro.tensors import activation, weight
from repro.units import KiB, MiB


class TestCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(capacity_bytes=1 * MiB, block_bytes=64 * KiB)
        assert not cache.access("a")
        assert cache.access("a")
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_hit_rate(self):
        cache = SetAssociativeCache(capacity_bytes=1 * MiB, block_bytes=64 * KiB)
        cache.access("a")
        cache.access("a")
        cache.access("a")
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(
            capacity_bytes=2 * 64 * KiB, block_bytes=64 * KiB,
            associativity=2, replacement="lru",
        )
        cache.access("a")
        cache.access("b")
        cache.access("a")  # b is now LRU
        cache.access("c")  # evicts b
        assert cache.contains("a")
        assert not cache.contains("b")

    def test_lru_cyclic_thrash_is_zero_hit(self):
        """LRU degenerates on cyclic streams larger than capacity — the
        pathology that motivates random replacement for weight traffic."""
        cache = SetAssociativeCache(
            capacity_bytes=4 * 64 * KiB, block_bytes=64 * KiB,
            associativity=4, replacement="lru",
        )
        for _ in range(5):
            for block in range(8):
                cache.access(block)
        # After warmup, cyclic access never hits.
        cache.stats.reset()
        for block in range(8):
            cache.access(block)
        assert cache.stats.hit_rate == 0.0

    def test_random_cyclic_thrash_gets_some_hits(self):
        cache = SetAssociativeCache(
            capacity_bytes=64 * 64 * KiB, block_bytes=64 * KiB,
            associativity=16, replacement="random",
        )
        for _ in range(4):
            for block in range(128):
                cache.access(block)
        cache.stats.reset()
        for _ in range(4):
            for block in range(128):
                cache.access(block)
        assert cache.stats.hit_rate > 0.0

    def test_dirty_writeback_counted(self):
        cache = SetAssociativeCache(
            capacity_bytes=64 * KiB, block_bytes=64 * KiB,
            associativity=1, replacement="lru",
        )
        cache.access("a", write=True)
        cache.access("b")  # evicts dirty a
        assert cache.stats.dirty_writebacks == 1
        assert cache.stats.bytes_written_back == 64 * KiB

    def test_clean_eviction_no_writeback(self):
        cache = SetAssociativeCache(
            capacity_bytes=64 * KiB, block_bytes=64 * KiB,
            associativity=1, replacement="lru",
        )
        cache.access("a")
        cache.access("b")
        assert cache.stats.dirty_writebacks == 0

    def test_invalidate(self):
        cache = SetAssociativeCache(capacity_bytes=1 * MiB, block_bytes=64 * KiB)
        cache.access("a")
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert not cache.contains("a")

    def test_flush_writes_back_dirty(self):
        cache = SetAssociativeCache(capacity_bytes=1 * MiB, block_bytes=64 * KiB)
        cache.access("a", write=True)
        cache.access("b")
        assert cache.flush() == 1
        assert cache.resident_blocks == 0

    def test_partial_block_sizes(self):
        cache = SetAssociativeCache(capacity_bytes=1 * MiB, block_bytes=64 * KiB)
        cache.access("a", size_bytes=1000)
        assert cache.resident_bytes == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=10, block_bytes=100)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1 * MiB, replacement="plru")

    def test_tensor_blocks_partial_tail(self):
        blocks = tensor_blocks(7, 150 * KiB, 64 * KiB)
        assert len(blocks) == 3
        assert blocks[-1][2] == 150 * KiB - 2 * 64 * KiB
        assert sum(b[2] for b in blocks) == 150 * KiB


@given(
    capacity_blocks=st.integers(min_value=1, max_value=64),
    accesses=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=300),
    replacement=st.sampled_from(["lru", "random"]),
)
@settings(max_examples=60, deadline=None)
def test_cache_invariants(capacity_blocks, accesses, replacement):
    """Residency never exceeds capacity; hits + misses == accesses; a
    block just accessed is always resident."""
    block = 64 * KiB
    cache = SetAssociativeCache(
        capacity_bytes=capacity_blocks * block, block_bytes=block,
        associativity=min(4, capacity_blocks), replacement=replacement,
    )
    for address in accesses:
        cache.access(address)
        assert cache.contains(address)
        assert cache.resident_blocks <= capacity_blocks
    assert cache.stats.accesses == len(accesses)
    assert cache.stats.hits + cache.stats.misses == len(accesses)


class TestScratch:
    def test_non_overlapping_buffers_share_memory(self):
        plan = plan_allocation(
            [
                BufferRequest("a", 1000, start=0, end=1),
                BufferRequest("b", 1000, start=2, end=3),
            ]
        )
        assert plan.peak_bytes < 2000
        plan.validate()

    def test_overlapping_buffers_do_not_share(self):
        plan = plan_allocation(
            [
                BufferRequest("a", 1000, start=0, end=2),
                BufferRequest("b", 1000, start=1, end=3),
            ]
        )
        assert plan.peak_bytes >= 2000
        plan.validate()

    def test_reuse_factor(self):
        plan = plan_allocation(
            [BufferRequest(f"t{i}", 1024, start=i, end=i) for i in range(8)]
        )
        assert plan.reuse_factor == pytest.approx(8.0)

    def test_alignment(self):
        plan = plan_allocation(
            [
                BufferRequest("a", 100, start=0, end=5),
                BufferRequest("b", 100, start=0, end=5),
            ],
            alignment=128,
        )
        offsets = sorted(p.offset for p in plan.placements)
        assert offsets[1] % 128 == 0

    def test_offset_lookup(self):
        plan = plan_allocation([BufferRequest("x", 10, 0, 0)])
        assert plan.offset_of("x") == 0
        with pytest.raises(KeyError):
            plan.offset_of("missing")

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            BufferRequest("x", 0, 0, 1)
        with pytest.raises(ValueError):
            BufferRequest("x", 10, 5, 1)


@given(
    buffers=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10_000),  # size
            st.integers(min_value=0, max_value=20),  # start
            st.integers(min_value=0, max_value=20),  # duration
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_allocation_plan_never_overlaps(buffers):
    """Property: simultaneously-live buffers never overlap in memory, and
    peak never exceeds the no-reuse sum."""
    requests = [
        BufferRequest(f"b{i}", size, start, start + duration)
        for i, (size, start, duration) in enumerate(buffers)
    ]
    plan = plan_allocation(requests)
    plan.validate()
    assert plan.peak_bytes <= sum(r.size_bytes for r in requests) + 128 * len(requests)


class TestHierarchy:
    def test_partition_policy_fits_activations(self):
        chip = mtia2i_spec()
        partition = partition_for_activations(chip, 50 * MiB)
        assert partition.lls_bytes >= 50 * MiB
        assert partition.lls_bytes % chip.sram_partition_bytes == 0
        assert partition.total_bytes == chip.sram.capacity_bytes

    def test_partition_policy_overflow_falls_back_to_llc(self):
        chip = mtia2i_spec()
        partition = partition_for_activations(chip, 400 * MiB)
        assert partition.lls_bytes == 0
        assert partition.llc_bytes == chip.sram.capacity_bytes

    def test_partition_near_capacity_keeps_llc_granule(self):
        chip = mtia2i_spec()
        partition = partition_for_activations(chip, 250 * MiB)
        assert partition.llc_bytes >= chip.sram_partition_bytes

    def test_partition_granularity_enforced(self):
        with pytest.raises(ValueError):
            SramPartition(lls_bytes=5, llc_bytes=32 * MiB, granularity_bytes=32 * MiB)

    def test_lls_read_is_sram_traffic(self):
        chip = mtia2i_spec()
        hierarchy = MemoryHierarchy(chip)
        t = activation(1024, 1024)
        hierarchy.place(t, Placement.LLS)
        traffic = hierarchy.read(t)
        assert traffic.sram_bytes == t.num_bytes
        assert traffic.dram_bytes == 0

    def test_lls_capacity_enforced(self):
        chip = mtia2i_spec()
        hierarchy = MemoryHierarchy(
            chip,
            SramPartition(32 * MiB, 224 * MiB, chip.sram_partition_bytes),
        )
        big = activation(64 * 1024, 1024)  # 128 MiB
        with pytest.raises(ValueError):
            hierarchy.place(big, Placement.LLS)
        # reserve=False skips the check (liveness-managed buffers).
        hierarchy.place(big, Placement.LLS, reserve=False)

    def test_llc_cold_read_hits_dram_then_sram(self):
        chip = mtia2i_spec()
        hierarchy = MemoryHierarchy(chip)
        w = weight(1024, 1024)
        hierarchy.place(w, Placement.LLC)
        cold = hierarchy.read(w)
        assert cold.dram_bytes == w.num_bytes
        warm = hierarchy.read(w)
        assert warm.dram_bytes == 0
        assert warm.sram_bytes == w.num_bytes

    def test_no_reuse_hint_skips_writeback(self):
        chip = mtia2i_spec()
        hierarchy = MemoryHierarchy(chip)
        t = activation(128, 128)
        hierarchy.place(t, Placement.LLC)
        hierarchy.hint_no_reuse(t)
        hierarchy.write(t)
        hierarchy.llc.flush()
        assert hierarchy.llc.stats.dirty_writebacks == 0

    def test_dirty_write_without_hint_writes_back(self):
        chip = mtia2i_spec()
        hierarchy = MemoryHierarchy(chip)
        t = activation(128, 128)
        hierarchy.place(t, Placement.LLC)
        hierarchy.write(t)
        hierarchy.llc.flush()
        assert hierarchy.llc.stats.dirty_writebacks > 0

    def test_host_placement(self):
        chip = mtia2i_spec()
        hierarchy = MemoryHierarchy(chip)
        t = activation(128, 128)
        hierarchy.place(t, Placement.HOST)
        traffic = hierarchy.read(t)
        assert traffic.host_bytes == t.num_bytes

    def test_release_lls(self):
        chip = mtia2i_spec()
        hierarchy = MemoryHierarchy(chip)
        t = activation(128, 128)
        free_before = hierarchy.lls_free_bytes
        hierarchy.place(t, Placement.LLS)
        assert hierarchy.lls_free_bytes == free_before - t.num_bytes
        hierarchy.release_lls(t)
        assert hierarchy.lls_free_bytes == free_before

    def test_traffic_addition(self):
        a = Traffic(sram_bytes=1, dram_bytes=2)
        b = Traffic(sram_bytes=3, host_bytes=4)
        c = a + b
        assert c.sram_bytes == 4 and c.dram_bytes == 2 and c.host_bytes == 4
