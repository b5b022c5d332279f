"""Tests for fleet-level models: contention, allocation, A/B testing."""

import numpy as np
import pytest

from repro.arch import mtia2i_server
from repro.cluster.provisioning import HostPool
from repro.fleet import (
    AllocationError,
    HOST_DRAM_AMPLIFICATION_NAIVE,
    HOST_DRAM_AMPLIFICATION_OPTIMIZED,
    NumaAllocator,
    SyntheticCtrModel,
    host_dram_contention,
    normalized_entropy,
    production_gain,
    production_utilization,
    run_ab_test,
)


class TestHostContention:
    def test_light_traffic_unconstrained(self):
        result = host_dram_contention(
            host_bytes_per_batch=1e6, batches_per_s_per_chip=100,
            server=mtia2i_server(),
        )
        assert result.throughput_scale == 1.0
        assert not result.host_bound

    def test_heavy_traffic_scales_down(self):
        """Section 3.4: host DRAM bottlenecks low-complexity models on all
        24 accelerators."""
        result = host_dram_contention(
            host_bytes_per_batch=40e6, batches_per_s_per_chip=2000,
            server=mtia2i_server(),
        )
        assert result.host_bound
        assert result.throughput_scale < 1.0

    def test_copy_elimination_helps(self):
        """The paper's optimization: eliminating memory copies halves the
        amplification."""
        naive = host_dram_contention(
            20e6, 1500, mtia2i_server(), amplification=HOST_DRAM_AMPLIFICATION_NAIVE
        )
        optimized = host_dram_contention(
            20e6, 1500, mtia2i_server(),
            amplification=HOST_DRAM_AMPLIFICATION_OPTIMIZED,
        )
        assert optimized.throughput_scale > naive.throughput_scale


class TestProductionUtilization:
    def test_smaller_devices_utilize_better(self):
        """Section 5.4: smaller chips allocate finer, idle less."""
        small = production_utilization(device_throughput=100, mean_load=450)
        large = production_utilization(device_throughput=1000, mean_load=450)
        assert small.mean_utilization > large.mean_utilization

    def test_gain_in_paper_band(self):
        """The production gain over replay was 5-90% (section 5.4)."""
        gain = production_gain(
            mtia_chip_throughput=100_000, gpu_chip_throughput=350_000,
            mean_load=700_000,
        )
        assert 1.0 <= gain <= 1.9

    def test_devices_cover_peak(self):
        result = production_utilization(device_throughput=100, mean_load=450,
                                        peak_to_mean=2.0)
        assert result.devices_provisioned * 100 >= 450 * 2.0 * 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            production_utilization(0, 100)


class TestNumaAllocator:
    def test_sharded_model_single_socket(self):
        allocator = NumaAllocator(mtia2i_server())
        grant = allocator.allocate("hc3", 2)
        assert len(grant.accelerator_ids) == 2
        # Both accelerators come from the same socket's range.
        per_socket = mtia2i_server().accelerators_per_socket
        sockets = {a // per_socket for a in grant.accelerator_ids}
        assert len(sockets) == 1

    def test_resource_shares_proportional(self):
        allocator = NumaAllocator(mtia2i_server())
        grant = allocator.allocate("m", 3)
        assert grant.cores == pytest.approx(96 * 3 / 12)

    def test_oversized_request_rejected(self):
        allocator = NumaAllocator(mtia2i_server())
        with pytest.raises(AllocationError):
            allocator.allocate("huge", 13)

    def test_exhaustion(self):
        allocator = NumaAllocator(mtia2i_server())
        for i in range(24):
            allocator.allocate(f"m{i}", 1)
        assert allocator.utilization() == 1.0
        with pytest.raises(AllocationError):
            allocator.allocate("extra", 1)

    def test_release_returns_capacity(self):
        allocator = NumaAllocator(mtia2i_server())
        grant = allocator.allocate("m", 4)
        allocator.release(grant)
        assert allocator.free_accelerators() == 24
        with pytest.raises(AllocationError):
            allocator.release(grant)

    def test_spreads_when_socket_full(self):
        allocator = NumaAllocator(mtia2i_server())
        allocator.allocate("a", 12)
        grant = allocator.allocate("b", 2)
        assert grant.socket == 1

    def test_alloc_release_round_trip_restores_state(self):
        allocator = NumaAllocator(mtia2i_server())
        before = allocator.free_by_socket()
        grants = [allocator.allocate(f"m{i}", 3) for i in range(4)]
        for grant in grants:
            allocator.release(grant)
        assert allocator.free_by_socket() == before
        assert allocator.free_accelerators() == 24
        # The round trip leaves the allocator fully usable again.
        assert len(allocator.allocate("again", 12).accelerator_ids) == 12

    def test_fragmentation_stats_empty_server(self):
        # One server's fragmentation, read through the one-host pool that
        # owns its allocator.
        stats = HostPool(num_hosts=1).fragmentation_stats()
        assert stats.free_total == 24
        assert stats.largest_socket_free == 12
        assert stats.fragmentation == pytest.approx(0.5)
        assert stats.placeable

    def test_fragmentation_blocks_large_request(self):
        """A server can have plenty free yet place no large sharded model
        — the quantity the cluster pool's capacity accounting tracks."""
        pool = HostPool(num_hosts=1)
        pool.acquire("a", 7)
        pool.acquire("b", 7)  # lands on socket 1
        stats = pool.fragmentation_stats(request_size=6)
        assert stats.free_total == 10  # 5 free on each socket
        assert stats.largest_socket_free == 5
        assert not stats.placeable
        assert stats.unplaceable_free == 10
        with pytest.raises(AllocationError):
            pool.acquire("big", 6)

    def test_fragmentation_clears_after_release(self):
        pool = HostPool(num_hosts=1)
        a = pool.acquire("a", 7)
        pool.acquire("b", 7)
        pool.release(a)
        stats = pool.fragmentation_stats(request_size=6)
        assert stats.largest_socket_free == 12
        assert stats.placeable

    def test_fragmentation_probe_validation(self):
        pool = HostPool(num_hosts=1)
        with pytest.raises(ValueError):
            pool.fragmentation_stats(request_size=0)


class TestAbTest:
    def test_normalized_entropy_perfect_predictions(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        good = normalized_entropy(np.array([0.99, 0.01, 0.99, 0.01]), labels)
        bad = normalized_entropy(np.array([0.5, 0.5, 0.5, 0.5]), labels)
        assert good < bad

    def test_ne_of_base_rate_is_one(self):
        rng = np.random.default_rng(0)
        labels = (rng.uniform(size=100_000) < 0.1).astype(float)
        base = np.full_like(labels, labels.mean())
        assert normalized_entropy(base, labels) == pytest.approx(1.0, abs=0.01)

    def test_identical_backends_parity(self):
        model = SyntheticCtrModel(seed=1)
        result = run_ab_test(model, model.exact_backend(), model.exact_backend(),
                             num_requests=50_000)
        assert result.quality_parity()
        assert abs(result.ne_delta) < 0.01

    def test_fp16_backend_parity(self):
        """Section 5.6's conclusion: the MTIA numerics path achieves
        comparable model quality."""
        model = SyntheticCtrModel(seed=2)
        fp16 = model.backend_with(lambda x: x.astype(np.float16).astype(np.float64))
        result = run_ab_test(model, model.exact_backend(), fp16, num_requests=100_000)
        assert result.quality_parity()

    def test_broken_backend_fails_parity(self):
        model = SyntheticCtrModel(seed=3)
        broken = model.backend_with(lambda x: x * 2.0 + 1.0)  # systematic bias
        result = run_ab_test(model, model.exact_backend(), broken, num_requests=50_000)
        assert not result.quality_parity()
        assert result.treatment_ne > result.control_ne

    def test_traffic_split_fraction(self):
        model = SyntheticCtrModel(seed=4)
        result = run_ab_test(model, model.exact_backend(), model.exact_backend(),
                             num_requests=20_000, treatment_fraction=0.25)
        assert result.control_ne > 0  # both arms got traffic

    def test_validation(self):
        model = SyntheticCtrModel()
        with pytest.raises(ValueError):
            run_ab_test(model, model.exact_backend(), model.exact_backend(),
                        treatment_fraction=0.0)
        with pytest.raises(ValueError):
            normalized_entropy(np.ones(3), np.ones(4))
