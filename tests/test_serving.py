"""Tests for the serving simulator: workloads, coalescing, scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    Batch,
    CoalescingConfig,
    ModelJobProfile,
    Request,
    coalesce,
    coalescing_stats,
    diurnal_load_curve,
    max_throughput_under_slo,
    poisson_stream,
    schedule_batches,
    simulate_serving,
)


class TestWorkload:
    def test_poisson_rate(self):
        requests = poisson_stream(rate_per_s=100, duration_s=50, seed=1)
        assert len(requests) == pytest.approx(5000, rel=0.1)

    def test_arrivals_sorted_and_bounded(self):
        requests = poisson_stream(rate_per_s=50, duration_s=10)
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        assert all(0 <= t < 10 for t in times)

    def test_samples_positive(self):
        requests = poisson_stream(rate_per_s=50, duration_s=5)
        assert all(r.samples >= 1 for r in requests)

    def test_diurnal_curve_peak_to_mean(self):
        curve = diurnal_load_curve(1000, peak_to_mean=2.2, noise=0.0)
        assert np.max(curve) / np.mean(curve) == pytest.approx(2.2, rel=0.35)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(arrival_s=0.0, samples=0)
        with pytest.raises(ValueError):
            Request(arrival_s=-1.0, samples=1)


class TestCoalescing:
    def _config(self, **kwargs):
        defaults = dict(window_s=0.010, max_parallel_windows=4, max_batch_samples=512)
        defaults.update(kwargs)
        return CoalescingConfig(**defaults)

    def test_all_requests_batched(self):
        requests = poisson_stream(rate_per_s=200, duration_s=5, samples_per_request=32)
        batches = coalesce(requests, self._config())
        batched = sum(len(b.requests) for b in batches)
        assert batched == len(requests)

    def test_batches_respect_capacity(self):
        requests = poisson_stream(rate_per_s=500, duration_s=5, samples_per_request=64)
        config = self._config()
        batches = coalesce(requests, config)
        # Single oversized requests aside, batches stay within capacity.
        for batch in batches:
            if len(batch.requests) > 1:
                assert batch.samples <= config.max_batch_samples * 1.1

    def test_wider_window_fuller_batches(self):
        requests = poisson_stream(rate_per_s=300, duration_s=10, samples_per_request=16)
        narrow = coalescing_stats(coalesce(requests, self._config(window_s=0.001)), self._config(window_s=0.001))
        wide = coalescing_stats(coalesce(requests, self._config(window_s=0.050)), self._config(window_s=0.050))
        assert wide.mean_fill_fraction > narrow.mean_fill_fraction

    def test_high_fill_achievable(self):
        """Section 4.1: effective tuning reaches >95% requests per batch
        (near-full batches) under steady load."""
        requests = poisson_stream(rate_per_s=2000, duration_s=5, samples_per_request=32,
                                  samples_jitter=0.05)
        config = self._config(window_s=0.020, max_batch_samples=1024)
        stats = coalescing_stats(coalesce(requests, config), config)
        assert stats.mean_fill_fraction > 0.9

    def test_wait_bounded_by_window_when_uncongested(self):
        requests = poisson_stream(rate_per_s=100, duration_s=5, samples_per_request=8)
        config = self._config(window_s=0.010, max_parallel_windows=8)
        stats = coalescing_stats(coalesce(requests, config), config)
        assert stats.max_wait_s <= 0.010 * 2 + 1e-6

    def test_empty_input(self):
        assert coalesce([], self._config()) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoalescingConfig(window_s=0, max_parallel_windows=1, max_batch_samples=1)


@given(
    rate=st.floats(min_value=20, max_value=400),
    window_ms=st.floats(min_value=1, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_coalescing_conserves_requests(rate, window_ms):
    """Property: every request lands in exactly one batch."""
    requests = poisson_stream(rate_per_s=rate, duration_s=3, samples_per_request=16, seed=9)
    config = CoalescingConfig(
        window_s=window_ms / 1000, max_parallel_windows=4, max_batch_samples=256
    )
    batches = coalesce(requests, config)
    ids = sorted(r.request_id for b in batches for r in b.requests)
    assert ids == sorted(r.request_id for r in requests)


class TestScheduler:
    def _profile(self, **kwargs):
        defaults = dict(
            remote_time_s=0.005,
            merge_time_s=0.009,
            remote_jobs_per_batch=2,
            dispatch_overhead_s=0.001,
            merge_submission_delay_s=0.0008,
        )
        defaults.update(kwargs)
        return ModelJobProfile(**defaults)

    def _batches(self, count=40, gap=0.022):
        return [
            Batch(requests=[Request(arrival_s=i * gap, samples=256, request_id=i)],
                  formed_at_s=i * gap)
            for i in range(count)
        ]

    def test_all_batches_complete(self):
        result = schedule_batches(self._batches(), self._profile())
        assert len(result.completions) == 40
        for completion in result.completions:
            assert completion.merge_done_s > completion.remote_done_s >= 0

    def test_merge_depends_on_remotes(self):
        result = schedule_batches(self._batches(5), self._profile())
        for completion in result.completions:
            assert completion.merge_done_s >= completion.remote_done_s + 0.009

    def test_consolidation_preserves_grid_time(self):
        """Paper: PE-grid execution time identical in both cases."""
        profile = self._profile()
        merged = profile.consolidated()
        assert merged.remote_jobs_per_batch == 1
        assert merged.remote_time_s * merged.remote_jobs_per_batch == pytest.approx(
            profile.remote_time_s * profile.remote_jobs_per_batch
        )

    def test_consolidation_improves_p99(self):
        """The Figure 5 effect under load."""
        from repro.serving.batcher import CoalescingConfig, coalesce
        from repro.serving.workload import poisson_stream

        requests = poisson_stream(rate_per_s=100, duration_s=30, samples_per_request=256, seed=3)
        config = CoalescingConfig(window_s=0.025, max_parallel_windows=4, max_batch_samples=1024)
        batches = coalesce(requests, config)
        profile = self._profile()
        separate = schedule_batches(batches, profile)
        merged = schedule_batches(batches, profile.consolidated())
        assert merged.latency_percentile(99) < separate.latency_percentile(99)

    def test_utilization_bounded(self):
        result = schedule_batches(self._batches(), self._profile())
        assert 0 < result.utilization <= 1.0

    def test_percentiles_ordered(self):
        result = schedule_batches(self._batches(), self._profile())
        assert result.latency_percentile(50) <= result.latency_percentile(99)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ModelJobProfile(remote_time_s=-1, merge_time_s=0, remote_jobs_per_batch=1)
        with pytest.raises(ValueError):
            ModelJobProfile(remote_time_s=1, merge_time_s=1, remote_jobs_per_batch=0)


class TestSimulator:
    def test_outcome_fields(self):
        profile = ModelJobProfile(0.002, 0.004, 2)
        config = CoalescingConfig(window_s=0.010, max_parallel_windows=4, max_batch_samples=512)
        outcome = simulate_serving(profile, config, request_rate_per_s=50, duration_s=10)
        assert outcome.served_samples_per_s > 0
        assert outcome.p50_latency_s <= outcome.p99_latency_s

    def test_overload_blows_slo(self):
        profile = ModelJobProfile(0.010, 0.020, 2)
        config = CoalescingConfig(window_s=0.010, max_parallel_windows=4, max_batch_samples=256)
        outcome = simulate_serving(profile, config, request_rate_per_s=500, duration_s=10)
        assert not outcome.meets_slo

    def test_max_throughput_meets_slo(self):
        profile = ModelJobProfile(0.002, 0.004, 2, dispatch_overhead_s=0.0005)
        config = CoalescingConfig(window_s=0.015, max_parallel_windows=4, max_batch_samples=1024)
        best = max_throughput_under_slo(profile, config, duration_s=15.0, iterations=5)
        assert best.meets_slo
        assert best.served_samples_per_s > 0


class TestFaultInjection:
    """Device-fault impact on serving pools (the section 5.5 deadlock as
    the serving tier experiences it)."""

    def _pool(self, devices=100, utilization=0.6):
        from repro.serving import PoolState

        return PoolState(
            devices=devices,
            device_throughput=100_000,
            offered_load=devices * 100_000 * utilization,
        )

    def test_small_fault_rate_tolerable(self):
        from repro.serving import inject_device_faults

        impact = inject_device_faults(self._pool(), fault_rate=0.001)
        assert impact.devices_lost == 1
        assert not impact.slo_at_risk

    def test_large_fault_rate_breaks_slo(self):
        from repro.serving import inject_device_faults

        impact = inject_device_faults(self._pool(utilization=0.8), fault_rate=0.2)
        assert impact.slo_at_risk

    def test_overload_detected(self):
        from repro.serving import inject_device_faults

        impact = inject_device_faults(self._pool(utilization=0.95), fault_rate=0.1)
        assert impact.after.overloaded
        assert impact.slo_at_risk

    def test_headroom_sizing(self):
        from repro.serving import headroom_for_fault_tolerance, inject_device_faults

        pool = self._pool(utilization=0.7)
        extra = headroom_for_fault_tolerance(pool, fault_rate=0.05)
        assert extra >= 0
        import dataclasses as dc

        buffered = dc.replace(pool, devices=pool.devices + extra)
        assert not inject_device_faults(buffered, 0.05).slo_at_risk

    def test_headroom_matches_exhaustive_search(self):
        """The closed-form sizing must agree with the linear search it
        replaced, across a grid that crosses the rounding boundaries."""
        import dataclasses as dc

        from repro.serving import (
            PoolState,
            headroom_for_fault_tolerance,
            inject_device_faults,
        )

        def brute_force(pool, fault_rate, max_delay_factor):
            target = 1.0 - 1.0 / max_delay_factor
            total = pool.devices
            while True:
                candidate = dc.replace(pool, devices=total)
                impact = inject_device_faults(candidate, fault_rate)
                if (
                    not impact.after.overloaded
                    and impact.after.utilization <= target
                ):
                    return total - pool.devices
                total += 1

        for devices in (1, 3, 7, 100, 257):
            for utilization in (0.05, 0.5, 0.85, 0.99):
                for fault_rate in (0.0, 0.001, 0.1, 1 / 3, 0.9):
                    for max_delay_factor in (1.1, 1.5, 3.0):
                        pool = PoolState(
                            devices=devices,
                            device_throughput=100_000,
                            offered_load=devices * 100_000 * utilization,
                        )
                        got = headroom_for_fault_tolerance(
                            pool, fault_rate, max_delay_factor
                        )
                        want = brute_force(pool, fault_rate, max_delay_factor)
                        assert got == want, (
                            f"devices={devices} util={utilization} "
                            f"fault={fault_rate} delay={max_delay_factor}: "
                            f"closed form {got} != search {want}"
                        )

    def test_headroom_zero_when_already_buffered(self):
        from repro.serving import headroom_for_fault_tolerance

        pool = self._pool(utilization=0.1)
        assert headroom_for_fault_tolerance(pool, fault_rate=0.01) == 0

    def test_queueing_delay_grows(self):
        from repro.serving import queueing_delay_factor

        assert queueing_delay_factor(0.9) > queueing_delay_factor(0.5)
        assert queueing_delay_factor(1.0) == float("inf")

    def test_validation(self):
        from repro.serving import PoolState, inject_device_faults

        with pytest.raises(ValueError):
            PoolState(devices=0, device_throughput=1, offered_load=0)
        with pytest.raises(ValueError):
            inject_device_faults(self._pool(), fault_rate=1.0)

    def test_headroom_validation(self):
        from repro.serving import headroom_for_fault_tolerance

        with pytest.raises(ValueError):
            headroom_for_fault_tolerance(self._pool(), fault_rate=1.0)
        with pytest.raises(ValueError):
            headroom_for_fault_tolerance(self._pool(), fault_rate=-0.1)
        with pytest.raises(ValueError):
            headroom_for_fault_tolerance(
                self._pool(), fault_rate=0.1, max_delay_factor=1.0
            )
