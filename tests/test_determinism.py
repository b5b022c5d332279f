"""Reproducibility: every stochastic entry point, run twice with the same
seed, must produce identical results — and a different seed must actually
change the draw.

The fleet studies (sections 5.1-5.5) are Monte-Carlo models; without
seed discipline their numbers would drift between runs and the paper's
reported bands could not be checked against them.
"""

import numpy as np
import pytest

from repro.fleet import (
    SyntheticCtrModel,
    production_gain,
    production_utilization,
    run_ab_test,
)
from repro.reliability import (
    deadlock_incidence,
    run_overclocking_study,
    sample_fleet_errors,
    sensitivity_study,
    staged_detection,
)
from repro.resilience import (
    FaultRates,
    ResilienceConfig,
    presample_fault_arrivals,
    run_resilience,
)
from repro.serving import (
    CoalescingConfig,
    ModelJobProfile,
    diurnal_load_curve,
    poisson_stream,
    simulate_serving,
)


class TestServingWorkloads:
    def test_poisson_stream(self):
        first = poisson_stream(rate_per_s=200.0, duration_s=5.0, seed=9)
        again = poisson_stream(rate_per_s=200.0, duration_s=5.0, seed=9)
        assert first == again
        other = poisson_stream(rate_per_s=200.0, duration_s=5.0, seed=10)
        assert first != other

    def test_diurnal_load_curve(self):
        first = diurnal_load_curve(1000.0, seed=4)
        again = diurnal_load_curve(1000.0, seed=4)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, diurnal_load_curve(1000.0, seed=5))

    def test_simulate_serving(self):
        profile = ModelJobProfile(0.002, 0.004, 2, dispatch_overhead_s=0.0005)
        config = CoalescingConfig(
            window_s=0.015, max_parallel_windows=4, max_batch_samples=1024
        )
        first = simulate_serving(profile, config, request_rate_per_s=120.0,
                                 duration_s=10.0, seed=6)
        again = simulate_serving(profile, config, request_rate_per_s=120.0,
                                 duration_s=10.0, seed=6)
        assert first == again


class TestReliabilityStudies:
    def test_sample_fleet_errors(self):
        assert sample_fleet_errors(servers=500, seed=3) == sample_fleet_errors(
            servers=500, seed=3
        )

    def test_deadlock_incidence(self):
        assert deadlock_incidence(seed=2) == deadlock_incidence(seed=2)

    def test_staged_detection(self):
        first = staged_detection(issue_incidence=0.0005, seed=8)
        assert first == staged_detection(issue_incidence=0.0005, seed=8)

    def test_run_overclocking_study(self):
        first = run_overclocking_study(num_chips=200, seed=1)
        again = run_overclocking_study(num_chips=200, seed=1)
        assert first == again

    def test_run_overclocking_study_default_matches_historical_seed(self):
        """The no-argument call keeps reproducing the pre-seed-threading
        numbers (default_rng(0))."""
        assert run_overclocking_study(num_chips=200) == run_overclocking_study(
            num_chips=200, seed=0
        )

    def test_sensitivity_study(self):
        first = sensitivity_study(trials_per_region=20, seed=5)
        again = sensitivity_study(trials_per_region=20, seed=5)
        assert first.outcomes == again.outcomes


class TestFleetStudies:
    def test_production_utilization_seed(self):
        first = production_utilization(1000.0, 10_000.0, seed=13)
        again = production_utilization(1000.0, 10_000.0, seed=13)
        assert first == again
        assert first != production_utilization(1000.0, 10_000.0, seed=14)

    def test_production_utilization_default_matches_historical_seed(self):
        """The no-argument call must keep reproducing the pre-seed-threading
        numbers (default_rng(42))."""
        assert production_utilization(1000.0, 10_000.0) == production_utilization(
            1000.0, 10_000.0, seed=42
        )

    def test_production_gain_seed(self):
        first = production_gain(1000.0, 5000.0, 10_000.0, seed=17)
        again = production_gain(1000.0, 5000.0, 10_000.0, seed=17)
        assert first == again

    def test_run_ab_test(self):
        model = SyntheticCtrModel(seed=0)
        backend = model.exact_backend()
        first = run_ab_test(model, backend, backend, num_requests=5_000, seed=11)
        again = run_ab_test(model, backend, backend, num_requests=5_000, seed=11)
        assert first == again
        assert first != run_ab_test(
            model, backend, backend, num_requests=5_000, seed=12
        )

    def test_run_ab_test_default_matches_historical_seed(self):
        """The default call keeps reproducing the pre-seed-threading
        traffic (default_rng(11))."""
        model = SyntheticCtrModel(seed=0)
        backend = model.exact_backend()
        assert run_ab_test(
            model, backend, backend, num_requests=5_000
        ) == run_ab_test(model, backend, backend, num_requests=5_000, seed=11)


class TestResilienceDeterminism:
    _RATES = FaultRates(0.01, 0.002, 0.0, 0.05)
    _CONFIG = ResilienceConfig(
        devices=30, offered_load=21_000.0, duration_s=86_400.0, seed=19,
    )

    def test_presampled_arrivals(self):
        first = presample_fault_arrivals(
            self._RATES, 30, 86_400.0, np.random.default_rng(19)
        )
        again = presample_fault_arrivals(
            self._RATES, 30, 86_400.0, np.random.default_rng(19)
        )
        assert first == again

    def test_full_run_event_log(self):
        first = run_resilience(self._CONFIG, self._RATES,
                               mitigated=True)
        again = run_resilience(self._CONFIG, self._RATES,
                               mitigated=True)
        assert first.events.to_jsonable() == again.events.to_jsonable()
        assert first.goodput_series == again.goodput_series

    def test_seed_changes_the_schedule(self):
        first = run_resilience(self._CONFIG, self._RATES,
                               mitigated=True)
        import dataclasses

        other_config = dataclasses.replace(self._CONFIG, seed=20)
        other = run_resilience(other_config, self._RATES,
                               mitigated=True)
        assert first.events.to_jsonable() != other.events.to_jsonable()


@pytest.mark.parametrize("seed", [0, 1])
def test_module_level_rng_not_disturbed(seed):
    """Entry points must use their own generators, never the global numpy
    state — calling one mid-stream must not perturb an unrelated draw."""
    rng = np.random.default_rng(seed)
    before = rng.standard_normal(4).tolist()
    rng = np.random.default_rng(seed)
    _ = rng.standard_normal(2)
    sample_fleet_errors(servers=100, seed=0)
    deadlock_incidence(seed=0)
    after2 = rng.standard_normal(2).tolist()
    assert before[2:] == after2


@pytest.mark.parametrize("seed", [0, 1])
def test_fastsim_entry_points_leave_global_rng_alone(seed):
    """The PR-8 fast engines inherit the same audit: a fast-path
    scheduling run and a cluster run must not touch numpy's global
    state or the stdlib ``random`` module (no ad-hoc ``random.Random``
    crept in)."""
    import random as stdlib_random

    from repro.cluster import ClusterConfig, default_service_model
    from repro.cluster.simulator import run_cluster
    from repro.serving.batcher import CoalescingConfig, coalesce
    from repro.serving.scheduler import ModelJobProfile, schedule_batches
    from repro.serving.workload import poisson_stream

    rng = np.random.default_rng(seed)
    before = rng.standard_normal(4).tolist()
    np.random.seed(seed)
    global_before = np.random.random(2).tolist()
    np.random.seed(seed)
    _ = np.random.random(1)
    stdlib_state = stdlib_random.getstate()

    rng = np.random.default_rng(seed)
    _ = rng.standard_normal(2)
    requests = poisson_stream(
        rate_per_s=40.0, duration_s=2.0, samples_per_request=16, seed=0
    )
    batches = coalesce(
        requests,
        CoalescingConfig(
            window_s=0.01, max_parallel_windows=4, max_batch_samples=256
        ),
    )
    schedule_batches(
        batches,
        ModelJobProfile(
            remote_time_s=0.002, merge_time_s=0.004, remote_jobs_per_batch=2
        ),
    )
    service = default_service_model()
    run_cluster(ClusterConfig(replicas=3, seed=0), service, requests)

    assert rng.standard_normal(2).tolist() == before[2:]
    assert np.random.random(1).tolist() == global_before[1:]
    assert stdlib_random.getstate() == stdlib_state
