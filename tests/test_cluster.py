"""Tests for the multi-host serving tier (repro.cluster)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterConfig,
    ClusterReport,
    HostPool,
    Injection,
    POLICY_NAMES,
    ServiceModel,
    ShardLocalityMap,
    capacity_sweep,
    default_service_model,
    locality_comparison,
    make_policy,
    policy_comparison,
    run_cluster,
)
from repro.fleet import AllocationError
from repro.obs import MetricsRegistry, TraceWriter
from repro.resilience.policies import AdmissionConfig
from repro.serving import DiurnalTrafficModel, diurnal_poisson_stream, poisson_stream
from repro.serving.workload import FLOOR_FRACTION, Request
from tests.cluster_oracle import sample_service


@dataclasses.dataclass
class FakeReplica:
    replica_id: int
    shard: int
    outstanding: int


def _service(mean_s: float = 0.02, jitter: float = 0.3) -> ServiceModel:
    return ServiceModel(mean_service_s=mean_s, jitter_sigma=jitter)


def _run(policy="po2", replicas=4, rate=120.0, duration=20.0, seed=0, **kwargs):
    requests = poisson_stream(
        rate_per_s=rate, duration_s=duration, samples_per_request=64, seed=seed
    )
    config = ClusterConfig(replicas=replicas, num_hosts=2, policy=policy,
                           seed=seed, **kwargs.pop("config", {}))
    return run_cluster(config, _service(), requests, **kwargs)


class TestServiceModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceModel(mean_service_s=0.0)
        with pytest.raises(ValueError):
            ServiceModel(mean_service_s=0.01, jitter_sigma=-1)
        with pytest.raises(ValueError):
            ServiceModel(mean_service_s=0.01, cross_host_penalty=0.5)

    @pytest.mark.parametrize("fields", [
        {"mean_service_s": float("nan")},
        {"mean_service_s": float("inf")},
        {"mean_service_s": 0.01, "jitter_sigma": float("nan")},
        {"mean_service_s": 0.01, "cross_host_penalty": float("inf")},
    ])
    def test_rejects_non_finite_fields(self, fields):
        with pytest.raises(ValueError, match="finite"):
            ServiceModel(**fields)

    def test_jitter_is_mean_preserving(self):
        service = _service(mean_s=0.05, jitter=0.6)
        rng = np.random.default_rng(0)
        samples = [sample_service(service, rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(0.05, rel=0.02)

    def test_zero_jitter_is_deterministic(self):
        service = _service(mean_s=0.05, jitter=0.0)
        rng = np.random.default_rng(0)
        assert sample_service(service, rng) == 0.05

    def test_cross_host_penalty_applied(self):
        service = ServiceModel(mean_service_s=0.05, jitter_sigma=0.0,
                               cross_host_penalty=1.35)
        rng = np.random.default_rng(0)
        assert sample_service(service, rng, cross_host=True) == pytest.approx(0.0675)

    def test_default_model_from_serving_profile(self):
        service = default_service_model()
        # 2 remote jobs * (5 + 1) ms + 9 ms merge + 1 ms + 0.8 ms.
        assert service.mean_service_s == pytest.approx(0.0228)
        assert service.capacity_per_replica() == pytest.approx(1 / 0.0228)


class TestRoutingPolicies:
    def test_round_robin_cycles(self):
        policy = make_policy("round_robin")
        replicas = [FakeReplica(i, 0, 0) for i in range(3)]
        rng = np.random.default_rng(0)
        picks = [policy.choose(replicas, 0, rng).replica_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_jsq_picks_least_outstanding(self):
        policy = make_policy("jsq")
        replicas = [FakeReplica(0, 0, 5), FakeReplica(1, 0, 1),
                    FakeReplica(2, 0, 3)]
        assert policy.choose(
            replicas, 0, np.random.default_rng(0)
        ).replica_id == 1

    def test_po2_picks_better_of_two_sampled(self):
        policy = make_policy("po2")
        replicas = [FakeReplica(0, 0, 9), FakeReplica(1, 0, 0),
                    FakeReplica(2, 0, 9)]
        rng = np.random.default_rng(0)
        # Over many draws the idle replica wins whenever sampled, so it
        # is chosen far more often than 1/3 of the time.
        picks = [policy.choose(replicas, 0, rng).replica_id
                 for _ in range(300)]
        assert picks.count(1) > 150

    def test_po2_single_candidate(self):
        policy = make_policy("po2")
        only = [FakeReplica(7, 0, 2)]
        assert policy.choose(only, 0, np.random.default_rng(0)).replica_id == 7

    def test_locality_prefers_shard_holder(self):
        policy = make_policy("locality")
        replicas = [FakeReplica(0, 0, 3), FakeReplica(1, 1, 0)]
        # Shard 0 traffic stays on replica 0 though replica 1 is idle.
        assert policy.choose(
            replicas, 0, np.random.default_rng(0)
        ).replica_id == 0

    def test_locality_spills_under_pressure(self):
        policy = make_policy("locality", spill_outstanding=4)
        replicas = [FakeReplica(0, 0, 4), FakeReplica(1, 1, 0)]
        assert policy.choose(
            replicas, 0, np.random.default_rng(0)
        ).replica_id == 1

    def test_empty_candidates(self):
        for name in POLICY_NAMES:
            assert make_policy(name).choose(
                [], 0, np.random.default_rng(0)
            ) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("rps")


class TestAdmission:
    """The caps, observed through runs: ``count`` simultaneous arrivals
    on a tier whose service outlasts them all."""

    @staticmethod
    def _burst(count, admission, replicas=1, policy="po2"):
        requests = [
            Request(arrival_s=0.0, samples=1, request_id=i)
            for i in range(count)
        ]
        return run_cluster(
            ClusterConfig(replicas=replicas, policy=policy,
                          admission=admission),
            ServiceModel(mean_service_s=1.0, jitter_sigma=0.0),
            requests,
        )

    def test_replica_cap(self):
        report = self._burst(2, AdmissionConfig(max_outstanding_per_replica=1))
        assert (report.served, report.shed) == (1, 1)
        assert report.event_log[0] == (0.0, "shed", 1)
        for policy in POLICY_NAMES:
            report = self._burst(
                9, AdmissionConfig(max_outstanding_per_replica=4),
                replicas=2, policy=policy,
            )
            assert (report.served, report.shed) == (8, 1)

    def test_tier_cap(self):
        for policy in POLICY_NAMES:
            report = self._burst(
                11, AdmissionConfig(max_total_outstanding=10),
                replicas=4, policy=policy,
            )
            assert (report.served, report.shed) == (10, 1)
            assert report.event_log[0] == (0.0, "shed", 10)

    def test_unbounded_tier_by_default(self):
        report = self._burst(64 * 16, AdmissionConfig(), replicas=64)
        assert report.shed == 0
        assert report.served == 64 * 16

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_outstanding_per_replica=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_total_outstanding=0)


class TestAutoscaler:
    def _scaler(self, **overrides):
        defaults = dict(min_replicas=1, max_replicas=20, cooldown_s=0.0)
        defaults.update(overrides)
        return Autoscaler(AutoscalerConfig(**defaults),
                          _service(mean_s=0.02, jitter=0.0))

    def test_holds_inside_band(self):
        scaler = self._scaler()
        assert scaler.desired_replicas(0.0, 4, 0.70, 140.0) == 4

    def test_scales_up_above_band(self):
        scaler = self._scaler()
        # 400 req/s * 20 ms = 8 busy-replicas -> 12 at 70% target.
        assert scaler.desired_replicas(0.0, 4, 0.95, 400.0) == 12

    def test_scales_down_below_band(self):
        scaler = self._scaler()
        assert scaler.desired_replicas(0.0, 8, 0.10, 30.0) == 1

    def test_cooldown_blocks_flapping(self):
        scaler = self._scaler(cooldown_s=60.0)
        assert scaler.desired_replicas(0.0, 2, 0.95, 400.0) == 12
        # Immediately after a change, stay put regardless of load.
        assert scaler.desired_replicas(10.0, 12, 0.10, 10.0) == 12
        assert scaler.desired_replicas(70.0, 12, 0.10, 10.0) == 1

    def test_predictive_provisions_ahead_of_ramp(self):
        model = DiurnalTrafficModel(mean_rate_per_s=200.0, peak_to_mean=2.0,
                                    day_length_s=3600.0)
        scaler = Autoscaler(
            AutoscalerConfig(min_replicas=1, max_replicas=40, cooldown_s=0.0,
                             predictive=True, predictive_lead_s=300.0),
            _service(mean_s=0.02, jitter=0.0),
            traffic_model=model,
        )
        # Mid-ramp with calm measured load: the forecast wins.
        t = 1200.0
        forecast = model.rate_at(t + 300.0)
        expected = int(np.ceil(forecast * 0.02 / 0.70))
        assert scaler.desired_replicas(t, 1, 0.70, 100.0) == expected

    def test_forecast_never_scales_down_inside_band(self):
        model = DiurnalTrafficModel(mean_rate_per_s=10.0, peak_to_mean=2.0)
        scaler = Autoscaler(
            AutoscalerConfig(min_replicas=1, max_replicas=40, cooldown_s=0.0),
            _service(mean_s=0.02, jitter=0.0),
            traffic_model=model,
        )
        # Forecast says 1 replica, but measured load is in-band at 8.
        assert scaler.desired_replicas(0.0, 8, 0.70, 300.0) == 8

    def test_clamps_to_bounds(self):
        scaler = self._scaler(min_replicas=2, max_replicas=6)
        assert scaler.desired_replicas(0.0, 4, 0.99, 10_000.0) == 6
        assert scaler.desired_replicas(100.0, 4, 0.01, 0.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_down_utilization=0.9)
        with pytest.raises(ValueError):
            AutoscalerConfig(tick_interval_s=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(predictive_lead_s=-1.0)


class TestHostPool:
    def test_acquire_release_round_trip(self):
        pool = HostPool(num_hosts=2)
        total = pool.free_accelerators()
        grants = [pool.acquire("m", 4) for _ in range(8)]
        assert pool.free_accelerators() == total - 32
        assert {g.host_id for g in grants} == {0, 1}  # 32 spill past host 0
        for grant in grants:
            pool.release(grant)
        assert pool.free_accelerators() == total

    def test_first_fit_spills_to_next_host(self):
        pool = HostPool(num_hosts=2)
        hosts = {pool.acquire("m", 12).host_id for _ in range(4)}
        assert hosts == {0, 1}

    def test_exhaustion_raises(self):
        pool = HostPool(num_hosts=1)
        pool.acquire("a", 12)
        pool.acquire("b", 12)
        with pytest.raises(AllocationError):
            pool.acquire("c", 1)

    def test_pool_fragmentation(self):
        pool = HostPool(num_hosts=2)
        for _ in range(4):
            pool.acquire("m", 7)  # leaves 5 free on each socket
        stats = pool.fragmentation_stats(request_size=6)
        assert stats.free_total == 20
        assert stats.largest_socket_free == 5
        assert not stats.placeable

    def test_validation(self):
        with pytest.raises(ValueError):
            HostPool(num_hosts=0)
        with pytest.raises(ValueError):
            HostPool(num_hosts=1).fragmentation_stats(request_size=0)


class TestShardLocalityMap:
    def test_uniform_weights(self):
        shard_map = ShardLocalityMap.uniform(4)
        assert shard_map.num_shards == 4
        assert sum(shard_map.shard_weights) == pytest.approx(1.0)

    def test_sampling_follows_weights(self):
        shard_map = ShardLocalityMap(2, (0.9, 0.1))
        shards = shard_map.sample_shards(20_000, np.random.default_rng(0))
        assert np.mean(shards == 0) == pytest.approx(0.9, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardLocalityMap(0, ())
        with pytest.raises(ValueError):
            ShardLocalityMap(2, (0.5, 0.6))


class TestClusterSimulator:
    def test_conservation_and_no_shedding_when_provisioned(self):
        report = _run(replicas=6, rate=120.0)
        assert report.served + report.shed == report.offered
        assert report.shed == 0
        assert report.timed_out == 0
        assert report.offered > 1000

    def test_seeded_determinism(self):
        assert _run(seed=7) == _run(seed=7)

    def test_different_seeds_differ(self):
        assert _run(seed=1) != _run(seed=2)

    def test_registry_and_tracer_do_not_change_results(self):
        bare = _run()
        registry = MetricsRegistry()
        tracer = TraceWriter("cluster-test")
        observed = _run(registry=registry, tracer=tracer)
        assert bare.latencies_s == observed.latencies_s
        assert bare.event_log == observed.event_log
        assert registry.counter("cluster.admitted").value == bare.offered
        document = tracer.document()
        assert any(e.get("cat") == "service" for e in document["traceEvents"])

    def test_overload_sheds_and_conserves(self):
        report = _run(
            replicas=1, rate=200.0, duration=10.0,
            config={"admission": AdmissionConfig(max_outstanding_per_replica=4)},
        )
        assert report.shed > 0
        assert report.served + report.shed == report.offered
        shed_ids = [e for _, kind, e in report.event_log if kind == "shed"]
        assert len(shed_ids) == report.shed

    def test_tier_wide_admission_cap(self):
        report = _run(
            replicas=4, rate=400.0, duration=5.0,
            config={"admission": AdmissionConfig(max_total_outstanding=8)},
        )
        outstanding_cap = 8 + 1  # cap checked before enqueue
        assert report.shed > 0
        assert max(
            (e for _, kind, e in report.event_log if kind == "shed"),
            default=0,
        ) <= report.offered
        assert report.served + report.shed == report.offered
        assert outstanding_cap  # documents the check granularity

    def test_faults_drain_and_requests_retry(self):
        report = _run(
            replicas=4, rate=100.0, duration=60.0,
            config={"fault_rate_per_replica_hour": 120.0},
        )
        assert report.faults > 0
        assert report.retried > 0
        # Fault-stranded requests past the retry deadline are lost, not
        # bounced forever: conservation is now three-way.
        assert report.served + report.shed + report.timed_out == report.offered
        kinds = {kind for _, kind, _ in report.event_log}
        assert "fault" in kinds and "recover" in kinds

    def test_fault_retries_respect_deadline_cutoff(self):
        bounded = _run(
            replicas=4, rate=100.0, duration=60.0,
            config={"fault_rate_per_replica_hour": 400.0},
        )
        unbounded = _run(
            replicas=4, rate=100.0, duration=60.0,
            config={"fault_rate_per_replica_hour": 400.0,
                    "retry_deadline_slos": None},
        )
        # The cutoff converts late fault-retries into timeouts; disabling
        # it restores the old re-route-forever behaviour.
        assert bounded.timed_out > 0
        assert unbounded.timed_out == 0
        assert unbounded.served + unbounded.shed == unbounded.offered
        timeout_ids = [e for _, kind, e in bounded.event_log
                       if kind == "timeout"]
        assert len(timeout_ids) == bounded.timed_out == len(set(timeout_ids))

    def test_every_request_served_once(self):
        report = _run(replicas=4, rate=100.0, duration=30.0,
                      config={"fault_rate_per_replica_hour": 60.0})
        served = [e for _, kind, e in report.event_log if kind == "serve"]
        shed = [e for _, kind, e in report.event_log if kind == "shed"]
        assert len(served) == len(set(served)) == report.served
        assert not set(served) & set(shed)

    def test_no_locality_means_no_cross_host(self):
        report = _run(policy="jsq")
        assert report.cross_host_served == 0
        assert report.cross_host_fraction == 0.0

    def test_locality_policy_eliminates_cross_host(self):
        requests = poisson_stream(rate_per_s=60.0, duration_s=20.0,
                                  samples_per_request=64, seed=0)
        shard_map = ShardLocalityMap.uniform(4)
        jsq = run_cluster(
            ClusterConfig(replicas=8, num_hosts=2, policy="jsq"),
            _service(), requests, locality=shard_map,
        )
        local = run_cluster(
            ClusterConfig(replicas=8, num_hosts=2, policy="locality"),
            _service(), requests, locality=shard_map,
        )
        assert jsq.cross_host_fraction > 0.5
        assert local.cross_host_fraction < jsq.cross_host_fraction

    def test_autoscaler_tracks_diurnal_ramp(self):
        model = DiurnalTrafficModel(mean_rate_per_s=80.0, peak_to_mean=2.0,
                                    day_length_s=600.0)
        requests = diurnal_poisson_stream(model, duration_s=600.0, seed=0)
        autoscaler = Autoscaler(
            AutoscalerConfig(min_replicas=1, max_replicas=16,
                             tick_interval_s=10.0, cooldown_s=20.0),
            _service(), traffic_model=model,
        )
        report = run_cluster(
            ClusterConfig(replicas=1, num_hosts=2, policy="po2"),
            _service(), requests, autoscaler=autoscaler,
        )
        assert report.scale_events  # it reacted
        assert report.peak_replicas > 1  # scaled up for the peak
        assert report.served + report.shed == report.offered

    def test_pool_exhaustion_caps_scale_up(self):
        requests = poisson_stream(rate_per_s=900.0, duration_s=5.0,
                                  samples_per_request=64, seed=0)
        autoscaler = Autoscaler(
            AutoscalerConfig(min_replicas=1, max_replicas=64,
                             tick_interval_s=1.0, cooldown_s=0.0),
            _service(),
        )
        pool = HostPool(num_hosts=1)  # 24 accelerators, hard ceiling
        report = run_cluster(
            ClusterConfig(replicas=1, num_hosts=1, policy="po2"),
            _service(), requests, autoscaler=autoscaler, pool=pool,
        )
        assert report.peak_replicas <= 24
        assert report.served + report.shed == report.offered

    def test_config_validation(self):
        for bad in (
            dict(replicas=0),
            dict(accelerators_per_replica=0),
            dict(num_hosts=0),
            dict(p99_slo_s=0.0),
            dict(fault_rate_per_replica_hour=-1.0),
            dict(retry_deadline_slos=0.0),
        ):
            with pytest.raises(ValueError):
                ClusterConfig(**bad)

    def test_report_enforces_conservation(self):
        with pytest.raises(ValueError):
            ClusterReport(
                policy="po2", seed=0, duration_s=1.0, offered=10, served=8,
                shed=1, retried=0, cross_host_served=0, latencies_s=(),
                busy_seconds=0.0, replica_seconds=1.0, peak_replicas=1,
                final_replicas=1, faults=0, scale_events=(), event_log=(),
            )

    def test_report_percentiles_and_slo(self):
        report = _run(replicas=6, rate=120.0)
        assert 0 < report.p50_latency_s <= report.p99_latency_s
        assert report.meets_slo(report.p99_latency_s + 1e-9)
        assert not report.meets_slo(report.p50_latency_s / 10)
        assert "policy=po2" in report.summary()


class TestDiurnalTraffic:
    def test_rate_peaks_and_floors(self):
        model = DiurnalTrafficModel(mean_rate_per_s=100.0, peak_to_mean=2.0,
                                    day_length_s=86_400.0)
        assert model.peak_rate_per_s == pytest.approx(200.0)
        # Quarter-day after the trough sits at the mean.
        assert model.rate_at(21_600.0) == pytest.approx(100.0)
        assert min(
            model.rate_at(t) for t in np.linspace(0, 86_400, 97)
        ) >= 100.0 * FLOOR_FRACTION

    def test_stream_is_seeded_deterministic(self):
        model = DiurnalTrafficModel(mean_rate_per_s=50.0)
        a = diurnal_poisson_stream(model, duration_s=300.0, seed=3)
        b = diurnal_poisson_stream(model, duration_s=300.0, seed=3)
        assert a == b
        assert a != diurnal_poisson_stream(model, duration_s=300.0, seed=4)

    def test_arrivals_sorted_and_bounded(self):
        model = DiurnalTrafficModel(mean_rate_per_s=50.0)
        requests = diurnal_poisson_stream(model, duration_s=500.0, seed=0)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t <= 500.0 for t in arrivals)

    def test_peak_window_busier_than_trough(self):
        model = DiurnalTrafficModel(mean_rate_per_s=100.0, peak_to_mean=2.5,
                                    day_length_s=1000.0)
        requests = diurnal_poisson_stream(model, duration_s=1000.0, seed=1)
        trough = sum(1 for r in requests if r.arrival_s < 200.0)
        peak = sum(1 for r in requests if 400.0 <= r.arrival_s < 600.0)
        assert peak > 2 * trough

    def test_bursts_add_arrivals(self):
        model = DiurnalTrafficModel(mean_rate_per_s=80.0, day_length_s=600.0)
        calm = diurnal_poisson_stream(model, duration_s=600.0, seed=2)
        bursty = diurnal_poisson_stream(
            model, duration_s=600.0, seed=2,
            burst_rate_per_hour=60.0, burst_factor=4.0, burst_duration_s=30.0,
        )
        assert len(bursty) > len(calm) * 1.05

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrafficModel(mean_rate_per_s=0.0)
        with pytest.raises(ValueError):
            DiurnalTrafficModel(mean_rate_per_s=1.0, peak_to_mean=0.5)

    def test_phase_h_zero_is_byte_identical(self):
        """The fleet tier's timezone knob must not perturb existing
        users: with ``phase_h=0`` every rate is the exact pre-fleet
        float, and the generated stream is unchanged."""
        import math

        model = DiurnalTrafficModel(mean_rate_per_s=120.0, peak_to_mean=2.2,
                                    day_length_s=600.0, phase_s=37.0)
        assert model.phase_h == 0.0
        for t in np.linspace(0.0, 600.0, 113):
            angle = 2.0 * math.pi * (t + model.phase_s) / model.day_length_s
            raw = 1.0 + (model.peak_to_mean - 1.0) * math.sin(
                angle - math.pi / 2.0
            )
            expected = model.mean_rate_per_s * max(raw, FLOOR_FRACTION)
            assert model.rate_at(float(t)) == expected  # exact, not approx
        assert diurnal_poisson_stream(
            model, duration_s=600.0, seed=7
        ) == diurnal_poisson_stream(
            dataclasses.replace(model, phase_h=0.0), duration_s=600.0, seed=7
        )

    def test_phase_h_moves_the_peak_east(self):
        model = DiurnalTrafficModel(mean_rate_per_s=100.0, peak_to_mean=2.0,
                                    day_length_s=24.0)
        # Unshifted peak at midday; 6 hours east peaks a quarter-day
        # earlier, whatever the compressed day length.
        assert model.rate_at(12.0) == pytest.approx(model.peak_rate_per_s)
        east = dataclasses.replace(model, phase_h=6.0)
        assert east.rate_at(6.0) == pytest.approx(model.peak_rate_per_s)
        assert east.rate_at(12.0) < model.rate_at(12.0)
        # A full lap restores the curve.
        lap = dataclasses.replace(model, phase_h=24.0)
        for t in (0.0, 5.0, 17.5):
            assert lap.rate_at(t) == pytest.approx(model.rate_at(t))

    def test_phase_h_shifts_the_stream(self):
        model = DiurnalTrafficModel(mean_rate_per_s=100.0, peak_to_mean=2.5,
                                    day_length_s=1000.0)
        shifted = diurnal_poisson_stream(
            dataclasses.replace(model, phase_h=12.0), duration_s=1000.0, seed=1
        )
        # Half a day of shift puts the peak where the trough was.
        early = sum(1 for r in shifted if r.arrival_s < 200.0)
        middle = sum(1 for r in shifted if 400.0 <= r.arrival_s < 600.0)
        assert early > 2 * middle

    def test_scaled_multiplies_the_mean(self):
        model = DiurnalTrafficModel(mean_rate_per_s=100.0)
        assert model.scaled(0.25).mean_rate_per_s == pytest.approx(25.0)
        assert model.scaled(0.25).peak_to_mean == model.peak_to_mean
        with pytest.raises(ValueError):
            model.scaled(0.0)


class TestConfigBoundary:
    """Bad cluster configuration fails where it is built, not mid-run."""

    @pytest.mark.parametrize("fields", [
        {"p99_slo_s": float("nan")},
        {"fault_rate_per_replica_hour": float("nan")},
        {"retry_deadline_slos": float("inf")},
    ])
    def test_rejects_non_finite_floats(self, fields):
        with pytest.raises(ValueError, match="finite"):
            ClusterConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"replicas": 2.5},
        {"replicas": True},
        {"num_hosts": 3.0},
        {"accelerators_per_replica": 1.5},
    ])
    def test_rejects_non_integer_counts(self, fields):
        with pytest.raises(ValueError, match="integer"):
            ClusterConfig(**fields)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="routing policy"):
            ClusterConfig(policy="bogus")

    @pytest.mark.parametrize("fields", [
        {"max_outstanding_per_replica": 2.5},
        {"max_outstanding_per_replica": True},
        {"max_total_outstanding": 4.0},
    ])
    def test_admission_rejects_non_integer_caps(self, fields):
        with pytest.raises(ValueError, match="integer"):
            AdmissionConfig(**fields)

    def test_numpy_integers_are_counts(self):
        config = ClusterConfig(
            replicas=np.int64(3), num_hosts=np.int32(2),
            admission=AdmissionConfig(max_outstanding_per_replica=np.int64(4)),
        )
        assert config.replicas == 3

    @pytest.mark.parametrize("compare", [policy_comparison, locality_comparison])
    @pytest.mark.parametrize("replicas", [0, -4])
    def test_comparisons_reject_replica_count_before_drawing(
        self, monkeypatch, compare, replicas
    ):
        def no_stream(*args):
            raise AssertionError("drew a request stream")

        monkeypatch.setattr("repro.cluster.capacity._stream", no_stream)
        with pytest.raises(ValueError, match="need at least one replica"):
            compare(default_service_model(), replicas=replicas)


class TestInjectionTargets:
    """A scheduled injection names replicas that can exist, or fails loudly."""

    @staticmethod
    def _run(injections, replicas=2, autoscaler=None):
        service = ServiceModel(mean_service_s=0.01, jitter_sigma=0.0)
        requests = [Request(arrival_s=0.1 * i, samples=1, request_id=i)
                    for i in range(10)]
        return run_cluster(
            ClusterConfig(replicas=replicas, num_hosts=2), service, requests,
            autoscaler=autoscaler and Autoscaler(autoscaler, service),
            injections=injections,
        )

    @pytest.mark.parametrize("fields", [
        {"targets": (-1, 7)}, {"targets": (True,)}, {"targets": (1.0,)},
        {"time_s": math.nan}, {"time_s": math.inf}, {"time_s": -1.0},
        {"magnitude": math.nan}, {"magnitude": math.inf},
    ], ids=repr)
    def test_rejected_at_construction(self, fields):
        with pytest.raises(ValueError):
            Injection(**{"time_s": 0.5, "kind": "down", **fields})

    def test_missing_replica_rejected_at_run_start(self):
        with pytest.raises(ValueError, match="beyond the 2"):
            self._run([Injection(0.5, "down", (1, 2))])
        report = self._run([Injection(0.5, "down", (1,))])
        assert (0.5, "inject_down", 1) in report.event_log

    def test_autoscaled_runs_may_name_future_replicas(self):
        report = self._run(
            [Injection(0.5, "down", (5,))],
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=8),
        )
        assert report.offered == 10


class TestCapacityPlanning:
    def test_sweep_covers_grid_and_scalars(self):
        service = _service(mean_s=0.02, jitter=0.2)
        sweep = capacity_sweep(
            service, qps_points=[50.0], policies=("po2", "jsq"),
            duration_s=10.0,
        )
        assert len(sweep.points) == 2
        point = sweep.point("po2", 50.0)
        assert point.feasible
        assert point.replicas >= 1
        scalars = sweep.scalars()
        assert "replicas_po2_at_50qps" in scalars
        assert "po2" in sweep.table()
        with pytest.raises(KeyError):
            sweep.point("po2", 999.0)

    def test_sweep_builds_each_stream_once(self, monkeypatch):
        from repro.cluster import capacity

        built = []
        stream = capacity.poisson_stream

        def counted(*args, **kwargs):
            built.append(kwargs["rate_per_s"])
            return stream(*args, **kwargs)

        monkeypatch.setattr(capacity, "poisson_stream", counted)
        service = _service(mean_s=0.02, jitter=0.2)
        sweep = capacity_sweep(
            service, qps_points=[60.0, 30.0, 60.0],
            policies=("po2", "jsq", "locality"), duration_s=4.0,
        )
        assert built == [60.0, 30.0]
        assert capacity._row_stream is None  # freed with its row
        assert [(p.policy, p.offered_qps) for p in sweep.points] == [
            (policy, qps)
            for policy in ("po2", "jsq", "locality")
            for qps in (60.0, 30.0, 60.0)
        ]
        for point in sweep.points:
            assert point == capacity.replicas_needed(
                point.policy, point.offered_qps, service, duration_s=4.0
            )

    def test_a_row_stream_serves_only_its_own_key(self, monkeypatch):
        from repro.cluster import capacity

        row = ((60.0, 4.0, 0), capacity._stream(60.0, 4.0, 0))
        monkeypatch.setattr(capacity, "_row_stream", row)
        assert capacity._stream(60.0, 4.0, 0) is row[1]
        for key in ((30.0, 4.0, 0), (60.0, 5.0, 0), (60.0, 4.0, 1)):
            assert capacity._stream(*key) == poisson_stream(
                key[0], key[1], samples_per_request=64, seed=key[2]
            )

    def test_sweep_points_come_back_policy_major(self):
        service = _service(mean_s=0.02, jitter=0.2)
        sweep = capacity_sweep(service, qps_points=[30.0, 60.0, 30.0],
                               policies=("po2", "jsq", "po2"), duration_s=4.0)
        assert [(p.policy, p.offered_qps) for p in sweep.points] == [
            (policy, qps)
            for policy in ("po2", "jsq", "po2")
            for qps in (30.0, 60.0, 30.0)
        ]

    def test_sweep_rejects_a_non_positive_qps(self):
        with pytest.raises(ValueError, match="QPS must be positive"):
            capacity_sweep(_service(mean_s=0.02, jitter=0.2), [30.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_capacity_rejects_non_finite_qps_and_duration(self, bad):
        from repro.cluster import capacity

        service = _service(mean_s=0.02, jitter=0.2)
        with pytest.raises(ValueError, match="offered_qps must be finite"):
            capacity.replicas_needed("jsq", bad, service)
        with pytest.raises(ValueError, match="duration_s must be finite"):
            capacity.replicas_needed("jsq", 30.0, service, duration_s=bad)
        with pytest.raises(ValueError, match="qps_points must be finite"):
            capacity_sweep(service, [30.0, bad])
        with pytest.raises(ValueError, match="duration_s must be finite"):
            capacity_sweep(service, [30.0], duration_s=bad)

    def test_more_qps_needs_no_fewer_replicas(self):
        service = _service(mean_s=0.02, jitter=0.2)
        low = capacity_sweep(service, [40.0], policies=("jsq",),
                             duration_s=10.0).point("jsq", 40.0)
        high = capacity_sweep(service, [160.0], policies=("jsq",),
                              duration_s=10.0).point("jsq", 160.0)
        assert high.replicas >= low.replicas


class TestGoldenShapes:
    """The two orderings the issue pins, on the benchmark configuration."""

    @pytest.fixture(scope="class")
    def probes(self):
        # Same configuration as benchmarks/test_cluster_capacity.py, so
        # these pins and the GOLDEN_SCALARS entries agree.
        service = default_service_model()
        tails = policy_comparison(service, target_utilization=0.85,
                                  duration_s=60.0)
        shards = locality_comparison(service, duration_s=60.0)
        return tails, shards

    def test_po2_beats_round_robin_at_high_utilization(self, probes):
        tails, _ = probes
        assert all(r.utilization >= 0.80 for r in tails.values())
        assert tails["po2"].p99_latency_s < tails["round_robin"].p99_latency_s

    def test_locality_cuts_cross_host_traffic(self, probes):
        _, shards = probes
        assert shards["jsq"].cross_host_fraction > 0.5
        assert shards["locality"].cross_host_fraction < 0.05

    def test_pinned_values(self, probes):
        tails, shards = probes
        assert tails["round_robin"].p99_latency_s == pytest.approx(
            0.1357294585487292, rel=0.05
        )
        assert tails["po2"].p99_latency_s == pytest.approx(
            0.11015150533913243, rel=0.05
        )
        assert shards["jsq"].cross_host_fraction == pytest.approx(
            0.7463783329834138, rel=0.05
        )
        assert shards["locality"].cross_host_fraction == 0.0
