"""Differential tests: the fast simulation paths versus their oracles.

The determinism contract: porting the hot simulation loops onto
:mod:`repro.fastsim` (ready-heap scheduling, the shared event queue,
clean-artifact caching) and onto the cluster's one event loop changes
*runtime only*.  Every report field — every float, every count, every
event-log entry, and the Chrome trace bytes — must match the exact
path exactly, not approximately.  These tests run the same seeded
scenarios through both and assert structural equality, which for
tuples of floats is byte-identity.

The oracles are kept verbatim in ``tests/``:

* serving — ``schedule_batches_reference``, the original O(n^2)
  pending-list scan (``tests/scheduler_oracle.py``);
* cluster / chaos / fleet — the cluster simulator's general event loop,
  which revalidates every incremental counter against a from-scratch
  recount after each event (``tests/cluster_oracle.py``, the
  NeuroScalar-style online verifier).  Chaos and fleet runs reach it by
  swapping the ``run_cluster`` they call.

The resilience simulator's oracle is the pinned section 5.5 drill-log
digest in ``tests/test_resilience.py``.
"""

from __future__ import annotations

import hashlib
import json

from repro.chaos import CampaignConfig as ChaosCampaignConfig
from repro.chaos import run_scenario, scenario_by_name
from repro.cluster import (
    ClusterConfig,
    Injection,
    default_service_model,
    run_cluster,
)
from repro.fleet_global import region_outage_drill, run_fleet, standard_fleet
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceWriter
from repro.resilience.policies import AdmissionConfig, ClientRetryConfig
from repro.serving.batcher import CoalescingConfig, coalesce
from repro.serving.scheduler import ModelJobProfile, schedule_batches
from repro.serving.workload import poisson_stream
from tests.cluster_oracle import run_reference
from tests.scheduler_oracle import schedule_batches_reference


def _schedule_fingerprint(result, registry):
    """Every observable of one scheduling run, floats untouched."""
    depth = registry.histogram("serving.scheduler.runnable_depth")
    return (
        result.device_busy_s,
        result.makespan_s,
        tuple(
            (c.remote_done_s, c.merge_done_s, c.batch.formed_at_s)
            for c in result.completions
        ),
        tuple(result.request_latencies()),
        result.latency_percentile(99.0),
        depth._count,
        depth._sum,
        tuple(depth._buckets),
    )


class TestServingScheduler:
    def test_fast_matches_reference(self):
        profile = ModelJobProfile(
            remote_time_s=0.004,
            merge_time_s=0.009,
            remote_jobs_per_batch=2,
            dispatch_overhead_s=0.001,
            merge_submission_delay_s=0.0008,
        )
        requests = poisson_stream(
            rate_per_s=150.0, duration_s=8.0,
            samples_per_request=64, seed=11,
        )
        batches = coalesce(
            requests,
            CoalescingConfig(
                window_s=0.01, max_parallel_windows=4, max_batch_samples=512
            ),
        )
        fingerprints = []
        for schedule in (schedule_batches, schedule_batches_reference):
            registry = MetricsRegistry(enabled=True)
            result = schedule(batches, profile, registry=registry)
            fingerprints.append(_schedule_fingerprint(result, registry))
        assert fingerprints[0] == fingerprints[1]


def _chaotic_cluster_run(run):
    """A cluster run exercising every event family the engines order:
    arrivals, departures, faults, autoscale-free injections (outage,
    slowdown, partition), and client retry timers."""
    service = default_service_model()
    requests = poisson_stream(
        rate_per_s=9.0 / service.mean_service_s * 0.75,
        duration_s=12.0,
        samples_per_request=64,
        seed=5,
    )
    config = ClusterConfig(
        replicas=9,
        num_hosts=3,
        policy="po2",
        admission=AdmissionConfig(),
        fault_rate_per_replica_hour=40.0,
        seed=5,
    )
    injections = (
        Injection(time_s=2.0, kind="down", targets=(0, 1)),
        Injection(time_s=4.0, kind="up", targets=(0, 1)),
        Injection(time_s=5.0, kind="slow", targets=(2, 3), magnitude=4.0),
        Injection(time_s=7.0, kind="slow_end", targets=(2, 3)),
        Injection(time_s=8.0, kind="partition", targets=(4,)),
        Injection(time_s=9.5, kind="heal", targets=(4,)),
    )
    return run(
        config, service, requests,
        client=ClientRetryConfig(timeout_s=0.3, max_retries=2),
        injections=injections,
    )


class TestClusterEngines:
    def test_all_engines_byte_identical(self):
        fast = _chaotic_cluster_run(run_cluster)
        assert fast.faults and fast.client_retries and fast.duplicate_service
        assert fast == _chaotic_cluster_run(run_reference)


def _trace_sha256(tracer: TraceWriter) -> str:
    document = json.dumps(tracer.document(), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


class TestChaosScenario:
    def test_defended_storm_identical_across_engines(self, monkeypatch):
        scenario = scenario_by_name("retry_storm")
        config = ChaosCampaignConfig(duration_s=15.0)
        outcomes = []
        hashes = []
        for run in (run_cluster, run_reference):
            monkeypatch.setattr("repro.chaos.campaign.run_cluster", run)
            tracer = TraceWriter("chaos-equivalence")
            outcomes.append(
                run_scenario(scenario, config, defended=True, tracer=tracer)
            )
            hashes.append(_trace_sha256(tracer))
        assert outcomes[0] == outcomes[1]
        # The Chrome trace is the strictest observable: every event's
        # timestamp, lane, and payload, serialized — equal bytes or bust.
        assert hashes[0] == hashes[1]


class TestFleetDay:
    def test_outage_drill_identical_across_engines(self, monkeypatch):
        fleet = standard_fleet(replicas_per_region=4, duration_s=24.0, seed=3)
        drill = region_outage_drill(fleet)
        reports = []
        for run in (run_cluster, run_reference):
            monkeypatch.setattr("repro.fleet_global.simulator.run_cluster", run)
            reports.append(run_fleet(fleet, drill, defended=True))
        assert reports[0] == reports[1]
