"""Differential tests: the fastsim engines versus the reference paths.

The PR-8 determinism contract: porting the hot simulation loops onto
:mod:`repro.fastsim` (ready-heap scheduling, the shared staged event
queue, clean-artifact caching) changes *runtime only*.  Every report
field — every float, every count, every event-log entry, and the Chrome
trace bytes — must match the reference implementation exactly, not
approximately.  These tests run the same seeded scenarios through each
engine and assert structural equality, which for tuples of floats is
byte-identity.

The reference arms are:

* serving — ``schedule_batches(engine="reference")``, the original
  O(n^2) pending-list scan kept verbatim in
  :mod:`repro.fastsim.reference`;
* cluster / chaos / fleet — ``engine="reference"``, the fast engine
  plus per-event revalidation of every incremental counter against a
  from-scratch recount (the NeuroScalar-style online verifier).

The resilience simulator's oracle is the pinned section 5.5 drill-log
digest in ``tests/test_resilience.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import CampaignConfig as ChaosCampaignConfig
from repro.chaos import run_scenario, scenario_by_name
from repro.cluster import (
    AdmissionConfig,
    ClientRetryConfig,
    ClusterConfig,
    Injection,
    default_service_model,
    run_cluster,
)
from repro.fleet_global import region_outage_drill, run_fleet, standard_fleet
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceWriter
from repro.serving.batcher import CoalescingConfig, coalesce
from repro.serving.scheduler import ModelJobProfile, schedule_batches
from repro.serving.workload import poisson_stream

ENGINES = ("fast", "reference")


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
        fingerprints = {}
        for engine in ("fast", "reference"):
            registry = MetricsRegistry(enabled=True)
            result = schedule_batches(
                batches, profile, registry=registry, engine=engine
            )
            fingerprints[engine] = _schedule_fingerprint(result, registry)
        assert fingerprints["fast"] == fingerprints["reference"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            schedule_batches(
                (), ModelJobProfile(
                    remote_time_s=0.001, merge_time_s=0.001,
                    remote_jobs_per_batch=1,
                ),
                engine="warp",
            )


def _chaotic_cluster_run(engine: str):
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
    return run_cluster(
        config, service, requests,
        client=ClientRetryConfig(timeout_s=0.3, max_retries=2),
        injections=injections,
        engine=engine,
    )


class TestClusterEngines:
    def test_all_engines_byte_identical(self):
        reports = {engine: _chaotic_cluster_run(engine) for engine in ENGINES}
        assert reports["fast"] == reports["reference"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            _chaotic_cluster_run("warp")


def _trace_sha256(tracer: TraceWriter) -> str:
    document = json.dumps(tracer.document(), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


class TestChaosScenario:
    def test_defended_storm_identical_across_engines(self):
        scenario = scenario_by_name("retry_storm")
        config = ChaosCampaignConfig(duration_s=15.0)
        outcomes = {}
        hashes = {}
        for engine in ENGINES:
            tracer = TraceWriter("chaos-equivalence")
            outcomes[engine] = run_scenario(
                scenario, config, defended=True, tracer=tracer, engine=engine
            )
            hashes[engine] = _trace_sha256(tracer)
        assert outcomes["fast"] == outcomes["reference"]
        # The Chrome trace is the strictest observable: every event's
        # timestamp, lane, and payload, serialized — equal bytes or bust.
        assert hashes["fast"] == hashes["reference"]


class TestFleetDay:
    def test_outage_drill_identical_across_engines(self):
        fleet = standard_fleet(replicas_per_region=4, duration_s=24.0, seed=3)
        drill = region_outage_drill(fleet)
        reports = {
            engine: run_fleet(fleet, drill, defended=True, engine=engine)
            for engine in ENGINES
        }
        assert reports["fast"] == reports["reference"]
