"""Differential test: the hook-free cluster loop versus the general one.

``ClusterSimulator.run`` takes a specialized loop (``run_plain``) when
nothing is attached that could fault, partition, retry, throttle,
rescale or observe the tier.  ``engine="reference"`` always takes the
general loop, with its per-event recount of every queue-depth counter,
so it is the oracle: the two runs must agree on the whole
``ClusterReport``, every float and every event-log entry included, and
must leave the generator in the same state (the hook-free loop draws
service times in blocks it rewinds).

Arrival times and service times are drawn on dyadic grids, so equal
arrival timestamps and arrival-versus-departure ties are common and
exact; the stream is passed in shuffled order.  Small per-replica caps
and tier caps make saturation and shedding common.
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AdmissionConfig,
    ClusterConfig,
    ClusterSimulator,
    ServiceModel,
    ShardLocalityMap,
    run_cluster,
)
from repro.cluster import simulator
from repro.cluster.routing import POLICY_NAMES
from repro.obs.metrics import MetricsRegistry
from repro.serving.workload import Request, poisson_stream

GRID_S = 2.0 ** -7


@contextlib.contextmanager
def plain_loop_spy():
    """Count the runs that took the hook-free loop."""
    calls = []
    original = simulator.run_plain

    def spy(sim, *args):
        calls.append(sim.engine)
        return original(sim, *args)

    simulator.run_plain = spy
    try:
        yield calls
    finally:
        simulator.run_plain = original


@st.composite
def _ticks(draw):
    """Arrival grid steps: a short span forces many equal timestamps."""
    span = draw(st.sampled_from([4, 16, 60]))
    return draw(st.lists(
        st.integers(min_value=0, max_value=span), max_size=120
    ))


_runs = st.fixed_dictionaries({
    "policy": st.sampled_from(POLICY_NAMES),
    "replicas": st.integers(min_value=1, max_value=12),
    "num_hosts": st.integers(min_value=1, max_value=12),
    "num_shards": st.integers(min_value=1, max_value=4),
    "per_replica": st.sampled_from([1, 2, 3, 16]),
    "total": st.sampled_from([None, 1, 3, 8]),
    "fail_fast": st.booleans(),
    "p99_slo_s": st.sampled_from([2.0 ** -4, 2.0 ** -2, 0.1]),
    "mean_service_s": st.sampled_from([2.0 ** -6, 2.0 ** -5, 0.013]),
    "jitter_sigma": st.sampled_from([0.0, 0.0, 0.3, 0.45]),
    "cross_host_penalty": st.sampled_from([1.0, 1.35, 2.0]),
    "ticks": _ticks(),
    "seed": st.integers(min_value=0, max_value=2**16),
})


def _run(config, service, requests, locality, engine, fail_fast=False):
    """The report and the generator state the run left behind."""
    simulator = ClusterSimulator(
        config, service, requests, locality=locality, engine=engine,
        fail_fast=fail_fast,
    )
    report = simulator.run()
    return report, simulator._rng.bit_generator.state


def _simulate(draw, engine):
    config = ClusterConfig(
        replicas=draw["replicas"],
        num_hosts=draw["num_hosts"],
        policy=draw["policy"],
        p99_slo_s=draw["p99_slo_s"],
        admission=AdmissionConfig(
            max_outstanding_per_replica=draw["per_replica"],
            max_total_outstanding=draw["total"],
        ),
        seed=draw["seed"],
    )
    service = ServiceModel(
        mean_service_s=draw["mean_service_s"],
        jitter_sigma=draw["jitter_sigma"],
        cross_host_penalty=draw["cross_host_penalty"],
    )
    requests = [
        Request(arrival_s=tick * GRID_S, samples=1, request_id=i)
        for i, tick in enumerate(draw["ticks"])
    ]
    random.Random(draw["seed"]).shuffle(requests)
    return _run(
        config, service, requests,
        ShardLocalityMap.uniform(draw["num_shards"]),
        engine, fail_fast=draw["fail_fast"],
    )


@settings(max_examples=300, deadline=None)
@given(draw=_runs)
def test_plain_loop_matches_reference(draw):
    with plain_loop_spy() as calls:
        fast = _simulate(draw, "fast")
        reference = _simulate(draw, "reference")
    assert calls == ["fast"]
    assert fast == reference


def test_capacity_scale_run_matches_reference():
    """One long saturated run: queues build, the cap binds, work sheds."""
    config = ClusterConfig(
        replicas=6, policy="locality",
        admission=AdmissionConfig(max_outstanding_per_replica=3), seed=4,
    )
    service = ServiceModel(mean_service_s=0.012)
    requests = poisson_stream(540.0, 20.0, seed=4)
    locality = ShardLocalityMap.uniform(3)
    with plain_loop_spy() as calls:
        fast = _run(config, service, requests, locality, "fast")
        reference = _run(config, service, requests, locality, "reference")
    assert calls == ["fast"]
    assert fast[0].shed > 0 and fast[0].served > 0
    assert fast == reference


def test_jittered_locality_spills_match_reference():
    """Locality below saturation: most routes stay local and draw
    nothing, so service times come in blocks, and every spill into po2
    must rewind the block before its pair draw."""
    config = ClusterConfig(replicas=8, num_hosts=2, policy="locality", seed=9)
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.45)
    requests = poisson_stream(330.0, 30.0, seed=9)
    locality = ShardLocalityMap.uniform(4)
    with plain_loop_spy() as calls:
        fast = _run(config, service, requests, locality, "fast")
        reference = _run(config, service, requests, locality, "reference")
    assert calls == ["fast"]
    # Off-shard service happens only after a spill.
    assert fast[0].cross_host_served > 0
    assert fast[0].served > 20 * fast[0].cross_host_served
    assert fast == reference


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_more_replicas_than_a_machine_word(policy):
    """The least-outstanding index keys replicas by bit position."""
    config = ClusterConfig(
        replicas=70, num_hosts=4, policy=policy,
        admission=AdmissionConfig(max_outstanding_per_replica=4), seed=2,
    )
    service = ServiceModel(mean_service_s=0.05, jitter_sigma=0.3)
    requests = poisson_stream(1500.0, 4.0, seed=2)
    locality = ShardLocalityMap.uniform(3)
    with plain_loop_spy() as calls:
        fast = _run(config, service, requests, locality, "fast")
        reference = _run(config, service, requests, locality, "reference")
    assert calls == ["fast"]
    # Admission sheds only once every replica is at its cap, so each
    # position, 64 and up included, has been routed to.
    assert fast[0].shed > 0
    assert fast == reference


def test_hooked_runs_take_the_general_loop():
    config = ClusterConfig(replicas=3, seed=1)
    service = ServiceModel(mean_service_s=0.01)
    requests = poisson_stream(200.0, 2.0, seed=1)
    faulty = ClusterConfig(
        replicas=3, fault_rate_per_replica_hour=3600.0, seed=1
    )

    class Flat:
        def multiplier(self, time_s):
            return 1.0

    with plain_loop_spy() as calls:
        run_cluster(config, service, requests, registry=MetricsRegistry())
        run_cluster(config, service, requests, throttle=Flat())
        run_cluster(faulty, service, requests)
        run_cluster(config, service, requests, engine="reference")
    assert calls == []


def test_bulk_timeout_sweep_matches_the_counted_one():
    """An aborted ``fail_fast`` run leaves work pending, which the
    conservation sweep times out in bulk.  Oracle: the same run timing
    it out one ``_finalize_timeout`` at a time.  Same report, same
    counters, with and without a registry."""

    class PerRequest(ClusterSimulator):
        def _finish(self, pending):
            for index in pending:
                self._finalize_timeout(index)
            return super()._finish(())

    config = ClusterConfig(replicas=2, policy="jsq", seed=3)
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.3)
    requests = poisson_stream(300.0, 5.0, seed=3)
    for registry, oracle_registry in ((None, None),
                                      (MetricsRegistry(), MetricsRegistry())):
        bulk = ClusterSimulator(
            config, service, requests, registry=registry, fail_fast=True
        ).run()
        counted = PerRequest(
            config, service, requests, registry=oracle_registry,
            fail_fast=True,
        ).run()
        assert bulk.timed_out > 1
        assert bulk == counted
        if registry is not None:
            assert registry.snapshot() == oracle_registry.snapshot()
            assert registry.counter("cluster.timed_out").value == bulk.timed_out
