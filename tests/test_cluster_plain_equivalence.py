"""Differential test: the hook-free cluster loop versus the general one.

``ClusterSimulator.run`` takes a specialized loop (``_run_plain``) when
nothing is attached that could fault, partition, retry, throttle,
rescale or observe the tier.  ``engine="reference"`` always takes the
general loop, with its per-event recount of every queue-depth counter,
so it is the oracle: the two runs must agree on the whole
``ClusterReport``, every float and every event-log entry included.

Arrival times and service times are drawn on dyadic grids, so equal
arrival timestamps and arrival-versus-departure ties are common and
exact; the stream is passed in shuffled order.  Small per-replica caps
and tier caps make saturation and shedding common.
"""

from __future__ import annotations

import contextlib
import random

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
from repro.cluster.routing import POLICY_NAMES
from repro.obs.metrics import MetricsRegistry
from repro.serving.workload import Request, poisson_stream

GRID_S = 2.0 ** -7


@contextlib.contextmanager
def plain_loop_spy():
    """Count the runs that took the hook-free loop."""
    calls = []
    original = ClusterSimulator._run_plain

    def spy(self, *args):
        calls.append(self.engine)
        return original(self, *args)

    ClusterSimulator._run_plain = spy
    try:
        yield calls
    finally:
        ClusterSimulator._run_plain = original


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
    return run_cluster(
        config, service, requests,
        locality=ShardLocalityMap.uniform(draw["num_shards"]),
        engine=engine, fail_fast=draw["fail_fast"],
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
        fast = run_cluster(config, service, requests, locality=locality)
        reference = run_cluster(
            config, service, requests, locality=locality, engine="reference"
        )
    assert calls == ["fast"]
    assert fast.shed > 0 and fast.served > 0
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
