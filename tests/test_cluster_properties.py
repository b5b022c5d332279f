"""Property-based tests for cluster routing invariants (repro.cluster).

Hypothesis drives the cluster simulator with randomized request
streams, replica counts, policies, and admission caps and checks the
invariants that must hold for *every* input:

* conservation — every offered request reaches exactly one terminal
  outcome: served exactly once, or shed or timed out and counted;
* no spontaneous work — nothing is served that never arrived;
* determinism — one seed fully determines the run, event log included,
  for every routing policy;
* observation transparency — attaching a metrics registry never
  changes the simulation's outcome.
"""

from collections import Counter as TallyCounter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    POLICY_NAMES,
    ServiceModel,
    ShardLocalityMap,
    run_cluster,
)
from repro.obs import MetricsRegistry
from repro.resilience.policies import AdmissionConfig
from repro.serving import Request

policies = st.sampled_from(POLICY_NAMES)

# Streams as inter-arrival gaps: non-negative, monotone arrivals.
streams = st.lists(
    st.floats(min_value=0.0, max_value=0.05,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)

configs = st.builds(
    dict,
    replicas=st.integers(min_value=1, max_value=6),
    policy=policies,
    seed=st.integers(min_value=0, max_value=2**16),
    per_replica_cap=st.integers(min_value=1, max_value=8),
    fault_rate=st.sampled_from([0.0, 0.0, 200.0]),
    num_shards=st.integers(min_value=1, max_value=4),
)

SERVICE = ServiceModel(mean_service_s=0.02, jitter_sigma=0.4)


def _build_requests(gaps):
    requests = []
    clock = 0.0
    for i, gap in enumerate(gaps):
        clock += gap
        requests.append(Request(arrival_s=clock, samples=8, request_id=i))
    return requests


def _run(gaps, params, registry=None):
    config = ClusterConfig(
        replicas=params["replicas"],
        num_hosts=1,
        policy=params["policy"],
        admission=AdmissionConfig(
            max_outstanding_per_replica=params["per_replica_cap"]
        ),
        fault_rate_per_replica_hour=params["fault_rate"],
        seed=params["seed"],
    )
    locality = (ShardLocalityMap.uniform(params["num_shards"])
                if params["num_shards"] > 1 else None)
    return run_cluster(config, SERVICE, _build_requests(gaps),
                       locality=locality, registry=registry)


@settings(max_examples=150, deadline=None)
@given(gaps=streams, params=configs)
def test_every_request_served_exactly_once_or_shed(gaps, params):
    report = _run(gaps, params)
    served = TallyCounter(
        e for _, kind, e in report.event_log if kind == "serve"
    )
    shed = TallyCounter(
        e for _, kind, e in report.event_log if kind == "shed"
    )
    timed_out = TallyCounter(
        e for _, kind, e in report.event_log if kind == "timeout"
    )
    # Terminal outcomes partition the offered stream.
    assert report.served + report.shed + report.timed_out == report.offered
    assert sum(served.values()) == report.served
    assert sum(shed.values()) == report.shed
    assert sum(timed_out.values()) == report.timed_out
    # Each request reaches exactly one terminal outcome, none invented.
    assert all(count == 1 for count in served.values())
    assert not set(served) & set(shed)
    assert not set(served) & set(timed_out)
    assert not set(shed) & set(timed_out)
    assert (set(served) | set(shed) | set(timed_out)
            == set(range(report.offered)))
    # One latency sample per served request.
    assert len(report.latencies_s) == report.served


@settings(max_examples=100, deadline=None)
@given(gaps=streams, params=configs)
def test_seeded_runs_are_byte_identical(gaps, params):
    assert _run(gaps, params) == _run(gaps, params)


@settings(max_examples=75, deadline=None)
@given(gaps=streams, params=configs)
def test_attached_registry_never_changes_outcome(gaps, params):
    bare = _run(gaps, params)
    observed = _run(gaps, params, registry=MetricsRegistry())
    assert bare == observed


@settings(max_examples=75, deadline=None)
@given(gaps=streams, params=configs)
def test_shedding_respects_admission_cap(gaps, params):
    report = _run(gaps, params)
    # A tier whose replicas never fill their caps sheds nothing; if it
    # shed, some routing attempt must have found every replica at cap
    # (or down) — either way the shed count is explicit in the log.
    shed_events = [e for _, kind, e in report.event_log if kind == "shed"]
    assert len(shed_events) == report.shed
    assert all(0 <= e < report.offered for e in shed_events)


@settings(max_examples=50, deadline=None)
@given(gaps=streams, seed=st.integers(min_value=0, max_value=2**16))
def test_policies_agree_on_conservation_not_on_routing(gaps, seed):
    reports = {
        policy: _run(gaps, dict(replicas=3, policy=policy, seed=seed,
                                per_replica_cap=4, fault_rate=0.0,
                                num_shards=2))
        for policy in POLICY_NAMES
    }
    offered = {r.offered for r in reports.values()}
    assert len(offered) == 1  # identical stream through every policy
    for report in reports.values():
        assert report.served + report.shed + report.timed_out == report.offered
