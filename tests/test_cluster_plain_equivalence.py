"""Differential test: the cluster event loop versus the general-loop oracle.

Every ``ClusterSimulator.run`` takes one event loop
(``repro.cluster.event_loop.run_events``), hooks or none.  The general
loop hooked runs used to take is kept verbatim in
``tests/cluster_oracle.py``; it recounts every incremental queue-depth
counter after each event, so it is the oracle.  The two must agree on
the whole ``ClusterReport`` (every float and every event-log entry),
leave the generator in the same state (the loop draws service times in
blocks it rewinds), and leave every stateful hook the same: the defense
tallies, token bucket and breakers, the brownout ladder, the
autoscaler, the host pool, the metrics snapshot and the trace.

Arrival times and service times are drawn on dyadic grids, so equal
arrival timestamps and arrival-versus-departure ties are common and
exact; the stream is passed in shuffled order.  Small per-replica caps
and tier caps make saturation and shedding common.
"""

from __future__ import annotations

import inspect
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    BrownoutConfig,
    BrownoutController,
    BrownoutRung,
    run_scenario,
)
from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterConfig,
    ClusterSimulator,
    Injection,
    ServiceModel,
    ShardLocalityMap,
    run_cluster,
)
from repro.cluster.routing import POLICY_NAMES
from repro.fleet_global import run_fleet
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceWriter
from repro.power.cluster_link import ThrottleSchedule
from repro.resilience.policies import (
    AdmissionConfig,
    Backoff,
    BreakerConfig,
    ClientRetryConfig,
    DefenseConfig,
    DefenseRuntime,
)
from repro.serving.scheduler import schedule_batches
from repro.serving.workload import Request, poisson_stream
from tests.cluster_oracle import ReferenceSimulator

GRID_S = 2.0 ** -7


@st.composite
def _ticks(draw, min_size=0):
    """Arrival grid steps: a short span forces many equal timestamps."""
    span = draw(st.sampled_from([4, 16, 60]))
    return draw(st.lists(
        st.integers(min_value=0, max_value=span),
        min_size=min_size, max_size=120,
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


def _hook_state(simulator, hooks):
    """Everything a run leaves behind besides its report."""
    state = {
        "rng": simulator._rng.bit_generator.state,
        "pool": [
            sorted(vars(allocation).items())
            for allocator in simulator.pool._allocators
            for allocation in allocator.allocations
        ],
    }
    defense = hooks.get("defense")
    if defense is not None:
        bucket = defense._bucket
        state["defense"] = (
            defense.retries_denied, defense.deadline_drops,
            defense.breaker_rejections,
            None if bucket is None else (bucket._tokens, bucket._last_s),
            sorted((i, sorted(vars(b).items())) for i, b in defense._breakers.items()),
        )
    brownout = hooks.get("brownout")
    if brownout is not None:
        state["brownout"] = (
            brownout.level, brownout.escalations, brownout.shed_below_floor
        )
    autoscaler = hooks.get("autoscaler")
    if autoscaler is not None:
        state["autoscaler"] = autoscaler._last_change_s
    registry = hooks.get("registry")
    if registry is not None:
        state["registry"] = json.dumps(registry.snapshot(), sort_keys=True)
    tracer = hooks.get("tracer")
    if tracer is not None:
        state["trace"] = json.dumps(tracer.document(), sort_keys=True)
    return state


def _run(simulator_class, config, service, requests, make_hooks=dict,
         locality=None, fail_fast=False):
    """The report and the state the run left behind."""
    hooks = make_hooks()
    simulator = simulator_class(
        config, service, requests, locality=locality, fail_fast=fail_fast,
        **hooks,
    )
    report = simulator.run()
    return report, _hook_state(simulator, hooks)


def _both(*args, **kwargs):
    fast = _run(ClusterSimulator, *args, **kwargs)
    reference = _run(ReferenceSimulator, *args, **kwargs)
    return fast, reference


def _config(draw, **extra):
    return ClusterConfig(
        replicas=draw["replicas"],
        num_hosts=draw["num_hosts"],
        policy=draw["policy"],
        p99_slo_s=draw["p99_slo_s"],
        admission=AdmissionConfig(
            max_outstanding_per_replica=draw["per_replica"],
            max_total_outstanding=draw["total"],
        ),
        seed=draw["seed"],
        **extra,
    )


def _service(draw):
    return ServiceModel(
        mean_service_s=draw["mean_service_s"],
        jitter_sigma=draw["jitter_sigma"],
        cross_host_penalty=draw["cross_host_penalty"],
    )


def _requests(draw, priorities=()):
    requests = [
        Request(
            arrival_s=tick * GRID_S, samples=1, request_id=i,
            priority=priorities[i % len(priorities)] if priorities else 0,
        )
        for i, tick in enumerate(draw["ticks"])
    ]
    random.Random(draw["seed"]).shuffle(requests)
    return requests


@settings(max_examples=300, deadline=None)
@given(draw=_runs)
def test_plain_loop_matches_reference(draw):
    fast, reference = _both(
        _config(draw), _service(draw), _requests(draw),
        locality=ShardLocalityMap.uniform(draw["num_shards"]),
        fail_fast=draw["fail_fast"],
    )
    assert fast == reference


_BREAKER = BreakerConfig(
    failure_threshold=1, cooldown_s=2.0 ** -3, probe_quota=1,
    close_after_successes=1,
)
# Opens on the second failure and closes on the second probe success,
# so a closed breaker's failure count is reset by a success.
_BREAKER_2 = BreakerConfig(
    failure_threshold=2, cooldown_s=2.0 ** -3, probe_quota=2,
    close_after_successes=2,
)
_BACKOFF = Backoff(base_s=2.0 ** -7, cap_s=2.0 ** -4)
_DEFENSES = {
    "deadline": DefenseConfig(deadline_s=2.0 ** -4),
    "tokens": DefenseConfig(retry_tokens_per_s=8.0, retry_token_burst=1.0),
    "backoff": DefenseConfig(backoff=_BACKOFF),
    "breaker": DefenseConfig(breaker=_BREAKER),
    "breaker2": DefenseConfig(breaker=_BREAKER_2),
    "all": DefenseConfig(
        deadline_s=2.0 ** -4, retry_tokens_per_s=8.0, retry_token_burst=2.0,
        backoff=_BACKOFF, breaker=_BREAKER,
    ),
    "full": DefenseConfig.full(deadline_s=2.0 ** -4),
}
_CLIENTS = (
    ClientRetryConfig(timeout_s=2.0 ** -5),
    ClientRetryConfig(timeout_s=2.0 ** -4, max_retries=0),
    ClientRetryConfig(timeout_s=2.0 ** -4, max_retries=2),
)


@st.composite
def _injections(draw, max_target, horizon):
    """Scheduled chaos: episodes of every kind (``down`` then ``up``,
    ``slow`` then ``slow_end``, ``partition`` then ``heal``), some left
    open.  Targets are ids up to ``max_target`` (in an autoscaled run,
    ids that do not exist yet or never will) or empty (every replica)."""
    schedule = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        start, end = draw(st.sampled_from(
            [("down", "up"), ("slow", "slow_end"), ("partition", "heal")]
        ))
        targets = tuple(draw(st.lists(
            st.integers(min_value=0, max_value=max_target), max_size=3
        )))
        time_s = draw(st.integers(min_value=0, max_value=horizon)) * GRID_S
        magnitude = draw(st.sampled_from([1.0, 2.0, 4.0]))
        schedule.append(Injection(
            time_s, start, targets, magnitude if start == "slow" else 1.0
        ))
        duration = draw(st.none() | st.integers(min_value=0, max_value=24))
        if duration is not None:
            schedule.append(Injection(time_s + duration * GRID_S, end, targets))
    return schedule


@st.composite
def _hooked(draw):
    run = draw(_runs)
    # Enough traffic to queue, and mostly full runs: a fail-fast run
    # stops at its first loss, which chaos makes early.
    run["ticks"] = draw(_ticks(min_size=10))
    run["fail_fast"] = draw(st.sampled_from([False, False, False, True]))
    run["fault_rate"] = draw(st.sampled_from([0.0, 3600.0, 14400.0]))
    run["retry_deadline_slos"] = draw(st.sampled_from([None, 1.0, 4.0]))
    run["accelerators"] = draw(st.sampled_from([1, 8, 12]))
    run["autoscaler"] = draw(st.none() | st.builds(
        AutoscalerConfig,
        min_replicas=st.just(1),
        max_replicas=st.integers(min_value=1, max_value=14),
        tick_interval_s=st.sampled_from([2.0 ** -5, 2.0 ** -3]),
        cooldown_s=st.sampled_from([0.0, 2.0 ** -4]),
        predictive=st.just(False),
    ))
    # Only an autoscaler can spawn ids past the initial replicas; a run
    # without one rejects such targets (see test_cluster.TestInjectionTargets).
    max_target = run["replicas"] + (2 if run["autoscaler"] is not None else -1)
    run["injections"] = draw(_injections(max_target, max(run["ticks"])))
    run["client"] = draw(st.sampled_from([None, *_CLIENTS]))
    run["defense"] = draw(st.sampled_from([None, *_DEFENSES]))
    run["brownout"] = draw(st.booleans())
    run["throttle"] = draw(st.booleans())
    run["tracer"] = draw(st.booleans())
    run["registry"] = draw(st.booleans())
    return run


def _hook_factory(draw, service):
    """Fresh hook objects per run: the stateful ones must not be shared."""

    def make():
        hooks = {"injections": draw["injections"], "client": draw["client"]}
        if draw["defense"] is not None:
            hooks["defense"] = DefenseRuntime(_DEFENSES[draw["defense"]])
        if draw["brownout"]:
            hooks["brownout"] = BrownoutController(BrownoutConfig(
                rungs=(
                    BrownoutRung("full"),
                    BrownoutRung("fp16", 0.75),
                    BrownoutRung("tiny", 0.5, priority_floor=1),
                ),
                enter_at=1.0, exit_at=0.5, step=1.0,
            ))
        if draw["throttle"]:
            hooks["throttle"] = ThrottleSchedule(
                times_s=(0.0, 16 * GRID_S, 40 * GRID_S),
                multipliers=(1.0, 2.0, 1.0),
            )
        if draw["autoscaler"] is not None:
            hooks["autoscaler"] = Autoscaler(draw["autoscaler"], service)
        if draw["tracer"]:
            hooks["tracer"] = TraceWriter("differential")
        if draw["registry"]:
            hooks["registry"] = MetricsRegistry()
        return hooks

    return make


@settings(max_examples=400, deadline=None)
@given(draw=_hooked())
def test_hooked_run_matches_reference(draw):
    """Every hook, alone and together, on the one loop and the oracle."""
    service = _service(draw)
    config = _config(
        draw,
        fault_rate_per_replica_hour=draw["fault_rate"],
        retry_deadline_slos=draw["retry_deadline_slos"],
        accelerators_per_replica=draw["accelerators"],
    )
    fast, reference = _both(
        config, service, _requests(draw, priorities=(0, 1, 2)),
        make_hooks=_hook_factory(draw, service),
        locality=ShardLocalityMap.uniform(draw["num_shards"]),
        fail_fast=draw["fail_fast"],
    )
    assert fast == reference


_ALONE = {
    "faults": lambda service: {},
    # Replica 0 is partitioned, then taken down and brought back up:
    # the outage ends its partition.
    "injections": lambda service: {"injections": [
        Injection(0.5, "slow", (1,), 3.0), Injection(1.0, "partition", (0, 3)),
        Injection(1.2, "down", (0,)), Injection(1.4, "up", (0,)),
        Injection(1.5, "heal", (3,)), Injection(2.0, "down", (2,)),
    ]},
    "client": lambda service: {
        "client": ClientRetryConfig(timeout_s=0.05, max_retries=2)
    },
    "defense": lambda service: {
        "defense": DefenseRuntime(DefenseConfig.full(deadline_s=0.05))
    },
    "brownout": lambda service: {"brownout": BrownoutController(BrownoutConfig(
        rungs=(BrownoutRung("full"), BrownoutRung("tiny", 0.5, priority_floor=1)),
        enter_at=1.0, exit_at=0.5, step=1.0,
    ))},
    "throttle": lambda service: {
        "throttle": ThrottleSchedule((0.0, 1.0), (1.0, 2.0))
    },
    "autoscaler": lambda service: {"autoscaler": Autoscaler(AutoscalerConfig(
        min_replicas=1, max_replicas=8, tick_interval_s=0.5, cooldown_s=0.0,
        predictive=False,
    ), service)},
    "tracer": lambda service: {"tracer": TraceWriter("differential")},
    "registry": lambda service: {"registry": MetricsRegistry()},
}


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("hook", sorted(_ALONE))
def test_each_hook_alone_matches_reference(hook, policy):
    """Each hook on its own over a loaded, jittered run: a hook that
    shares a guard with others must still switch that guard on."""
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.45)
    config = ClusterConfig(
        replicas=4, num_hosts=2, policy=policy, seed=3,
        fault_rate_per_replica_hour=3600.0 if hook == "faults" else 0.0,
        admission=AdmissionConfig(max_outstanding_per_replica=4),
    )
    requests = [
        Request(arrival_s=r.arrival_s, samples=1, request_id=r.request_id,
                priority=i % 2)
        for i, r in enumerate(poisson_stream(190.0, 3.0, seed=3))
    ]
    fast, reference = _both(
        config, service, requests,
        make_hooks=lambda: _ALONE[hook](service),
        locality=ShardLocalityMap.uniform(2),
    )
    assert fast == reference


@pytest.mark.parametrize("max_total", [None, 6])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_two_failure_breakers_match_reference(policy, max_total):
    """Replica 1 fails once and its next success resets the count;
    replica 0 fails twice, opens, rejects routes through its cooldown
    (those at the tier cap too) and probes its way closed.  Only
    breakers that are not closed with no failure counted stay watched."""
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.45)
    config = ClusterConfig(
        replicas=4, num_hosts=2, policy=policy, seed=5,
        admission=AdmissionConfig(
            max_outstanding_per_replica=4, max_total_outstanding=max_total,
        ),
    )
    requests = poisson_stream(190.0, 3.0, seed=5)
    injections = [
        Injection(1.0, "down", (0, 1)), Injection(1.25, "up", (0, 1)),
        Injection(1.251, "down", (0,)), Injection(1.3, "up", (0,)),
    ]
    runtimes = []

    def make_hooks():
        runtimes.append(DefenseRuntime(DefenseConfig(breaker=_BREAKER_2)))
        return {"injections": injections, "defense": runtimes[-1]}

    fast, reference = _both(
        config, service, requests, make_hooks=make_hooks,
        locality=ShardLocalityMap.uniform(2),
    )
    assert fast == reference
    defense = runtimes[0]
    assert defense.breaker_rejections > 0
    assert sorted(defense._breakers) == [0, 1]
    for breaker in defense._breakers.values():
        assert breaker.state == "closed"
        assert breaker._consecutive_failures == 0
    assert defense.watched == {}


def test_up_count_follows_every_state_change():
    """The simulator's count of up replicas, which the brownout ladder
    reads on every route, against a recount after a run that spawns,
    drains, retires, fails and revives replicas."""
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.45)
    config = ClusterConfig(
        replicas=8, num_hosts=4, policy="jsq", seed=11,
        fault_rate_per_replica_hour=1800.0,
    )
    simulator = ClusterSimulator(
        config, service, poisson_stream(40.0, 8.0, seed=11),
        autoscaler=Autoscaler(AutoscalerConfig(
            min_replicas=1, max_replicas=8, tick_interval_s=0.5,
            cooldown_s=0.0, predictive=False,
        ), service),
        injections=[Injection(2.0, "down", (1, 2)), Injection(3.0, "up", (1,))],
    )
    report = simulator.run()
    states = {replica.state for replica in simulator._replicas}
    kinds = {kind for _, kind, _ in report.event_log}
    assert {"fault", "recover", "drain", "inject_down", "inject_up"} <= kinds
    assert {"up", "down", "retired"} <= states
    assert simulator._up == sum(
        replica.state == "up" for replica in simulator._replicas
    )


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_every_hook_at_once_matches_reference(policy):
    """One longer run with every hook armed: faults, all six injection
    kinds, a retrying client, the full defense suite, brownout,
    throttling, autoscaling, a tracer and a registry."""
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.45)
    config = ClusterConfig(
        replicas=6, num_hosts=2, policy=policy,
        fault_rate_per_replica_hour=600.0, seed=7,
        admission=AdmissionConfig(max_outstanding_per_replica=6),
    )
    requests = [
        Request(arrival_s=r.arrival_s, samples=1, request_id=r.request_id,
                priority=i % 3)
        for i, r in enumerate(poisson_stream(330.0, 12.0, seed=7))
    ]
    injections = [
        Injection(2.0, "down", (0, 1)), Injection(3.5, "up", (0, 1)),
        Injection(4.0, "slow", (2,), 3.0), Injection(6.0, "slow_end", (2,)),
        Injection(6.5, "partition", (3, 4)), Injection(7.5, "heal", (3, 4)),
    ]

    def make_hooks():
        return {
            "injections": injections,
            "client": ClientRetryConfig(timeout_s=0.2, max_retries=3),
            "defense": DefenseRuntime(DefenseConfig.full(deadline_s=0.4)),
            "brownout": BrownoutController(BrownoutConfig(
                rungs=(BrownoutRung("full"), BrownoutRung("fp16", 0.75),
                       BrownoutRung("tiny", 0.5, priority_floor=1)),
                enter_at=3.0, exit_at=1.5, step=2.0,
            )),
            "throttle": ThrottleSchedule((0.0, 5.0, 8.0), (1.0, 1.5, 1.0)),
            "autoscaler": Autoscaler(AutoscalerConfig(
                min_replicas=2, max_replicas=10, tick_interval_s=1.0,
                cooldown_s=2.0, predictive=False,
            ), service),
            "tracer": TraceWriter("differential"),
            "registry": MetricsRegistry(),
        }

    fast, reference = _both(
        config, service, requests, make_hooks=make_hooks,
        locality=ShardLocalityMap.uniform(3),
    )
    report = fast[0]
    assert report.faults and report.retried and report.client_retries
    assert report.scale_events and report.brownout_served
    assert fast == reference


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_recovered_replicas_rejoin_routing(policy):
    """Reboots take minutes, so only long traffic sees a replica come
    back: faulted replicas recover while requests still arrive and
    must rejoin routing (and the least-outstanding index) exactly."""
    config = ClusterConfig(
        replicas=3, num_hosts=2, policy=policy,
        fault_rate_per_replica_hour=6.0, seed=1,
    )
    service = ServiceModel(mean_service_s=0.05, jitter_sigma=0.3)
    requests = poisson_stream(2.0, 2400.0, seed=1)
    fast, reference = _both(
        config, service, requests, locality=ShardLocalityMap.uniform(2)
    )
    horizon = fast[0].duration_s
    recovered = [e for t, kind, e in fast[0].event_log
                 if kind == "recover" and t < horizon]
    assert recovered
    assert fast == reference


def test_draining_replicas_that_fail_retire():
    """The autoscaler drains replicas still holding slowed work; one
    takes an injected outage and others natural faults while draining.
    Each is retired after its stranded work re-routes, never
    rebooted."""
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.3)
    config = ClusterConfig(
        replicas=6, num_hosts=2, policy="round_robin",
        fault_rate_per_replica_hour=600.0, seed=0,
    )

    def make_hooks():
        return {
            "autoscaler": Autoscaler(AutoscalerConfig(
                min_replicas=1, max_replicas=6, tick_interval_s=1.0,
                cooldown_s=0.0, predictive=False,
            ), service),
            "injections": [
                Injection(0.7, "slow", (2, 3, 4, 5), 300.0),
                Injection(2.2, "down", (3,)),
            ],
        }

    fast, reference = _both(
        config, service, poisson_stream(40.0, 30.0, seed=0),
        make_hooks=make_hooks,
    )
    draining = set()
    failed = []
    for _, kind, entity in fast[0].event_log:
        if kind == "drain":
            draining.add(entity)
        elif kind in ("fault", "inject_down") and entity in draining:
            failed.append(kind)
        elif kind == "replica_retired":
            draining.discard(entity)
    assert "fault" in failed and "inject_down" in failed
    assert fast == reference


def test_capacity_scale_run_matches_reference():
    """One long saturated run: queues build, the cap binds, work sheds."""
    config = ClusterConfig(
        replicas=6, policy="locality",
        admission=AdmissionConfig(max_outstanding_per_replica=3), seed=4,
    )
    service = ServiceModel(mean_service_s=0.012)
    requests = poisson_stream(540.0, 20.0, seed=4)
    fast, reference = _both(
        config, service, requests, locality=ShardLocalityMap.uniform(3)
    )
    assert fast[0].shed > 0 and fast[0].served > 0
    assert fast == reference


def test_jittered_locality_spills_match_reference():
    """Locality below saturation: most routes stay local and draw
    nothing, so service times come in blocks, and every spill into po2
    must rewind the block before its pair draw."""
    config = ClusterConfig(replicas=8, num_hosts=2, policy="locality", seed=9)
    service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.45)
    requests = poisson_stream(330.0, 30.0, seed=9)
    fast, reference = _both(
        config, service, requests, locality=ShardLocalityMap.uniform(4)
    )
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
    fast, reference = _both(
        config, service, requests, locality=ShardLocalityMap.uniform(3)
    )
    # Admission sheds only once every replica is at its cap, so each
    # position, 64 and up included, has been routed to.
    assert fast[0].shed > 0
    assert fast == reference


def test_bulk_timeout_sweep_matches_the_counted_one():
    """An aborted ``fail_fast`` run leaves work pending, which the
    conservation sweep times out in bulk.  Oracle: the same run timing
    it out one ``_time_out`` at a time.  Same report, same counters,
    with and without a registry."""

    class PerRequest(ClusterSimulator):
        def _finish(self, pending):
            for index in pending:
                self._time_out(self._now, index)
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


def test_one_cluster_event_loop():
    """The cluster tier has one event loop and no engine switch: the
    general loop, its fork and the ``engine`` option left the package
    (they live on only as this file's oracle)."""
    for entry in (run_cluster, ClusterSimulator, run_scenario, run_fleet,
                  schedule_batches):
        assert "engine" not in inspect.signature(entry).parameters, entry
    for name in ("_run_general", "_is_plain", "_route", "_start_service",
                 "_next_from_queue", "_on_depart", "_validate_counters"):
        assert not hasattr(ClusterSimulator, name), name
    with pytest.raises(ImportError):
        import repro.fastsim.reference  # noqa: F401
    with pytest.raises(ImportError):
        from repro.cluster import healthy_candidates  # noqa: F401
