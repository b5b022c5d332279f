"""Property-based tests for the chaos tier's safety invariants.

Hypothesis drives two state machines with arbitrary inputs:

* the per-replica circuit breaker, against its two safety properties —
  it never admits a dispatch while open (inside the cooldown), and a
  half-open period admits exactly the probe quota and not one more;
* the cluster simulator under arbitrary generated injection schedules,
  client retry behaviours, and defense suites, against conservation —
  every offered request reaches exactly one terminal outcome (served,
  shed, or timed out), no matter what the chaos schedule does.
"""

from collections import Counter as TallyCounter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    INJECTION_KINDS,
    Injection,
    ServiceModel,
    run_cluster,
)
from repro.resilience.policies import (
    AdmissionConfig,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
    CircuitBreaker,
    ClientRetryConfig,
    DefenseConfig,
    DefenseRuntime,
)
from repro.serving import Request

# ---------------------------------------------------------------------------
# Circuit-breaker invariants
# ---------------------------------------------------------------------------

breaker_configs = st.builds(
    BreakerConfig,
    failure_threshold=st.integers(min_value=1, max_value=3),
    cooldown_s=st.floats(min_value=0.1, max_value=2.0,
                         allow_nan=False, allow_infinity=False),
    probe_quota=st.integers(min_value=1, max_value=4),
    close_after_successes=st.integers(min_value=1, max_value=3),
)

# An op sequence: time always advances by `dt`, then one event fires.
breaker_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from(["attempt", "success", "failure"]),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(config=breaker_configs, ops=breaker_ops)
def test_breaker_never_admits_while_open(config, ops):
    breaker = CircuitBreaker(config)
    now = 0.0
    opened_at = None
    for dt, op in ops:
        now += dt
        if op == "attempt":
            admitted = breaker.allow(now)
            if admitted:
                breaker.on_dispatch(now)
            if breaker.state == BREAKER_OPEN:
                # An admission can never leave (or find) the breaker
                # open: open means no traffic, full stop.
                assert not admitted
                assert opened_at is not None
                assert now - opened_at < config.cooldown_s
        elif op == "success":
            breaker.record_success(now)
        else:
            before = breaker.state
            breaker.record_failure(now)
            if breaker.state == BREAKER_OPEN and before != BREAKER_OPEN:
                opened_at = now
        if breaker.state != BREAKER_OPEN:
            opened_at = None
        elif opened_at is None:
            opened_at = now  # opened by this op


@settings(max_examples=200, deadline=None)
@given(config=breaker_configs,
       attempts=st.integers(min_value=1, max_value=20))
def test_half_open_admits_exactly_the_probe_quota(config, attempts):
    breaker = CircuitBreaker(config)
    for _ in range(config.failure_threshold):
        breaker.record_failure(0.0)
    assert breaker.state == BREAKER_OPEN
    # Cooldown elapses; every admission until a success/failure verdict
    # must come out of the probe quota.
    now = config.cooldown_s
    admitted = 0
    for _ in range(attempts):
        if breaker.allow(now):
            breaker.on_dispatch(now)
            admitted += 1
    assert breaker.state == BREAKER_HALF_OPEN
    assert admitted == min(attempts, config.probe_quota)
    # Closing takes exactly close_after_successes probe completions.
    for _ in range(config.close_after_successes):
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success(now)
    assert breaker.state == BREAKER_CLOSED


# ---------------------------------------------------------------------------
# Conservation under arbitrary chaos schedules
# ---------------------------------------------------------------------------

SERVICE = ServiceModel(mean_service_s=0.02, jitter_sigma=0.4)
REPLICAS = 4

streams = st.lists(
    st.floats(min_value=0.0, max_value=0.05,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)

injection_events = st.builds(
    Injection,
    time_s=st.floats(min_value=0.0, max_value=2.0,
                     allow_nan=False, allow_infinity=False),
    kind=st.sampled_from(INJECTION_KINDS),
    targets=st.sets(
        st.integers(min_value=0, max_value=REPLICAS - 1),
        min_size=1, max_size=REPLICAS,
    ).map(tuple),
    magnitude=st.floats(min_value=1.0, max_value=4.0,
                        allow_nan=False, allow_infinity=False),
)

schedules = st.lists(injection_events, min_size=0, max_size=12)

clients = st.one_of(
    st.none(),
    st.builds(
        ClientRetryConfig,
        timeout_s=st.floats(min_value=0.05, max_value=0.5,
                            allow_nan=False, allow_infinity=False),
        max_retries=st.one_of(st.none(),
                              st.integers(min_value=0, max_value=3)),
    ),
)

defenses = st.sampled_from(["none", "inert", "full"])


def _run(gaps, schedule, client, defense_mode, seed):
    requests = []
    clock = 0.0
    for i, gap in enumerate(gaps):
        clock += gap
        requests.append(Request(arrival_s=clock, samples=8, request_id=i))
    defense = {
        "none": None,
        "inert": DefenseRuntime(DefenseConfig()),
        "full": DefenseRuntime(DefenseConfig.full(deadline_s=0.3)),
    }[defense_mode]
    config = ClusterConfig(
        replicas=REPLICAS,
        num_hosts=2,
        policy="po2",
        admission=AdmissionConfig(max_outstanding_per_replica=4),
        seed=seed,
    )
    return run_cluster(
        config, SERVICE, requests,
        defense=defense, client=client, injections=schedule,
    )


@settings(max_examples=150, deadline=None)
@given(gaps=streams, schedule=schedules, client=clients,
       defense_mode=defenses, seed=st.integers(min_value=0, max_value=2**16))
def test_conservation_under_arbitrary_chaos(gaps, schedule, client,
                                            defense_mode, seed):
    report = _run(gaps, schedule, client, defense_mode, seed)
    assert report.served + report.shed + report.timed_out == report.offered
    served = TallyCounter(
        e for _, kind, e in report.event_log if kind == "serve"
    )
    shed = set(e for _, kind, e in report.event_log if kind == "shed")
    timed_out = set(e for _, kind, e in report.event_log if kind == "timeout")
    # Exactly one terminal outcome per request; duplicates from client
    # retries are tallied separately and never double-serve.
    assert all(count == 1 for count in served.values())
    assert not set(served) & shed
    assert not set(served) & timed_out
    assert not shed & timed_out
    assert set(served) | shed | timed_out == set(range(report.offered))
    assert len(report.latencies_s) == report.served


@settings(max_examples=60, deadline=None)
@given(gaps=streams, schedule=schedules, client=clients,
       defense_mode=defenses, seed=st.integers(min_value=0, max_value=2**16))
def test_chaos_runs_are_deterministic(gaps, schedule, client,
                                      defense_mode, seed):
    first = _run(gaps, schedule, client, defense_mode, seed)
    second = _run(gaps, schedule, client, defense_mode, seed)
    assert first == second
