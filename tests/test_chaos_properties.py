"""Property-based tests for the chaos tier's safety invariants.

Hypothesis drives two state machines with arbitrary inputs:

* the per-replica circuit breaker, against its two safety properties —
  it never admits a dispatch while open (inside the cooldown), and a
  half-open period admits exactly the probe quota and not one more;
* the cluster simulator under arbitrary generated injection schedules,
  with and without retrying clients and the defense suite, against
  conservation —
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
    BREAKER_CLOSE_AFTER_SUCCESSES,
    BREAKER_CLOSED,
    BREAKER_COOLDOWN_S,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_PROBE_QUOTA,
    CircuitBreaker,
    DefenseRuntime,
)
from repro.serving import Request

# ---------------------------------------------------------------------------
# Circuit-breaker invariants
# ---------------------------------------------------------------------------

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
@given(ops=breaker_ops)
def test_breaker_never_admits_while_open(ops):
    breaker = CircuitBreaker()
    now = 0.0
    opened_at = None
    for dt, op in ops:
        now += dt
        if op == "attempt":
            admitted = breaker.allow(now)
            if admitted:
                breaker.on_dispatch()
            if breaker.state == BREAKER_OPEN:
                # An admission can never leave (or find) the breaker
                # open: open means no traffic, full stop.
                assert not admitted
                assert opened_at is not None
                assert now - opened_at < BREAKER_COOLDOWN_S
        elif op == "success":
            breaker.record_success()
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
@given(attempts=st.integers(min_value=1, max_value=20))
def test_half_open_admits_exactly_the_probe_quota(attempts):
    breaker = CircuitBreaker()
    breaker.record_failure(0.0)
    assert breaker.state == BREAKER_OPEN
    # Cooldown elapses; every admission until a success/failure verdict
    # must come out of the probe quota.
    now = BREAKER_COOLDOWN_S
    admitted = 0
    for _ in range(attempts):
        if breaker.allow(now):
            breaker.on_dispatch()
            admitted += 1
    assert breaker.state == BREAKER_HALF_OPEN
    assert admitted == min(attempts, BREAKER_PROBE_QUOTA)
    # Closing takes exactly BREAKER_CLOSE_AFTER_SUCCESSES completions.
    for _ in range(BREAKER_CLOSE_AFTER_SUCCESSES):
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success()
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

clients = st.booleans()
defenses = st.booleans()


def _run(gaps, schedule, client, defended, seed):
    requests = []
    clock = 0.0
    for i, gap in enumerate(gaps):
        clock += gap
        requests.append(Request(arrival_s=clock, samples=8, request_id=i))
    config = ClusterConfig(
        replicas=REPLICAS, num_hosts=2, policy="po2", seed=seed,
    )
    return run_cluster(
        config, SERVICE, requests,
        defense=DefenseRuntime() if defended else None,
        client=client, injections=schedule,
    )


@settings(max_examples=150, deadline=None)
@given(gaps=streams, schedule=schedules, client=clients,
       defended=defenses, seed=st.integers(min_value=0, max_value=2**16))
def test_conservation_under_arbitrary_chaos(gaps, schedule, client,
                                            defended, seed):
    report = _run(gaps, schedule, client, defended, seed)
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
       defended=defenses, seed=st.integers(min_value=0, max_value=2**16))
def test_chaos_runs_are_deterministic(gaps, schedule, client,
                                      defended, seed):
    first = _run(gaps, schedule, client, defended, seed)
    second = _run(gaps, schedule, client, defended, seed)
    assert first == second
