"""The cluster simulator's general event loop, kept as a test oracle.

This is the loop every hooked cluster run took before the simulator was
reduced to one event loop (``repro.cluster.event_loop``): an
``EventEngine`` queue, the per-route ``healthy_candidates`` scan, one
handler per event kind, and after every event a recount of every
incremental queue-depth counter (``_validate_counters``).  It is kept
verbatim, apart from these adaptations:

* ``ReferenceSimulator.run`` always takes the general loop and always
  revalidates (the old ``engine="reference"`` mode);
* ``AdmissionConfig.tier_admissible`` and ``routing.healthy_candidates``
  left ``src`` with their last callers and live here as functions.

Everything the loop consumes (configs, the service model, routing
policies, locality, pool, drain policy and the report) is the package's
own, so a differential run compares only the two event loops.  See
``tests/test_cluster_plain_equivalence.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.autoscaler import Autoscaler
from repro.cluster.locality import ShardLocalityMap
from repro.cluster.provisioning import HostPool, ReplicaGrant
from repro.cluster.routing import RoutingPolicy, make_policy
from repro.cluster.service import ServiceModel
from repro.cluster.simulator import (
    ClusterConfig,
    ClusterReport,
    Injection,
    injection_sort_key,
)
from repro.fastsim.engine import EventEngine
from repro.fastsim.vectorize import seeded_poisson_arrivals
from repro.fleet.allocator import AllocationError
from repro.obs.metrics import MetricsRegistry, active
from repro.obs.tracing import TraceWriter
from repro.resilience.policies import ClientRetryConfig, DrainPolicy
from repro.serving.workload import Request


def healthy_candidates(replicas, admission, now_s=0.0, defense=None):
    """The admissible routing targets at ``now_s``.

    A replica is a candidate when it is up, reachable (not severed by a
    network partition), and below the admission queue cap; when an
    overload ``defense`` (duck-typing
    :class:`repro.resilience.policies.DefenseRuntime`) is armed, its
    per-replica circuit breaker must also admit traffic.  With
    ``defense=None`` and no partitions this reduces exactly to the
    historical up-and-admissible filter.
    """
    # Inlined ``admission.replica_admissible`` — this filter runs once
    # per routed request and is the cluster tier's hottest loop.
    cap = admission.max_outstanding_per_replica
    candidates = [
        r for r in replicas
        if r.state == "up" and not r.partitioned and r.outstanding < cap
    ]
    if defense is not None:
        candidates = [
            r for r in candidates if defense.replica_allowed(r.replica_id, now_s)
        ]
    return candidates


def tier_admissible(admission, total_outstanding: int) -> bool:
    """Whether the tier as a whole may admit another request."""
    if admission.max_total_outstanding is None:
        return True
    return total_outstanding < admission.max_total_outstanding


class _Replica:
    """One single-server replica queue."""

    __slots__ = (
        "replica_id", "shard", "state", "grant", "queue", "in_service",
        "in_service_cross", "in_service_rung", "service_token", "up_since",
        "up_seconds", "slow_factor", "partitioned", "forced_down",
        "deferred_depart", "outstanding",
    )

    def __init__(self, replica_id: int, shard: int,
                 grant: Optional[ReplicaGrant], now_s: float) -> None:
        self.replica_id = replica_id
        self.shard = shard
        self.state = "up"  # up | draining | down | retired
        self.grant = grant
        self.queue: Deque[Tuple[int, bool]] = deque()
        self.in_service: Optional[int] = None
        self.in_service_cross = False
        self.in_service_rung: Optional[str] = None
        # Bumped at each service start so a departure event left behind by
        # a fault cannot complete a later request (stale-event guard).
        self.service_token = 0
        self.up_since: Optional[float] = now_s
        self.up_seconds = 0.0
        # Chaos-tier state: service-time inflation (thermal throttling),
        # network reachability, and forced outages that must not be
        # resurrected by a natural reboot.
        self.slow_factor = 1.0
        self.partitioned = False
        self.forced_down = False
        self.deferred_depart: Optional[int] = None
        # Queue depth, maintained incrementally (len(queue) + one if a
        # request is in service) — the routing hot path reads this on
        # every candidate, so it is a counter rather than a recount.
        # ``recount()`` is the definition; the reference loop
        # revalidates the counter against it after every event.
        self.outstanding = 0

    def recount(self) -> int:
        """The definitional queue depth the counter must always equal."""
        return len(self.queue) + (1 if self.in_service is not None else 0)

    @property
    def serving(self) -> bool:
        return self.state in ("up", "draining")

    def accrue_up_time(self, now_s: float) -> None:
        if self.up_since is not None:
            self.up_seconds += now_s - self.up_since
            self.up_since = None

    def mark_up(self, now_s: float) -> None:
        if self.up_since is None:
            self.up_since = now_s


class ReferenceSimulator:
    """Seeded DES over one model's replica set: the general loop."""

    def __init__(
        self,
        config: ClusterConfig,
        service: ServiceModel,
        requests: Sequence[Request],
        locality: Optional[ShardLocalityMap] = None,
        autoscaler: Optional[Autoscaler] = None,
        pool: Optional[HostPool] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[TraceWriter] = None,
        model_name: str = "model",
        throttle=None,
        defense=None,
        client: Optional[ClientRetryConfig] = None,
        injections: Sequence[Injection] = (),
        brownout=None,
        fail_fast: bool = False,
    ) -> None:
        self.config = config
        self.service = service
        self.requests = list(requests)
        # Optional power/thermal coupling: anything with a
        # ``multiplier(time_s)`` method (e.g. repro.power.cluster_link
        # .ThrottleSchedule) stretching service times while the tier is
        # frequency-throttled.  Applied after the rng draw, so None
        # preserves byte-identical event logs.
        self.throttle = throttle
        # Chaos hooks — all off by default; see the module docstring.
        # ``defense`` duck-types repro.resilience.policies.DefenseRuntime and
        # ``brownout`` repro.chaos.brownout.BrownoutController, so the
        # cluster tier stays importable without the chaos package.
        self.defense = defense
        self.client = client
        # Total-order sort (not time alone): see injection_sort_key.
        self.injections = sorted(injections, key=injection_sort_key)
        self.brownout = brownout
        self.locality = locality or ShardLocalityMap.uniform(1)
        self.autoscaler = autoscaler
        self.pool = pool or HostPool(config.num_hosts)
        self.model_name = model_name
        self.policy: RoutingPolicy = make_policy(config.policy)
        self._obs = active(registry)
        # Zero-overhead-when-disabled: per-event instrument calls are
        # gated on this flag (a no-op call still costs a name lookup),
        # and enabled-path counters are cached per kind.
        self._obs_enabled = self._obs.enabled
        self._event_counters: Dict[str, object] = {}
        self._tracer = tracer
        self._drain_policy = DrainPolicy()
        self._retry_deadline_s = (
            None if config.retry_deadline_slos is None
            else config.retry_deadline_slos * config.p99_slo_s
        )
        # All randomness flows from here, consumed in a fixed order:
        # request shards, fault schedule, then event-loop draws (policy
        # sampling, reboot times, and — only when a defense is armed —
        # backoff jitter).
        self._rng = np.random.default_rng(config.seed)
        # Plain ints up front: ``_route`` reads one shard per routing
        # attempt, and repeated numpy-scalar conversion there is
        # measurable at event-loop rates.
        self._shards = self.locality.sample_shards(
            len(self.requests), self._rng
        ).tolist()
        self._fault_schedule = self._presample_faults()
        # The verifier mode: revalidate the incremental queue-depth
        # counters against full recomputation after every event.
        self._validate = True
        # Feasibility-probe mode: stop simulating once SLO failure is
        # *certain* — the first lost request (shed or timed out), or
        # more completions over ``config.p99_slo_s`` than the final P99
        # could tolerate.  Sound only for callers that discard
        # everything but the ``meets_slo(config.p99_slo_s,
        # max_shed_fraction=0)`` verdict: losses and over-SLO
        # completions never un-happen, and the over-SLO budget is
        # computed at the maximum possible served count (the nearest-
        # rank allowance is nondecreasing in count), so any run the
        # probe aborts would have failed in full too — and a run that
        # holds the SLO never trips either certificate, making it
        # byte-identical with the flag on or off.  An aborted run's
        # report stays conservation-clean (the drain sweep times out
        # whatever is pending) but describes a truncated run.
        self._fail_fast = fail_fast
        self._slo_over = 0
        self._events = EventEngine()
        self._outstanding_total = 0
        self._replicas: Dict[int, _Replica] = {}
        self._next_replica_id = 0
        self._target = config.replicas
        self._now = 0.0
        # Outcomes.
        self._latencies: List[float] = []
        self._terminal: Dict[int, str] = {}
        self._attempts: Dict[int, int] = {}
        self._served = 0
        self._shed = 0
        self._timed_out = 0
        self._retried = 0
        self._client_retries = 0
        self._rejected = 0
        self._duplicate_service = 0
        self._cross_served = 0
        self._faults = 0
        self._busy_seconds = 0.0
        self._peak_replicas = 0
        self._brownout_counts: Dict[str, int] = {}
        self._scale_events: List[Tuple[float, int, int]] = []
        self._event_log: List[Tuple[float, str, int]] = []
        # Autoscaler window accounting.
        self._window_offered = 0
        self._window_busy = 0.0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _presample_faults(self) -> List[Tuple[float, int]]:
        """Poisson fault arrivals per potential replica id, pre-drawn in
        a fixed order (id-major) so the schedule is seed-pure."""
        rate_per_s = self.config.fault_rate_per_replica_hour / 3600.0
        if rate_per_s <= 0 or not self.requests:
            return []
        horizon = max(r.arrival_s for r in self.requests)
        id_space = self.config.replicas
        if self.autoscaler is not None:
            id_space = max(id_space, self.autoscaler.config.max_replicas)
        # Autoscaling churn can push ids past the initial space; arrivals
        # for ids that never exist are dropped (Poisson thinning).
        id_space *= 2
        arrivals: List[Tuple[float, int]] = []
        for replica_id in range(id_space):
            # Vectorized but stream-identical to the per-id scalar loop.
            times = seeded_poisson_arrivals(self._rng, rate_per_s, horizon)
            arrivals.extend((float(t), replica_id) for t in times)
        arrivals.sort()
        return arrivals

    def _push(self, time_s: float, kind: str, entity: object = -1) -> None:
        self._events.schedule(time_s, (kind, entity))

    def _emit(self, kind: str, entity: int = -1) -> None:
        if self._obs_enabled:
            counter = self._event_counters.get(kind)
            if counter is None:
                counter = self._obs.counter(f"cluster.events.{kind}")
                self._event_counters[kind] = counter
            counter.inc()
        self._event_log.append((self._now, kind, entity))

    def _spawn_replica(self) -> Optional[_Replica]:
        try:
            grant = self.pool.acquire(
                self.model_name, self.config.accelerators_per_replica
            )
        except AllocationError:
            self._emit("pool_exhausted")
            return None
        replica_id = self._next_replica_id
        self._next_replica_id += 1
        replica = _Replica(
            replica_id=replica_id,
            shard=replica_id % self.locality.num_shards,
            grant=grant,
            now_s=self._now,
        )
        self._replicas[replica_id] = replica
        if self._tracer is not None:
            self._tracer.lane(f"replica-{replica_id}")
        return replica

    def _retire_replica(self, replica: _Replica) -> None:
        replica.accrue_up_time(self._now)
        replica.state = "retired"
        if replica.grant is not None:
            self.pool.release(replica.grant)
            replica.grant = None
        self._emit("replica_retired", replica.replica_id)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> ClusterReport:
        """Execute the run and return the report.

        Arrivals stop at the traffic horizon; the tier then drains, so
        every offered request reaches exactly one terminal outcome
        (served, shed, or timed out) — the conservation the report
        asserts.  Requests still unresolved once the event heap empties
        (e.g. stuck behind a partition that never healed) are finalized
        as timed out.
        """
        arrivals = [request.arrival_s for request in self.requests]
        self._horizon = max(arrivals, default=0.0)
        for replica_id in range(self.config.replicas):
            self._spawn_replica()
        self._peak_replicas = len(self._replicas)
        slo_budget = 0
        if self._fail_fast and self.requests:
            # Largest over-SLO completion count the final P99 could
            # absorb, at the maximum possible served count (see the
            # nearest-rank formula in fastsim.vectorize
            # .sorted_percentile; the allowance only grows with count).
            n = len(self.requests)
            slo_budget = (n - 1) - min(n - 1, int(round(0.99 * (n - 1))))
        self._run_general(slo_budget)
        pending = [
            index for index in range(len(self.requests))
            if index not in self._terminal
        ]
        return self._finish(pending)

    def _run_general(self, slo_budget: int) -> None:
        """The event loop every hook ran under."""
        # The pre-known event populations are all time-sorted, so they
        # stage as sorted runs (see EventEngine.schedule_batch) and
        # the heap carries only the in-flight runtime events (departs,
        # recoveries, retry timers) — pop order is identical, the
        # per-event log factor is not.
        self._events.schedule_batch(
            (request.arrival_s, ("arrival", index))
            for index, request in enumerate(self.requests)
        )
        self._events.schedule_batch(
            (time_s, ("fault", replica_id))
            for time_s, replica_id in self._fault_schedule
        )
        self._events.schedule_batch(
            (injection.time_s, ("inject", injection))
            for injection in self.injections
        )
        if self.client is not None:
            timeout_s = self.client.timeout_s
            self._events.schedule_batch(
                (request.arrival_s + timeout_s, ("client", index))
                for index, request in enumerate(self.requests)
            )
        if self.autoscaler is not None:
            tick = self.autoscaler.config.tick_interval_s
            ticks = []
            t = tick
            while t < self._horizon:
                ticks.append((t, ("scale", -1)))
                t += tick
            self._events.schedule_batch(ticks)

        validate = self._validate
        fail_fast = self._fail_fast
        pop = self._events.pop
        route = self._route
        while True:
            if fail_fast and (
                self._shed or self._timed_out
                or self._slo_over > slo_budget
            ):
                break
            try:
                time_s, _, (kind, entity) = pop()
            except IndexError:
                break
            self._now = time_s
            if kind == "arrival":
                route(entity, mode="arrival")
            elif kind == "depart":
                self._on_depart(entity)
            elif kind == "fault":
                self._on_fault(entity)
            elif kind == "recover":
                self._on_recover(entity)
            elif kind == "scale":
                self._on_scale()
            elif kind == "inject":
                self._on_inject(entity)
            elif kind == "client":
                self._on_client_check(entity)
            elif kind == "retry_fire":
                self._on_retry_fire(entity)
            if validate:
                self._validate_counters(kind)

    def _finish(self, pending: Sequence[int]) -> ClusterReport:
        """The report both loops share, after the conservation sweep."""
        # Conservation sweep: anything still pending (wedged behind an
        # unhealed partition, a never-recovered outage, or cut off by a
        # fail_fast certificate) is lost work: :meth:`_finalize_timeout`
        # for each, in bulk and in the same order.
        if pending:
            self._terminal.update(dict.fromkeys(pending, "timeout"))
            self._timed_out += len(pending)
            if self._obs_enabled:
                self._obs.counter("cluster.timed_out").inc(len(pending))
                counter = self._event_counters.get("timeout")
                if counter is None:
                    counter = self._obs.counter("cluster.events.timeout")
                    self._event_counters["timeout"] = counter
                counter.inc(len(pending))
            now = self._now
            self._event_log.extend([(now, "timeout", index) for index in pending])

        for replica in self._replicas.values():
            replica.accrue_up_time(self._now)
        replica_seconds = sum(r.up_seconds for r in self._replicas.values())
        final = sum(1 for r in self._replicas.values() if r.serving)
        report = ClusterReport(
            policy=self.config.policy,
            seed=self.config.seed,
            duration_s=self._horizon,
            offered=len(self.requests),
            served=self._served,
            shed=self._shed,
            retried=self._retried,
            cross_host_served=self._cross_served,
            latencies_s=tuple(self._latencies),
            busy_seconds=self._busy_seconds,
            replica_seconds=replica_seconds,
            peak_replicas=self._peak_replicas,
            final_replicas=final,
            faults=self._faults,
            scale_events=tuple(self._scale_events),
            event_log=tuple(self._event_log),
            timed_out=self._timed_out,
            client_retries=self._client_retries,
            rejected=self._rejected,
            duplicate_service=self._duplicate_service,
            brownout_served=tuple(sorted(self._brownout_counts.items())),
        )
        if self._obs.enabled:
            self._obs.gauge("cluster.p99_latency_s").set(report.p99_latency_s)
            self._obs.gauge("cluster.utilization").set(report.utilization)
            self._obs.gauge("cluster.shed_fraction").set(report.shed_fraction)
            self._obs.gauge("cluster.timed_out_fraction").set(
                report.timed_out_fraction
            )
            self._obs.gauge("cluster.cross_host_fraction").set(
                report.cross_host_fraction
            )
        return report

    # ------------------------------------------------------------------
    # Terminal outcomes
    # ------------------------------------------------------------------

    def _finalize_shed(self, index: int) -> None:
        self._terminal[index] = "shed"
        self._shed += 1
        self._emit("shed", index)
        if self._tracer is not None:
            self._tracer.instant(
                "shed", ts=self._now * 1e6,
                tid=self._tracer.lane("front-door"),
            )

    def _finalize_timeout(self, index: int) -> None:
        self._terminal[index] = "timeout"
        self._timed_out += 1
        if self._obs_enabled:
            self._obs.counter("cluster.timed_out").inc()
        self._emit("timeout", index)

    def _drop_copy(self, index: int) -> None:
        """A routing attempt found no home for this copy.

        Without a client the request is terminally shed (today's
        behaviour); with one, the copy just vanishes — the client's next
        timeout check will retry or give up.
        """
        if self.client is None:
            self._finalize_shed(index)
        else:
            self._rejected += 1
            if self._obs_enabled:
                self._obs.counter("cluster.rejected").inc()
            self._emit("reject", index)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _validate_counters(self, kind: str) -> None:
        """Reference-engine invariant check, run after every event: the
        incremental per-replica and tier-wide queue-depth counters must
        equal full recomputation, and non-serving replicas must hold no
        work (the legacy tier-wide sum skipped them, the counter does
        not — equality requires both)."""
        serving_total = 0
        full_total = 0
        for replica in self._replicas.values():
            expected = replica.recount()
            if replica.outstanding != expected:
                raise AssertionError(
                    f"replica {replica.replica_id} outstanding counter "
                    f"{replica.outstanding} != recount {expected} "
                    f"after {kind!r} at t={self._now}"
                )
            full_total += expected
            if replica.serving:
                serving_total += expected
        if self._outstanding_total != full_total or serving_total != full_total:
            raise AssertionError(
                f"tier outstanding counter {self._outstanding_total} != "
                f"recount {full_total} (serving {serving_total}) "
                f"after {kind!r} at t={self._now}"
            )

    def _up_count(self) -> int:
        return sum(1 for r in self._replicas.values() if r.state == "up")

    def _route(self, index: int, mode: str) -> None:
        """Send one copy of request ``index`` through the front door.

        ``mode`` is ``arrival`` for the original send, ``fault_retry``
        for a fault-stranded re-dispatch, ``client_retry`` for a
        client-timeout duplicate.
        """
        # Offered demand for the autoscaler: every routing attempt,
        # including ones that end up shed — an overloaded tier must see
        # the demand it is turning away, not just what it admitted.
        self._window_offered += 1
        request = self.requests[index]
        # Deadline propagation (defense): dead-on-arrival work is
        # dropped at the front door, never queued.
        if self.defense is not None and self.defense.past_deadline(
            self._now, request.arrival_s
        ):
            if index not in self._terminal:
                self._finalize_timeout(index)
            return
        # The always-on retry cutoff: a fault-stranded request past its
        # deadline is lost, not re-routed forever.
        if (mode == "fault_retry" and self._retry_deadline_s is not None
                and self._now > request.arrival_s + self._retry_deadline_s):
            if index not in self._terminal:
                self._finalize_timeout(index)
            return
        # Brownout ladder: observe pressure, shed below the priority floor.
        if self.brownout is not None:
            self._brownout_observe()
            if not self.brownout.admit(request.priority):
                if self._obs_enabled:
                    self._obs.counter("cluster.brownout_shed").inc()
                self._emit("brownout_shed", index)
                if index not in self._terminal:
                    self._drop_copy(index)
                return
        admission = self.config.admission
        shard = self._shards[index]
        candidates = healthy_candidates(
            self._replicas.values(), admission,
            now_s=self._now, defense=self.defense,
        )
        if candidates and not tier_admissible(admission, self._outstanding_total):
            candidates = []
        chosen = self.policy.choose(candidates, shard, self._rng) \
            if candidates else None
        if chosen is None:
            self._drop_copy(index)
            return
        if mode == "arrival" and self._obs_enabled:
            self._obs.counter("cluster.admitted").inc()
        if self.defense is not None:
            self.defense.on_dispatch(chosen.replica_id, self._now)
        cross = chosen.shard != shard and self.locality.num_shards > 1
        if chosen.in_service is None:
            self._start_service(chosen, index, cross)
        else:
            chosen.queue.append((index, cross))
            chosen.outstanding += 1
            self._outstanding_total += 1
        if self._obs_enabled:
            self._obs.histogram("cluster.routed_outstanding").observe(
                float(chosen.outstanding)
            )

    def _brownout_observe(self) -> None:
        level = self.brownout.on_route(
            self._now, self._outstanding_total, self._up_count()
        )
        if level != getattr(self, "_brownout_level", 0):
            self._brownout_level = level
            self._obs.series("cluster.brownout_level").append(self._now, level)
            self._emit("brownout_level", level)

    def _start_service(self, replica: _Replica, index: int, cross: bool) -> None:
        service_s = self.service.sample(self._rng, cross_host=cross)
        if self.throttle is not None:
            service_s *= self.throttle.multiplier(self._now)
        if replica.slow_factor != 1.0:
            service_s *= replica.slow_factor
        rung_name = None
        if self.brownout is not None:
            rung_name, multiplier = self.brownout.rung()
            if multiplier != 1.0:
                service_s *= multiplier
        replica.in_service = index
        replica.in_service_cross = cross
        replica.in_service_rung = rung_name
        replica.service_token += 1
        replica.outstanding += 1
        self._outstanding_total += 1
        self._push(
            self._now + service_s, "depart",
            (replica.replica_id, replica.service_token),
        )
        self._busy_seconds += service_s
        self._window_busy += service_s
        if self._tracer is not None:
            self._tracer.complete(
                f"req-{self.requests[index].request_id}",
                ts=self._now * 1e6, dur=service_s * 1e6,
                tid=self._tracer.lane(f"replica-{replica.replica_id}"),
                cat="service",
                args={"cross_host": int(cross)},
            )

    def _next_from_queue(self, replica: _Replica) -> None:
        """Start the next viable queued request, discarding dead work.

        With a deadline-propagating defense armed, entries past their
        deadline are dropped at dequeue (pending ones become timeouts,
        resolved ones are silently discarded) — a replica never burns
        service time on an answer nobody is waiting for.  Without the
        defense every entry is served, duplicates and stale work
        included: that wasted capacity is exactly what makes an
        undefended retry storm metastable.
        """
        deadline = None if self.defense is None else self.defense.deadline_s
        while replica.queue:
            index, cross = replica.queue.popleft()
            replica.outstanding -= 1
            self._outstanding_total -= 1
            if deadline is not None and (
                self._now > self.requests[index].arrival_s + deadline
            ):
                if index in self._terminal:
                    if self._obs_enabled:
                        self._obs.counter("cluster.stale_discarded").inc()
                else:
                    self._finalize_timeout(index)
                continue
            self._start_service(replica, index, cross)
            return
        if replica.state == "draining":
            self._retire_replica(replica)

    def _on_depart(self, entity: Tuple[int, int]) -> None:
        replica_id, token = entity
        replica = self._replicas[replica_id]
        if replica.in_service is None or replica.service_token != token:
            return  # the request was re-routed when this replica faulted
        if replica.partitioned:
            # The response cannot cross the partition; deliver at heal.
            replica.deferred_depart = token
            return
        index = replica.in_service
        rung = replica.in_service_rung
        replica.in_service = None
        replica.in_service_rung = None
        replica.outstanding -= 1
        self._outstanding_total -= 1
        if self.defense is not None:
            self.defense.on_replica_success(replica_id, self._now)
        if index in self._terminal:
            # A duplicate copy of an already-resolved request: the
            # capacity is spent, but nothing new is answered.
            self._duplicate_service += 1
            if self._obs_enabled:
                self._obs.counter("cluster.duplicate_service").inc()
            self._emit("duplicate", index)
            self._next_from_queue(replica)
            return
        self._terminal[index] = "serve"
        # Latency spans original arrival (not retry time) to completion.
        start = self.requests[index].arrival_s
        latency = self._now - start
        self._latencies.append(latency)
        if self._fail_fast and latency > self.config.p99_slo_s:
            self._slo_over += 1
        self._served += 1
        if rung is not None:
            self._brownout_counts[rung] = self._brownout_counts.get(rung, 0) + 1
        self._emit("serve", index)
        if replica.in_service_cross:
            self._cross_served += 1
            if self._obs_enabled:
                self._obs.counter("cluster.cross_host_served").inc()
        if self._obs_enabled:
            self._obs.histogram("cluster.request_latency_s").observe(
                self._now - start
            )
        self._next_from_queue(replica)

    def _strand_and_retry(self, replica: _Replica) -> None:
        """Re-dispatch everything a failed replica held through the
        front door, under the retry cutoff and any armed defenses."""
        stranded: List[int] = []
        if replica.in_service is not None:
            stranded.append(replica.in_service)
            replica.in_service = None
            replica.in_service_rung = None
            replica.outstanding -= 1
            self._outstanding_total -= 1
        stranded.extend(index for index, _ in replica.queue)
        self._outstanding_total -= len(replica.queue)
        replica.outstanding -= len(replica.queue)
        replica.queue.clear()
        for index in stranded:
            if index in self._terminal:
                continue  # a duplicate copy of resolved work: just gone
            if self.defense is not None:
                if not self.defense.take_retry_token(self._now):
                    self._drop_copy(index)
                    continue
                attempt = self._attempts.get(index, 0)
                self._attempts[index] = attempt + 1
                self._retried += 1
                if self._obs_enabled:
                    self._obs.counter("cluster.retries").inc()
                delay = self.defense.backoff_s(attempt, self._rng)
                if delay > 0:
                    self._push(
                        self._now + delay, "retry_fire", (index, "fault_retry")
                    )
                else:
                    self._route(index, mode="fault_retry")
            else:
                self._retried += 1
                if self._obs_enabled:
                    self._obs.counter("cluster.retries").inc()
                self._route(index, mode="fault_retry")

    def _on_fault(self, replica_id: int) -> None:
        replica = self._replicas.get(replica_id)
        if replica is None or not replica.serving:
            return  # thinning: the id never existed or is already down
        self._faults += 1
        was_draining = replica.state == "draining"
        replica.accrue_up_time(self._now)
        replica.state = "down"
        self._emit("fault", replica_id)
        if self.defense is not None:
            self.defense.on_replica_failure(replica_id, self._now)
        if self._tracer is not None:
            self._tracer.instant(
                "fault", ts=self._now * 1e6,
                tid=self._tracer.lane(f"replica-{replica_id}"),
            )
        self._strand_and_retry(replica)
        reboot_s = self._drain_policy.sample_reboot_s(self._rng)
        if self._obs_enabled:
            self._obs.histogram("cluster.reboot_s").observe(reboot_s)
        if was_draining:
            # A draining replica that wedges is simply retired post-reboot.
            self._retire_replica(replica)
        else:
            self._push(self._now + reboot_s, "recover", replica_id)

    def _on_recover(self, replica_id: int) -> None:
        replica = self._replicas[replica_id]
        if replica.state != "down" or replica.forced_down:
            return
        replica.state = "up"
        replica.mark_up(self._now)
        self._emit("recover", replica_id)

    # ------------------------------------------------------------------
    # Chaos hooks: injections, client retries
    # ------------------------------------------------------------------

    def _on_inject(self, injection: Injection) -> None:
        targets = injection.targets or tuple(self._replicas)
        for replica_id in targets:
            replica = self._replicas.get(replica_id)
            if replica is None or replica.state == "retired":
                continue
            if injection.kind == "down":
                self._inject_down(replica)
            elif injection.kind == "up":
                self._inject_up(replica)
            elif injection.kind == "slow":
                replica.slow_factor = injection.magnitude
                self._emit("slow", replica_id)
            elif injection.kind == "slow_end":
                replica.slow_factor = 1.0
                self._emit("slow_end", replica_id)
            elif injection.kind == "partition":
                replica.partitioned = True
                self._emit("partition", replica_id)
            elif injection.kind == "heal":
                replica.partitioned = False
                self._emit("heal", replica_id)
                if replica.deferred_depart is not None:
                    self._push(
                        self._now, "depart",
                        (replica_id, replica.deferred_depart),
                    )
                    replica.deferred_depart = None

    def _inject_down(self, replica: _Replica) -> None:
        replica.forced_down = True
        if not replica.serving:
            return  # already down: stay down until the paired "up"
        self._faults += 1
        was_draining = replica.state == "draining"
        replica.accrue_up_time(self._now)
        replica.state = "down"
        replica.partitioned = False
        replica.deferred_depart = None
        self._emit("inject_down", replica.replica_id)
        if self.defense is not None:
            self.defense.on_replica_failure(replica.replica_id, self._now)
        if self._tracer is not None:
            self._tracer.instant(
                "inject_down", ts=self._now * 1e6,
                tid=self._tracer.lane(f"replica-{replica.replica_id}"),
            )
        self._strand_and_retry(replica)
        if was_draining:
            self._retire_replica(replica)

    def _inject_up(self, replica: _Replica) -> None:
        replica.forced_down = False
        if replica.state != "down":
            return
        replica.state = "up"
        replica.mark_up(self._now)
        self._emit("inject_up", replica.replica_id)

    def _on_client_check(self, index: int) -> None:
        """The client's response timer fired: retry or give up."""
        if index in self._terminal:
            return
        client = self.client
        assert client is not None
        if self._now > self._horizon:
            # Traffic has stopped: clients give up rather than re-send
            # into the drain forever.  Without this cutoff a permanently
            # dead tier (an unhealed injection) plus an unbounded client
            # would re-push checks without end and the run could never
            # terminate; with it, whatever the drain cannot serve is
            # finalized as lost work.
            self._finalize_timeout(index)
            return
        attempts = self._attempts.get(index, 0)
        if client.max_retries is not None and attempts >= client.max_retries:
            self._finalize_timeout(index)
            return
        arrival = self.requests[index].arrival_s
        if self.defense is not None:
            # Deadline propagation reaches the client too: past the
            # deadline there is no point re-sending.
            if self.defense.past_deadline(self._now, arrival):
                self._finalize_timeout(index)
                return
            if not self.defense.take_retry_token(self._now):
                # Over the retry budget: wait a full timeout and re-check.
                self._push(self._now + client.timeout_s, "client", index)
                return
        self._attempts[index] = attempts + 1
        delay = 0.0
        if self.defense is not None:
            delay += self.defense.backoff_s(attempts, self._rng)
        self._push(self._now + delay, "retry_fire", (index, "client_retry"))
        self._push(self._now + delay + client.timeout_s, "client", index)

    def _on_retry_fire(self, entity: Tuple[int, str]) -> None:
        index, mode = entity
        if index in self._terminal:
            return
        if mode == "client_retry":
            self._client_retries += 1
            if self._obs_enabled:
                self._obs.counter("cluster.client_retries").inc()
            self._emit("client_retry", index)
        self._route(index, mode=mode)

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------

    def _on_scale(self) -> None:
        assert self.autoscaler is not None
        interval = self.autoscaler.config.tick_interval_s
        serving = [r for r in self._replicas.values() if r.serving]
        up = [r for r in serving if r.state == "up"]
        capacity_s = max(len(serving), 1) * interval
        utilization = min(self._window_busy / capacity_s, 2.0)
        rate = self._window_offered / interval
        self._window_busy = 0.0
        self._window_offered = 0
        desired = self.autoscaler.desired_replicas(
            self._now, len(up), utilization, rate
        )
        self._obs.series("cluster.replicas").append(self._now, len(up))
        self._obs.gauge("cluster.window_utilization").set(utilization)
        if desired == len(up):
            return
        self._scale_events.append((self._now, len(up), desired))
        self._emit("scale", desired)
        if self._tracer is not None:
            self._tracer.counter(
                "replicas", ts=self._now * 1e6,
                values={"target": float(desired)},
            )
        if desired > len(up):
            for _ in range(desired - len(up)):
                if self._spawn_replica() is None:
                    break
        else:
            # Drain the youngest replicas first (cold caches, cheapest loss).
            for replica in sorted(up, key=lambda r: -r.replica_id)[
                : len(up) - desired
            ]:
                replica.state = "draining"
                self._emit("drain", replica.replica_id)
                if replica.outstanding == 0:
                    self._retire_replica(replica)
        self._peak_replicas = max(
            self._peak_replicas,
            sum(1 for r in self._replicas.values() if r.serving),
        )


def run_reference(config, service, requests, **hooks) -> ClusterReport:
    """:func:`repro.cluster.run_cluster`, on the general loop."""
    return ReferenceSimulator(config, service, requests, **hooks).run()
