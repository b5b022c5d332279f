"""The multi-host serving-tier simulator: front door to replica pool.

An event-driven composition of everything below it in the stack:

* traffic from :mod:`repro.serving.workload` (Poisson or the diurnal +
  bursty stream);
* a front door routing each request to one replica through a pluggable
  :mod:`repro.cluster.routing` policy, under the
  :class:`~repro.resilience.policies.AdmissionConfig` overload caps;
* per-replica single-server queues whose service times come from
  :class:`~repro.cluster.service.ServiceModel` (calibrated from the
  device-level serving profiles);
* embedding-shard locality via
  :class:`~repro.cluster.locality.ShardLocalityMap` — serving a request
  off-shard costs the cross-host penalty;
* a reactive + predictive :class:`~repro.cluster.autoscaler.Autoscaler`
  placing and releasing replicas through
  :class:`~repro.cluster.provisioning.HostPool`;
* replica-stopping faults at rates from the section 5 reliability
  models (:func:`repro.resilience.faults.fault_rates_from_reliability`),
  with reboot times from the
  :class:`~repro.resilience.policies.DrainPolicy`.

The chaos tier (:mod:`repro.chaos`) plugs in through four optional
hooks, every one of which defaults to off and leaves the event log
byte-identical when unused:

* ``injections`` — externally scheduled correlated faults
  (:class:`Injection`): forced replica outages, network partitions,
  service-time inflation (thermal throttling);
* ``client`` — client-side retry behaviour
  (:class:`~repro.resilience.policies.ClientRetryConfig`): a request that has not completed within
  the client timeout is re-sent, duplicating work — the raw material of
  a retry storm;
* ``defense`` — a :class:`~repro.resilience.policies.DefenseRuntime`
  (deadline propagation, retry token bucket, backoff with jitter,
  per-replica circuit breakers);
* ``brownout`` — the graceful-degradation ladder of
  :mod:`repro.chaos.brownout` (priority-tiered admission and
  cheaper-variant serving under overload).

A request now reaches exactly one of *three* terminal outcomes — served,
shed, or timed out — and the report enforces
``served + shed + timed_out == offered``.  The timeout bucket closes the
old unbounded-retry hole: a request stranded by a fault is re-routed
only while it is inside its deadline (``retry_deadline_slos`` times the
P99 SLO); past that it is counted ``timed_out`` instead of bouncing
through the front door forever.

Every run, hooks or none, takes one event loop,
:func:`repro.cluster.event_loop.run_events`: events keyed
``(time, sequence)``, every random draw from one seeded generator in a
fixed order, so a seed fully determines the run — the property tests
assert byte-identical event logs.  Each hook is an event source or a
branch the loop tests under a flag set once per run, so a hook-free run
pays for none of them.  An attached
:class:`~repro.obs.metrics.MetricsRegistry` or
:class:`~repro.obs.tracing.TraceWriter` observes without steering.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fastsim.vectorize import seeded_poisson_arrivals, sorted_percentile

from repro.cluster.autoscaler import Autoscaler
from repro.cluster.event_loop import run_events
from repro.cluster.locality import ShardLocalityMap
from repro.cluster.provisioning import HostPool, ReplicaGrant
from repro.cluster.routing import POLICY_NAMES, RoutingPolicy, make_policy
from repro.cluster.service import ServiceModel
from repro.fleet.allocator import AllocationError
from repro.obs.metrics import MetricsRegistry, active
from repro.obs.tracing import TraceWriter
from repro.resilience.policies import (
    AdmissionConfig,
    ClientRetryConfig,
    DrainPolicy,
    require_count,
    require_finite,
)
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.serving.workload import Request

INJECTION_KINDS = ("down", "up", "slow", "slow_end", "partition", "heal")


def injection_sort_key(injection: "Injection") -> Tuple:
    """The total order injections execute in at equal timestamps.

    Sorting by time alone leaves same-timestamp events — routine once
    multi-region schedules are merged — ordered by whatever sequence the
    caller happened to assemble them in, which is exactly the kind of
    hidden input-order dependence that breaks seed stability.  The
    tie-break is the :data:`INJECTION_KINDS` declaration order (``down``
    before its paired ``up``, ``slow`` before ``slow_end``,
    ``partition`` before ``heal`` — so a zero-duration event nets to
    recovered), then the target tuple, then magnitude.  Every
    ``Injection`` field participates, so the key is a total order: any
    arrangement of the same events sorts to the same schedule.
    """
    return (
        injection.time_s,
        INJECTION_KINDS.index(injection.kind),
        injection.targets,
        injection.magnitude,
    )


def fault_rate_from_reliability() -> float:
    """Replica-stopping faults per replica-hour, from the section 5
    reliability models (the deadlock family — the one that wedges a
    host until reboot)."""
    from repro.resilience.faults import fault_rates_from_reliability

    return fault_rates_from_reliability().deadlock_per_device_hour


@dataclasses.dataclass(frozen=True)
class Injection:
    """One externally scheduled chaos event.

    ``kind`` is one of :data:`INJECTION_KINDS`:

    * ``down`` / ``up`` — force the target replicas into / out of a
      correlated outage (no reboot sampling; recovery comes only from
      the paired ``up``, so a schedule fully determines the outage);
    * ``slow`` / ``slow_end`` — multiply the targets' service times by
      ``magnitude`` (thermal-emergency throttling) and restore them;
    * ``partition`` / ``heal`` — sever the targets from the front door:
      no new routing, and in-flight completions are delivered only after
      the heal (the response cannot cross a partitioned network).
    """

    time_s: float
    kind: str
    targets: Tuple[int, ...] = ()
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        require_finite("injection time", self.time_s)
        require_finite("injection magnitude", self.magnitude)
        if self.time_s < 0:
            raise ValueError("injection time must be non-negative")
        for target in self.targets:
            require_count("injection target", target)
            if target < 0:
                raise ValueError(f"injection targets must be non-negative, got {self.targets}")
        if self.kind not in INJECTION_KINDS:
            raise ValueError(
                f"unknown injection kind {self.kind!r}; "
                f"choose one of {INJECTION_KINDS}"
            )
        if self.kind == "slow" and self.magnitude < 1.0:
            raise ValueError("slow injections must not speed replicas up")


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """One cluster run's shape: replicas, policy, limits, faults."""

    replicas: int = 8
    accelerators_per_replica: int = 1
    num_hosts: int = 8
    policy: str = "po2"
    p99_slo_s: float = DEFAULT_P99_SLO_S
    admission: AdmissionConfig = dataclasses.field(
        default_factory=AdmissionConfig
    )
    fault_rate_per_replica_hour: float = 0.0
    # Fault-stranded requests are re-routed only while inside this many
    # SLOs of their arrival; past it they are counted ``timed_out``.
    # ``None`` restores the old unbounded-retry behaviour.
    retry_deadline_slos: Optional[float] = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_count("replicas", self.replicas)
        require_count("accelerators per replica", self.accelerators_per_replica)
        require_count("hosts", self.num_hosts)
        require_finite("SLO", self.p99_slo_s)
        require_finite("fault rate", self.fault_rate_per_replica_hour)
        if self.retry_deadline_slos is not None:
            require_finite("retry deadline", self.retry_deadline_slos)
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"choose one of {POLICY_NAMES}"
            )
        if self.replicas <= 0:
            raise ValueError("need at least one replica")
        if self.accelerators_per_replica <= 0:
            raise ValueError("replicas need at least one accelerator")
        if self.num_hosts <= 0:
            raise ValueError("need at least one host")
        if self.p99_slo_s <= 0:
            raise ValueError("SLO must be positive")
        if self.fault_rate_per_replica_hour < 0:
            raise ValueError("fault rate must be non-negative")
        if self.retry_deadline_slos is not None and self.retry_deadline_slos <= 0:
            raise ValueError("retry deadline must be positive (or None)")


@dataclasses.dataclass(frozen=True)
class ClusterReport:
    """One cluster run's outcome."""

    policy: str
    seed: int
    duration_s: float
    offered: int
    served: int
    shed: int
    retried: int
    cross_host_served: int
    latencies_s: Tuple[float, ...]
    busy_seconds: float
    replica_seconds: float
    peak_replicas: int
    final_replicas: int
    faults: int
    scale_events: Tuple[Tuple[float, int, int], ...]
    event_log: Tuple[Tuple[float, str, int], ...]
    # Chaos-tier outcomes (all zero/empty on a defense-free run).
    timed_out: int = 0
    client_retries: int = 0
    rejected: int = 0  # non-terminal front-door drops of retry copies
    duplicate_service: int = 0  # completions for already-resolved requests
    brownout_served: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.served + self.shed + self.timed_out != self.offered:
            raise ValueError(
                "request conservation violated: "
                f"{self.served} served + {self.shed} shed + "
                f"{self.timed_out} timed out != {self.offered}"
            )

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def timed_out_fraction(self) -> float:
        return self.timed_out / self.offered if self.offered else 0.0

    @property
    def cross_host_fraction(self) -> float:
        """Fraction of served requests whose embedding shard was remote."""
        return self.cross_host_served / self.served if self.served else 0.0

    @property
    def utilization(self) -> float:
        """Busy fraction of replica capacity over the run."""
        return self.busy_seconds / self.replica_seconds if self.replica_seconds else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Exact request-latency percentile (e.g. 99 for P99)."""
        if not self.latencies_s:
            return 0.0
        ordered = np.sort(np.asarray(self.latencies_s, dtype=np.float64))
        return sorted_percentile(ordered, percentile)

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99)

    def meets_slo(self, p99_slo_s: float, max_shed_fraction: float = 0.0) -> bool:
        """SLO attainment: P99 within budget, losses bounded."""
        return (
            self.p99_latency_s <= p99_slo_s
            and self.shed_fraction + self.timed_out_fraction <= max_shed_fraction
        )

    def summary(self) -> str:
        """Human-readable digest of the run."""
        return (
            f"policy={self.policy} offered={self.offered} "
            f"served={self.served} shed={self.shed} ({self.shed_fraction:.2%}) "
            f"timed_out={self.timed_out} "
            f"retried={self.retried} faults={self.faults}\n"
            f"p50={self.p50_latency_s * 1e3:.1f} ms "
            f"p99={self.p99_latency_s * 1e3:.1f} ms "
            f"util={self.utilization:.0%} "
            f"cross-host={self.cross_host_fraction:.1%} "
            f"replicas peak={self.peak_replicas} final={self.final_replicas}"
        )


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
        # When replicas can fail or partition: the sequence number of
        # the in-service request's departure, so a departure left behind
        # by a fault cannot complete a later request (stale-event guard).
        self.service_token = 0
        self.up_since: Optional[float] = now_s
        self.up_seconds = 0.0
        # Chaos-tier state: service-time inflation (thermal throttling),
        # network reachability, and forced outages that must not be
        # resurrected by a natural reboot.
        self.slow_factor = 1.0
        self.partitioned = False
        self.forced_down = False
        self.deferred_depart = False
        # Queue depth: len(queue) plus one if a request is in service,
        # kept as a counter because routing reads it on every route.
        self.outstanding = 0

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


class ClusterSimulator:
    """Seeded DES over one model's replica set.

    :func:`~repro.cluster.event_loop.run_events` runs it: the loop
    reads the run's inputs and hooks, ``_replicas`` (a list, so a
    replica's id is its position; spawned replicas append and retired
    ones stay), ``_shards``, ``_rng``, ``_resolved`` (one byte per
    request, set once it is served, shed or timed out) and
    ``_fail_fast``; it appends to ``_event_log`` and ``_latencies``,
    and calls the bookkeeping methods below for every outcome but a
    plain serve.  :meth:`run` stores the tallies it returns.
    """

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
        # ``defense`` is a repro.resilience.policies.DefenseRuntime;
        # ``brownout`` duck-types repro.chaos.brownout.BrownoutController,
        # so the cluster tier stays importable without the chaos package.
        self.defense = defense
        self.client = client
        # Total-order sort (not time alone): see injection_sort_key.
        self.injections = sorted(injections, key=injection_sort_key)
        if autoscaler is None:
            # Without an autoscaler no replica beyond the initial set
            # ever exists, so a target past it is a typo, not a drill.
            for injection in self.injections:
                if any(t >= config.replicas for t in injection.targets):
                    raise ValueError(
                        f"injection targets {injection.targets} name replicas "
                        f"beyond the {config.replicas} this run has"
                    )
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
        # sampling, service and reboot times, and — only when a defense
        # is armed — backoff jitter).
        self._rng = np.random.default_rng(config.seed)
        # Plain ints up front: the loop reads one shard per routing
        # attempt, and repeated numpy-scalar conversion there is
        # measurable at event-loop rates.
        self._shards = self.locality.sample_shards(
            len(self.requests), self._rng
        ).tolist()
        self._fault_schedule = self._presample_faults()
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
        self._replicas: List[_Replica] = []
        # Replicas in state "up", kept by every state change (a replica
        # retires from "draining" or "down", so retiring leaves it be).
        self._up = 0
        self._now = 0.0
        # Outcomes.
        self._resolved = bytearray(len(self.requests))
        self._latencies: List[float] = []
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
        self._brownout_level = 0
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

    def _count(self, kind: str, amount: float = 1.0) -> None:
        """Count ``amount`` events of ``kind`` in an enabled registry."""
        counter = self._event_counters.get(kind)
        if counter is None:
            counter = self._obs.counter(f"cluster.events.{kind}")
            self._event_counters[kind] = counter
        counter.inc(amount)

    def _emit(self, now: float, kind: str, entity: int = -1) -> None:
        if self._obs_enabled:
            self._count(kind)
        self._event_log.append((now, kind, entity))

    def _spawn_replica(self, now: float) -> Optional[_Replica]:
        try:
            grant = self.pool.acquire(
                self.model_name, self.config.accelerators_per_replica
            )
        except AllocationError:
            self._emit(now, "pool_exhausted")
            return None
        replica_id = len(self._replicas)
        replica = _Replica(
            replica_id=replica_id,
            shard=replica_id % self.locality.num_shards,
            grant=grant,
            now_s=now,
        )
        self._replicas.append(replica)
        self._up += 1
        if self._tracer is not None:
            self._tracer.lane(f"replica-{replica_id}")
        return replica

    def _retire_replica(self, now: float, replica: _Replica) -> None:
        replica.accrue_up_time(now)
        replica.state = "retired"
        if replica.grant is not None:
            self.pool.release(replica.grant)
            replica.grant = None
        self._emit(now, "replica_retired", replica.replica_id)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> ClusterReport:
        """Execute the run and return the report.

        Arrivals stop at the traffic horizon; the tier then drains, so
        every offered request reaches exactly one terminal outcome
        (served, shed, or timed out) — the conservation the report
        asserts.  Requests still unresolved once the events run out
        (e.g. stuck behind a partition that never healed) are finalized
        as timed out.
        """
        arrivals = [request.arrival_s for request in self.requests]
        self._horizon = max(arrivals, default=0.0)
        for replica_id in range(self.config.replicas):
            self._spawn_replica(0.0)
        self._peak_replicas = len(self._replicas)
        slo_budget = 0
        if self._fail_fast and self.requests:
            # Largest over-SLO completion count the final P99 could
            # absorb, at the maximum possible served count (see the
            # nearest-rank formula in fastsim.vectorize
            # .sorted_percentile; the allowance only grows with count).
            n = len(self.requests)
            slo_budget = (n - 1) - min(n - 1, int(round(0.99 * (n - 1))))
        (
            pending, self._now, self._served, self._cross_served,
            self._busy_seconds,
        ) = run_events(self, arrivals, slo_budget)
        return self._finish(pending)

    def _finish(self, pending: Sequence[int]) -> ClusterReport:
        """The report, after the conservation sweep."""
        # Conservation sweep: anything still pending (wedged behind an
        # unhealed partition, a never-recovered outage, or cut off by a
        # fail_fast certificate) is lost work: :meth:`_time_out` for
        # each, in bulk and in the same order.
        if pending:
            self._timed_out += len(pending)
            if self._obs_enabled:
                self._obs.counter("cluster.timed_out").inc(len(pending))
                self._count("timeout", len(pending))
            now = self._now
            self._event_log.extend([(now, "timeout", index) for index in pending])

        for replica in self._replicas:
            replica.accrue_up_time(self._now)
        replica_seconds = sum(r.up_seconds for r in self._replicas)
        final = sum(1 for r in self._replicas if r.serving)
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
    # Outcome bookkeeping, called by the event loop
    # ------------------------------------------------------------------

    def _time_out(self, now: float, index: int) -> int:
        """Request ``index`` is lost past its deadline.  Returns 1, the
        lost request, for the loop's fail-fast tally."""
        self._resolved[index] = 1
        self._timed_out += 1
        if self._obs_enabled:
            self._obs.counter("cluster.timed_out").inc()
        self._emit(now, "timeout", index)
        return 1

    def _drop_copy(self, now: float, index: int) -> int:
        """A routing attempt found no home for this copy.

        Without a client the request is terminally shed, and this
        returns 1, the lost request; with one, the copy just vanishes —
        the client's next timeout check will retry or give up — and
        this returns 0.
        """
        if self.client is not None:
            self._rejected += 1
            if self._obs_enabled:
                self._obs.counter("cluster.rejected").inc()
            self._emit(now, "reject", index)
            return 0
        self._resolved[index] = 1
        self._shed += 1
        self._emit(now, "shed", index)
        if self._tracer is not None:
            self._tracer.instant(
                "shed", ts=now * 1e6, tid=self._tracer.lane("front-door"),
            )
        return 1

    def _brownout_observe(self, now: float, outstanding: int) -> None:
        level = self.brownout.on_route(now, outstanding, self._up)
        if level != self._brownout_level:
            self._brownout_level = level
            self._obs.series("cluster.brownout_level").append(now, level)
            self._emit(now, "brownout_level", level)

    def _fail(self, now: float, replica: _Replica, natural: bool) -> bool:
        """Take a serving replica down: a natural fault, or else an
        injected outage, which also ends any partition.  Returns whether
        it was draining; the loop strands its work."""
        was_draining = replica.state == "draining"
        if not was_draining:
            self._up -= 1
        self._faults += 1
        replica.accrue_up_time(now)
        replica.state = "down"
        kind = "fault"
        if not natural:
            kind = "inject_down"
            replica.partitioned = False
        self._emit(now, kind, replica.replica_id)
        if self.defense is not None:
            self.defense.on_replica_failure(replica.replica_id, now)
        if self._tracer is not None:
            self._tracer.instant(
                kind, ts=now * 1e6,
                tid=self._tracer.lane(f"replica-{replica.replica_id}"),
            )
        return was_draining

    def _revive(self, now: float, replica: _Replica, kind: str) -> None:
        """Bring a down replica back up (``recover`` or ``inject_up``)."""
        replica.state = "up"
        self._up += 1
        replica.mark_up(now)
        self._emit(now, kind, replica.replica_id)

    def _on_scale(self, now: float) -> None:
        assert self.autoscaler is not None
        interval = self.autoscaler.config.tick_interval_s
        serving = [r for r in self._replicas if r.serving]
        up = [r for r in serving if r.state == "up"]
        capacity_s = max(len(serving), 1) * interval
        utilization = min(self._window_busy / capacity_s, 2.0)
        rate = self._window_offered / interval
        self._window_busy = 0.0
        self._window_offered = 0
        desired = self.autoscaler.desired_replicas(
            now, len(up), utilization, rate
        )
        self._obs.series("cluster.replicas").append(now, len(up))
        self._obs.gauge("cluster.window_utilization").set(utilization)
        if desired == len(up):
            return
        self._scale_events.append((now, len(up), desired))
        self._emit(now, "scale", desired)
        if self._tracer is not None:
            self._tracer.counter(
                "replicas", ts=now * 1e6,
                values={"target": float(desired)},
            )
        if desired > len(up):
            for _ in range(desired - len(up)):
                if self._spawn_replica(now) is None:
                    break
        else:
            # Drain the youngest replicas first (cold caches, cheapest loss).
            for replica in sorted(up, key=lambda r: -r.replica_id)[
                : len(up) - desired
            ]:
                replica.state = "draining"
                self._up -= 1
                self._emit(now, "drain", replica.replica_id)
                if replica.outstanding == 0:
                    self._retire_replica(now, replica)
        self._peak_replicas = max(
            self._peak_replicas,
            sum(1 for r in self._replicas if r.serving),
        )


def run_cluster(
    config: ClusterConfig,
    service: ServiceModel,
    requests: Sequence[Request],
    locality: Optional[ShardLocalityMap] = None,
    autoscaler: Optional[Autoscaler] = None,
    pool: Optional[HostPool] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[TraceWriter] = None,
    throttle=None,
    defense=None,
    client: Optional[ClientRetryConfig] = None,
    injections: Sequence[Injection] = (),
    brownout=None,
    fail_fast: bool = False,
) -> ClusterReport:
    """One-call entry point: simulate a cluster run and return the report.

    ``fail_fast`` stops the run at the first lost request — a
    feasibility probe for searches that only ask "does this size hold
    the SLO with zero loss?", where one loss already decides the
    answer.  A run that finishes without loss is untouched by the flag
    (identical events, identical report); an aborted run's report is
    conservation-clean but truncated, so use it only for the verdict.
    """
    return ClusterSimulator(
        config, service, requests,
        locality=locality, autoscaler=autoscaler, pool=pool,
        registry=registry, tracer=tracer, throttle=throttle,
        defense=defense, client=client, injections=injections,
        brownout=brownout, fail_fast=fail_fast,
    ).run()
