"""The global fleet simulator: anycast LB over per-region clusters.

The hierarchy the paper's serving fleet actually runs: a global anycast
front door routes each user request to its home region; each region is
one :class:`~repro.cluster.simulator.ClusterSimulator` deployment (with
its own injections, power throttle, and — on the defended arm — the
full chaos defense suite and brownout ladder).  The composition is a
deterministic two-pass design:

1. **LB pass.**  Per-region diurnal streams (timezone-phased via
   ``phase_h``) are merged in global arrival order and routed one
   request at a time through :class:`~repro.fleet_global.failover
   .SpillRouter`: home when the probes say the home region is healthy,
   spilled to the least-loaded healthy region when not (paying the
   inter-region forward leg as a shifted arrival), shed at the LB when
   the whole planet is full or dark.  Streams depend only on the
   traffic, so they and their merge order are cached across replica
   counts and arms, and a request is re-stamped only when it spilled
   or changed index.
2. **Region pass.**  Each region's final stream — home traffic plus
   whatever spilled in — runs through its own seeded cluster
   simulation.  Regions are independent given their streams, so the
   passes compose without a global event heap while staying bit-for-bit
   deterministic.  An unobserved undefended region run is a pure
   function of its inputs, so its report is memoized and the arms that
   repeat it share it.

The :class:`FleetReport` then reads each region's event log back and
attributes every terminal outcome to the request's *origin* region,
enforcing global conservation::

    served + shed + timed_out + spilled_served == offered

with ``shed`` including LB sheds and ``spilled_served`` latencies
carrying both inter-region legs.  An undefended run (no monitors, no
spill, no defenses) sends traffic at a dead region for the whole
outage — the baseline the capacity study measures overprovision
against.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.brownout import BrownoutController, default_ladder
from repro.chaos.domains import merge_schedules
from repro.cluster.service import ServiceModel, default_service_model
from repro.cluster.simulator import (
    ClusterConfig,
    ClusterReport,
    Injection,
    run_cluster,
)
from repro.fastsim.vectorize import sorted_percentile
from repro.fleet_global.drills import DrillSchedule
from repro.fleet_global.failover import (
    FailoverConfig,
    HealthMonitor,
    SpillRouter,
)
from repro.fleet_global.regions import FleetConfig
from repro.obs.metrics import MetricsRegistry, active
from repro.power.cluster_link import ThrottleSchedule
from repro.resilience.policies import AdmissionConfig, DefenseConfig, DefenseRuntime
from repro.serving.workload import (
    DiurnalTrafficModel,
    Request,
    diurnal_poisson_stream,
    with_priorities,
)

# Seed offsets separating the fleet's independent random purposes
# (stream generation, priority assignment, cluster dynamics) so no two
# draw from the same generator state.
_STREAM_SEED = 0
_PRIORITY_SEED = 101
_CLUSTER_SEED = 211

TERMINAL_KINDS = ("serve", "shed", "timeout")


@dataclasses.dataclass(frozen=True)
class RegionOutcome:
    """One region's run, attributed by request *origin*.

    ``offered`` counts the requests that originated here (its users);
    ``served`` the ones its own cluster answered, ``spilled_served`` the
    ones another region answered after failover.  Conservation holds
    per region: ``served + spilled_served + shed + timed_out ==
    offered``.
    """

    name: str
    offered: int
    served: int
    spilled_served: int
    shed: int
    timed_out: int
    lb_shed: int
    spilled_in_served: int  # foreign requests this region answered
    detection_lag_s: float  # inf when the region never went down
    report: ClusterReport

    def __post_init__(self) -> None:
        if (self.served + self.spilled_served + self.shed + self.timed_out
                != self.offered):
            raise ValueError(
                f"region {self.name} conservation violated: "
                f"{self.served} + {self.spilled_served} + {self.shed} "
                f"+ {self.timed_out} != {self.offered}"
            )

    @property
    def loss_fraction(self) -> float:
        return (
            (self.shed + self.timed_out) / self.offered
            if self.offered else 0.0
        )


@dataclasses.dataclass(frozen=True)
class FleetReport:
    """One global fleet run: per-origin outcomes under conservation."""

    defended: bool
    seed: int
    duration_s: float
    offered: int
    served: int
    spilled_served: int
    shed: int
    timed_out: int
    lb_shed: int
    latencies_s: Tuple[float, ...]
    regions: Tuple[RegionOutcome, ...]
    spill_one_way_s: float

    def __post_init__(self) -> None:
        if (self.served + self.shed + self.timed_out + self.spilled_served
                != self.offered):
            raise ValueError(
                "fleet conservation violated: "
                f"{self.served} served + {self.shed} shed + "
                f"{self.timed_out} timed out + "
                f"{self.spilled_served} spilled != {self.offered}"
            )
        if self.lb_shed > self.shed:
            raise ValueError("LB sheds are a subset of sheds")

    @property
    def answered(self) -> int:
        """Requests that got a response, wherever it was served."""
        return self.served + self.spilled_served

    @property
    def loss_fraction(self) -> float:
        return (
            (self.shed + self.timed_out) / self.offered
            if self.offered else 0.0
        )

    @property
    def spill_fraction(self) -> float:
        return self.spilled_served / self.offered if self.offered else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Exact global-latency percentile over every answered request
        (spilled answers already carry both inter-region legs)."""
        return sorted_percentile(sorted(self.latencies_s), percentile)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99)

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50)

    def meets_slo(
        self, p99_slo_s: float, max_loss_fraction: float = 0.0
    ) -> bool:
        """Global SLO attainment: P99 in budget, losses bounded."""
        return (
            self.p99_latency_s <= p99_slo_s
            and self.loss_fraction <= max_loss_fraction
        )

    def region(self, name: str) -> RegionOutcome:
        for outcome in self.regions:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no region named {name!r}")

    def summary(self) -> str:
        arm = "defended" if self.defended else "undefended"
        lines = [
            f"fleet ({arm}): offered={self.offered} "
            f"served={self.served} spilled={self.spilled_served} "
            f"shed={self.shed} (lb={self.lb_shed}) "
            f"timed_out={self.timed_out} "
            f"loss={self.loss_fraction:.2%}\n"
            f"p50={self.p50_latency_s * 1e3:.1f} ms "
            f"p99={self.p99_latency_s * 1e3:.1f} ms"
        ]
        for outcome in self.regions:
            lag = (f"{outcome.detection_lag_s:.2f}s"
                   if outcome.detection_lag_s != float("inf") else "-")
            lines.append(
                f"  {outcome.name:<10} offered={outcome.offered:>5} "
                f"served={outcome.served:>5} "
                f"spilled_out={outcome.spilled_served:>4} "
                f"spilled_in={outcome.spilled_in_served:>4} "
                f"loss={outcome.loss_fraction:6.2%} detect={lag}"
            )
        return "\n".join(lines)


# Bound on each fleet cache.  A capacity study touches one base stream
# per region and two merged fleet streams (with and without priority
# tiers), however many sizes and arms it sweeps; its region-run memo
# holds one report per region and size plus the drilled regions.
_STREAM_CACHE_SIZE = 32

Streams = Tuple[Tuple[Request, ...], ...]
MergeOrder = Tuple[Tuple[float, int, int], ...]


@functools.lru_cache(maxsize=_STREAM_CACHE_SIZE)
def _base_stream(
    model: DiurnalTrafficModel,
    duration_s: float,
    samples_per_request: int,
    seed: int,
) -> Tuple[Request, ...]:
    """One region's diurnal arrivals: a pure function of its inputs,
    so every replica count and arm of a sweep shares it."""
    return tuple(diurnal_poisson_stream(
        model,
        duration_s=duration_s,
        samples_per_request=samples_per_request,
        seed=seed,
    ))


@functools.lru_cache(maxsize=_STREAM_CACHE_SIZE)
def _merged_streams(
    base_keys: Tuple[Tuple, ...],
    tier_keys: Optional[Tuple[Tuple[Tuple[float, ...], int], ...]],
) -> Tuple[Streams, MergeOrder]:
    """The fleet's region streams and their global merge order.

    ``tier_keys`` holds each region's ``(weights, seed)`` priority draw
    on the defended arm and is ``None`` otherwise.  The merge order's
    key is total — (time, origin region, origin index) — so the LB
    pass's assignment sequence is a pure function of the seed and the
    drill.
    """
    streams = tuple(_base_stream(*key) for key in base_keys)
    if tier_keys is not None:
        streams = tuple(
            tuple(with_priorities(stream, weights, seed=seed))
            for stream, (weights, seed) in zip(streams, tier_keys)
        )
    order = tuple(sorted(
        (request.arrival_s, origin, index)
        for origin, stream in enumerate(streams)
        for index, request in enumerate(stream)
    ))
    return streams, order


def _base_keys(config: FleetConfig) -> Tuple[Tuple, ...]:
    """Each region's :func:`_base_stream` arguments."""
    return tuple(
        (
            config.traffic_model(spec),
            config.duration_s,
            config.samples_per_request,
            config.seed + _STREAM_SEED + index,
        )
        for index, spec in enumerate(config.regions)
    )


@functools.lru_cache(maxsize=_STREAM_CACHE_SIZE)
def _plain_region_run(
    base_key: Tuple,
    cluster_config: ClusterConfig,
    service: ServiceModel,
    throttle: Optional[ThrottleSchedule],
    schedule: Tuple[Injection, ...],
) -> ClusterReport:
    """One undefended region's cluster run over its own base stream.

    The arguments are every input of the run, and the run is seeded,
    so a report is reused, never re-simulated: the undefended arm's
    regions without a drill repeat the baseline arm's runs exactly.
    The default five-size capacity study makes 20 entries.
    """
    return run_cluster(
        cluster_config, service, _base_stream(*base_key),
        throttle=throttle, injections=schedule,
    )


def _region_streams(
    config: FleetConfig, defended: bool
) -> Tuple[Streams, MergeOrder]:
    """Per-region diurnal arrivals, seeded independently per region,
    with their global merge order.

    The defended arm additionally tiers each stream by priority (for
    the brownout ladder) — a seeded draw independent of arrival timing,
    so both arms see identical arrival processes.  Both are cached:
    streams depend on the traffic, never on replica counts or arms.
    """
    base_keys = _base_keys(config)
    tier_keys = tuple(
        (config.priority_weights, config.seed + _PRIORITY_SEED + index)
        for index in range(len(config.regions))
    ) if defended else None
    return _merged_streams(base_keys, tier_keys)


def _build_monitors(
    config: FleetConfig,
    drill: Optional[DrillSchedule],
    failover: FailoverConfig,
) -> Tuple[List[Optional[HealthMonitor]], List[Optional[HealthMonitor]]]:
    """(home, spill) probe monitors per region.

    Home failover reacts to outages only; spill eligibility also honors
    partitions (a partitioned region serves its own users but cannot be
    reached from other regions' front doors).
    """
    horizon = config.duration_s
    home: List[Optional[HealthMonitor]] = []
    spill: List[Optional[HealthMonitor]] = []
    for spec in config.regions:
        down = drill.unreachable_for(spec.name) if drill else ()
        cut = drill.isolated_for(spec.name) if drill else ()
        home.append(
            HealthMonitor(down, horizon, failover) if down else None
        )
        both = tuple(sorted((*down, *cut)))
        spill.append(
            HealthMonitor(both, horizon, failover) if both else None
        )
    return home, spill


def _build_router(
    config: FleetConfig,
    drill: Optional[DrillSchedule],
    defended: bool,
    failover: FailoverConfig,
    service: ServiceModel,
) -> Tuple[List[Optional[HealthMonitor]], SpillRouter]:
    """The home monitors and the LB's spill router for one run; the
    undefended arm has no monitors, so it never spills or LB-sheds."""
    num_regions = len(config.regions)
    if defended:
        home_monitors, spill_monitors = _build_monitors(
            config, drill, failover
        )
    else:
        home_monitors = [None] * num_regions
        spill_monitors = [None] * num_regions
    capacity_requests = [
        spec.replicas * service.capacity_per_replica() * config.duration_s
        for spec in config.regions
    ]
    router = SpillRouter(
        home_monitors,
        [spec.replicas for spec in config.regions],
        capacity_requests,
        failover,
        spill_monitors=spill_monitors,
    )
    return home_monitors, router


def _lb_pass(
    streams: Streams,
    order: MergeOrder,
    router: SpillRouter,
    spill_one_way_s: float,
) -> Tuple[List[List[Request]], List[List[Tuple[int, bool]]], List[int]]:
    """The LB pass: one global chronological sweep through ``router``.

    Returns, per destination region, the final stream and, aligned by
    index, each request's (origin region, spilled) attribution tag;
    plus the LB sheds per origin.  A request is re-stamped only when it
    spilled (its arrival shifts by the forward leg) or its destination
    index differs from its ``request_id``; every other request passes
    through as the same frozen object.
    """
    num_regions = len(streams)
    dest_streams: List[List[Request]] = [[] for _ in range(num_regions)]
    dest_tags: List[List[Tuple[int, bool]]] = [[] for _ in range(num_regions)]
    lb_shed_by_origin = [0] * num_regions
    assign = router.assign
    for arrival_s, origin, index in order:
        assignment = assign(origin, arrival_s)
        if assignment.lb_shed:
            lb_shed_by_origin[origin] += 1
            continue
        request = streams[origin][index]
        dest = assignment.region
        spilled = assignment.spilled
        bucket = dest_streams[dest]
        if spilled or request.request_id != len(bucket):
            arrival = request.arrival_s
            if spilled:
                arrival += spill_one_way_s
            request = Request(
                arrival_s=arrival,
                samples=request.samples,
                request_id=len(bucket),
                priority=request.priority,
            )
        bucket.append(request)
        dest_tags[dest].append((origin, spilled))
    return dest_streams, dest_tags, lb_shed_by_origin


def run_fleet(
    config: FleetConfig,
    drill: Optional[DrillSchedule] = None,
    defended: bool = False,
    failover: Optional[FailoverConfig] = None,
    service: Optional[ServiceModel] = None,
    extra_injections: Optional[Dict[str, Sequence[Injection]]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> FleetReport:
    """Run the global fleet once and return the attributed report.

    ``defended=False`` is the pre-fleet world: no probes, no spill, no
    defenses — the LB keeps sending a dead region its traffic and the
    loss lands as cluster sheds/timeouts.  ``defended=True`` arms
    probe-driven failover with capacity spill at the front door and the
    chaos-tier defense suite plus brownout ladder inside every region.
    Power-budget throttles (physics, not policy) apply to both arms.
    ``extra_injections`` layers additional per-region schedules (e.g. a
    staged global firmware rollout) over the drill's.
    """
    failover = failover or FailoverConfig()
    service = service or default_service_model()
    streams, order = _region_streams(config, defended)
    offered = sum(len(stream) for stream in streams)
    num_regions = len(config.regions)
    home_monitors, router = _build_router(
        config, drill, defended, failover, service
    )
    dest_streams, dest_tags, lb_shed_by_origin = _lb_pass(
        streams, order, router, failover.spill_one_way_s
    )

    # Region pass: independent seeded cluster runs.  An undefended
    # region's stream is its base stream (nothing spills or LB-sheds
    # without monitors), so an unobserved one is looked up in the
    # region-run memo; an observed run records its own metrics.
    extra_injections = extra_injections or {}
    memo = not defended and registry is None
    base_keys = _base_keys(config)
    reports: List[ClusterReport] = []
    for index, spec in enumerate(config.regions):
        schedule: Sequence[Injection] = (
            drill.injections_for(spec.name) if drill else ()
        )
        extra = extra_injections.get(spec.name, ())
        if extra:
            schedule = merge_schedules(schedule, extra)
        cluster_config = ClusterConfig(
            replicas=spec.replicas,
            num_hosts=spec.num_hosts,
            policy=config.policy,
            p99_slo_s=config.p99_slo_s,
            admission=AdmissionConfig(),
            seed=config.seed + _CLUSTER_SEED + index,
        )
        if memo:
            reports.append(_plain_region_run(
                base_keys[index], cluster_config, service, spec.throttle(),
                tuple(schedule),
            ))
            continue
        brownout = BrownoutController(default_ladder()) if defended else None
        reports.append(run_cluster(
            cluster_config, service, dest_streams[index],
            registry=registry,
            throttle=spec.throttle(),
            defense=(
                DefenseRuntime(DefenseConfig.full(deadline_s=0.3))
                if defended else None
            ),
            injections=schedule,
            brownout=brownout,
        ))

    # Attribution pass: read each region's event log back and charge
    # every terminal outcome to the request's origin region.
    served_o = [0] * num_regions
    spilled_served_o = [0] * num_regions
    shed_o = list(lb_shed_by_origin)
    timed_out_o = [0] * num_regions
    spilled_in_served = [0] * num_regions
    latencies: List[float] = []
    round_trip = 2.0 * failover.spill_one_way_s
    for dest, report in enumerate(reports):
        tags = dest_tags[dest]
        for time_s, kind, index in report.event_log:
            if kind not in TERMINAL_KINDS:
                continue
            origin, spilled = tags[index]
            if kind == "serve":
                latency = time_s - dest_streams[dest][index].arrival_s
                if spilled:
                    spilled_served_o[origin] += 1
                    spilled_in_served[dest] += 1
                    latencies.append(latency + round_trip)
                else:
                    served_o[origin] += 1
                    latencies.append(latency)
            elif kind == "shed":
                shed_o[origin] += 1
            else:
                timed_out_o[origin] += 1

    outcomes = tuple(
        RegionOutcome(
            name=spec.name,
            offered=len(streams[index]),
            served=served_o[index],
            spilled_served=spilled_served_o[index],
            shed=shed_o[index],
            timed_out=timed_out_o[index],
            lb_shed=lb_shed_by_origin[index],
            spilled_in_served=spilled_in_served[index],
            detection_lag_s=(
                home_monitors[index].detection_lag_s()
                if home_monitors[index] is not None else float("inf")
            ),
            report=reports[index],
        )
        for index, spec in enumerate(config.regions)
    )
    fleet_report = FleetReport(
        defended=defended,
        seed=config.seed,
        duration_s=config.duration_s,
        offered=offered,
        served=sum(served_o),
        spilled_served=sum(spilled_served_o),
        shed=sum(shed_o),
        timed_out=sum(timed_out_o),
        lb_shed=sum(lb_shed_by_origin),
        latencies_s=tuple(latencies),
        regions=outcomes,
        spill_one_way_s=failover.spill_one_way_s,
    )
    obs = active(registry)
    if obs.enabled:
        arm = "defended" if defended else "undefended"
        obs.gauge(f"fleet.{arm}.p99_latency_s").set(
            fleet_report.p99_latency_s
        )
        obs.gauge(f"fleet.{arm}.loss_fraction").set(
            fleet_report.loss_fraction
        )
        obs.gauge(f"fleet.{arm}.spill_fraction").set(
            fleet_report.spill_fraction
        )
        obs.counter(f"fleet.{arm}.lb_shed").inc(fleet_report.lb_shed)
    return fleet_report


__all__ = [
    "FleetReport",
    "RegionOutcome",
    "TERMINAL_KINDS",
    "run_fleet",
]
