"""Capacity planning: hosts needed versus offered QPS at a fixed SLO.

The provisioning question the paper's productionization sections keep
returning to — "a model's throughput at its P99 latency SLO is highly
sensitive to these parameters" (section 4.1) — posed at fleet scale:
for each routing policy, how many replicas does a model need to hold
its P99 SLO (with no shedding) at a given offered request rate?  The
sweep answers it by seeded simulation, searching replica counts upward
from the work-conserving lower bound ``ceil(rate * service_time)``.

A second probe, :func:`policy_comparison`, fixes the replica count and
pushes utilization to a target (default 85%) to expose the tail-latency
ordering between policies — the power-of-two-choices-beats-round-robin
shape the golden tests pin — and the cross-host traffic gap between
queue-blind JSQ and the locality-aware policy.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.locality import ShardLocalityMap
from repro.cluster.routing import POLICY_NAMES
from repro.cluster.service import ServiceModel
from repro.cluster.simulator import ClusterConfig, ClusterReport, run_cluster
from repro.fastsim.trials import trial_map
from repro.obs.tracing import TraceWriter
from repro.resilience.policies import AdmissionConfig
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.serving.workload import (
    DiurnalTrafficModel,
    Request,
    diurnal_poisson_stream,
    poisson_stream,
)


@dataclasses.dataclass(frozen=True)
class CapacityPoint:
    """One (policy, offered QPS) cell of the sweep."""

    policy: str
    offered_qps: float
    replicas: int
    p99_latency_s: float
    utilization: float
    shed_fraction: float
    cross_host_fraction: float
    feasible: bool  # an SLO-holding replica count was found


@dataclasses.dataclass(frozen=True)
class CapacitySweep:
    """Hosts-needed-vs-QPS, per routing policy."""

    p99_slo_s: float
    points: Tuple[CapacityPoint, ...]

    def point(self, policy: str, offered_qps: float) -> CapacityPoint:
        for candidate in self.points:
            if (candidate.policy == policy
                    and candidate.offered_qps == offered_qps):
                return candidate
        raise KeyError(f"no sweep point for ({policy}, {offered_qps})")

    def table(self) -> str:
        """The sweep as an aligned text table."""
        qps_values = sorted({p.offered_qps for p in self.points})
        policies = sorted({p.policy for p in self.points})
        header = f"{'offered QPS':>12} " + " ".join(
            f"{policy:>12}" for policy in policies
        )
        lines = [f"replicas needed at P99 <= {self.p99_slo_s * 1e3:.0f} ms:",
                 header]
        for qps in qps_values:
            cells = []
            for policy in policies:
                point = self.point(policy, qps)
                cells.append(
                    f"{point.replicas:>12}" if point.feasible else
                    f"{'>' + str(point.replicas):>12}"
                )
            lines.append(f"{qps:>12.0f} " + " ".join(cells))
        return "\n".join(lines)

    def scalars(self) -> Dict[str, float]:
        """Flat scalars for the benchmark-regression harness."""
        out: Dict[str, float] = {"p99_slo_s": self.p99_slo_s}
        for point in self.points:
            key = f"replicas_{point.policy}_at_{point.offered_qps:.0f}qps"
            out[key] = float(point.replicas)
        return out


# The stream one :func:`capacity_sweep` row shares across its cells, as
# ``((qps, duration_s, seed), requests)``, while the row runs; else None.
_row_stream: Optional[Tuple[Tuple[float, float, int], Sequence[Request]]] = None


def _stream(qps: float, duration_s: float, seed: int) -> Sequence[Request]:
    shared = _row_stream
    if shared is not None and shared[0] == (qps, duration_s, seed):
        return shared[1]
    return poisson_stream(
        rate_per_s=qps, duration_s=duration_s,
        samples_per_request=64, seed=seed,
    )


def _step_fractions(qps_step_fraction: float) -> Tuple[float, ...]:
    """The exact probe ladder ``max_qps_at_slo`` walks, highest first.

    Built by the same repeated subtraction the scan performs, so the
    float values (and therefore every derived QPS) are bit-identical
    between the scan and the surrogate-guided search over this ladder.
    """
    fractions = []
    fraction = 1.0
    while fraction > qps_step_fraction / 2:
        fractions.append(fraction)
        fraction -= qps_step_fraction
    return tuple(fractions)


def max_qps_at_slo(
    service: ServiceModel,
    replicas: int,
    p99_slo_s: float,
    duration_s: float,
    seed: int,
    qps_step_fraction: float = 0.05,
) -> Tuple[float, float]:
    """Largest offered QPS the replica set serves within the SLO with no
    shedding, by stepping down from the fluid capacity bound.

    Returns ``(max_qps, p99_at_max)``; ``(0, inf)`` if even the lightest
    probe misses.  It is the serving tier's Perf primitive: the power
    sweep and the codesign DSE both score candidates with it.

    Probes run ``fail_fast`` against the caller's SLO, which the config
    carries: the verdict is ``meets_slo(p99_slo_s)`` with zero loss
    allowed, so a probe that aborts would have failed in full, and the
    probe that holds the SLO runs to the end, byte-identical.
    """
    ceiling = replicas * service.capacity_per_replica()
    config = ClusterConfig(
        replicas=replicas, num_hosts=replicas, p99_slo_s=p99_slo_s, seed=seed
    )
    for fraction in _step_fractions(qps_step_fraction):
        qps = ceiling * fraction
        requests = poisson_stream(qps, duration_s, seed=seed)
        report = run_cluster(config, service, requests, fail_fast=True)
        if report.meets_slo(p99_slo_s):
            return qps, report.p99_latency_s
    return 0.0, float("inf")


def replicas_needed(
    policy: str,
    offered_qps: float,
    service: ServiceModel,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 40.0,
    max_replicas: int = 96,
    seed: int = 0,
    admission: Optional[AdmissionConfig] = None,
    surrogate=None,
    registry=None,
) -> CapacityPoint:
    """Smallest replica count holding the SLO with zero shedding.

    Starts at the work-conserving bound and walks upward — replica count
    versus tail latency is monotone enough at these scales that linear
    search from the bound is both cheap and exact.  Undersized counts
    probe with ``fail_fast``: the SLO here demands *zero* loss, so the
    first shed or timeout already proves infeasibility and the rest of
    the run is skipped.  A run that finishes without loss is identical
    with or without the flag, so the returned point (and its report
    statistics) match the exhaustive search byte for byte.

    A fitted capacity :class:`~repro.surrogate.model.SurrogateModel` as
    ``surrogate`` (see
    :func:`repro.surrogate.dataset.train_capacity_surrogate`) keeps the
    answer exact but replaces the scan's *starting point*: the surrogate
    predicts the replica count and
    :func:`repro.surrogate.verify.verified_min_feasible` certifies the
    boundary with exact seeded runs from both sides.  Under the same
    monotone-feasibility assumption the linear scan already relies on,
    the returned point is identical — only the number of cluster
    simulations spent changes (tallied under ``surrogate.capacity.*``
    on an attached registry).  ``surrogate=None`` (the default) is the
    linear scan.
    """
    if offered_qps <= 0:
        raise ValueError("offered QPS must be positive")
    requests = _stream(offered_qps, duration_s, seed)
    floor = max(1, math.ceil(offered_qps * service.mean_service_s))

    def _config(replicas: int) -> ClusterConfig:
        return ClusterConfig(
            replicas=replicas,
            num_hosts=math.ceil(max_replicas / 24) + 1,
            policy=policy,
            p99_slo_s=p99_slo_s,
            admission=admission or AdmissionConfig(),
            seed=seed,
        )

    def _point(replicas: int, report: ClusterReport) -> CapacityPoint:
        return CapacityPoint(
            policy=policy,
            offered_qps=offered_qps,
            replicas=replicas,
            p99_latency_s=report.p99_latency_s,
            utilization=report.utilization,
            shed_fraction=report.shed_fraction,
            cross_host_fraction=report.cross_host_fraction,
            feasible=True,
        )

    if surrogate is not None:
        from repro.obs.metrics import active
        from repro.surrogate.features import capacity_feature_row
        from repro.surrogate.verify import verified_min_feasible

        row = capacity_feature_row(
            policy, offered_qps, service.mean_service_s, p99_slo_s,
            service.jitter_sigma,
        )
        guess = int(round(float(surrogate.predict(row[None, :])[0])))
        probed: Dict[int, ClusterReport] = {}

        def _feasible(replicas: int) -> bool:
            report = run_cluster(
                _config(replicas), service, requests, locality=locality,
                fail_fast=True,
            )
            probed[replicas] = report
            return report.meets_slo(p99_slo_s)

        answer, exact_calls = verified_min_feasible(
            guess, floor, max_replicas, _feasible
        )
        obs = active(registry)
        if obs.enabled:
            obs.counter("surrogate.capacity.predictions").inc()
            obs.counter("surrogate.capacity.exact_runs").inc(exact_calls)
            obs.counter("surrogate.capacity.linear_scan_runs").inc(
                ((answer if answer is not None else max_replicas) - floor)
                + 1
            )
        if answer is not None:
            return _point(answer, probed[answer])
    else:
        for replicas in range(floor, max_replicas + 1):
            report = run_cluster(
                _config(replicas), service, requests, locality=locality,
                fail_fast=True,
            )
            if report.meets_slo(p99_slo_s):
                return _point(replicas, report)
    # No swept size held the SLO: re-run the ceiling exhaustively so the
    # reported statistics describe the full run, not a truncated probe.
    report = run_cluster(
        _config(max_replicas), service, requests, locality=locality
    )
    return CapacityPoint(
        policy=policy,
        offered_qps=offered_qps,
        replicas=max_replicas,
        p99_latency_s=report.p99_latency_s,
        utilization=report.utilization,
        shed_fraction=report.shed_fraction,
        cross_host_fraction=report.cross_host_fraction,
        feasible=False,
    )


def _sweep_row(args: Tuple) -> Tuple[CapacityPoint, ...]:
    """The cells of ``policies`` at one QPS, sharing one stream —
    module-level so it pickles for :func:`~repro.fastsim.trials.trial_map`
    workers.  The last slot is a fitted capacity surrogate (or None):
    the pure-numpy surrogate pickles, so guided rows fan out across
    processes like exact ones.

    Each cell is a :func:`replicas_needed` call, whose ``_stream``
    returns the row's stream while the row runs: the stream is keyed by
    every argument that determines it, and freed when the row returns.
    """
    global _row_stream
    qps, policies, service, p99_slo_s, locality, duration_s, seed, surrogate = args
    key = (qps, duration_s, seed)
    _row_stream = (key, _stream(*key))
    try:
        return tuple(
            replicas_needed(
                policy, qps, service,
                p99_slo_s=p99_slo_s, locality=locality,
                duration_s=duration_s, seed=seed,
                surrogate=surrogate,
            )
            for policy in policies
        )
    finally:
        _row_stream = None


def capacity_sweep(
    service: ServiceModel,
    qps_points: Sequence[float],
    policies: Sequence[str] = POLICY_NAMES,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 40.0,
    seed: int = 0,
    processes: Optional[int] = None,
    surrogate=None,
) -> CapacitySweep:
    """The full hosts-vs-QPS grid, one seeded run per cell step.

    Every cell is an independent seeded simulation, so the grid maps
    over :func:`~repro.fastsim.trials.trial_map`: ``processes=None``
    (the default) runs sequentially, one row of cells per distinct QPS
    so that each stream is built once, and is the reference behaviour;
    ``processes=N`` fans single cells across worker processes, each
    building its own stream — identical points either way, because
    each cell's randomness is a pure function of its arguments.  Points
    come back policy-major, in ``policies`` then ``qps_points`` order.

    A fitted capacity ``surrogate`` goes into every cell (see
    :func:`replicas_needed`): the grid's points are unchanged, only the
    simulations-per-cell count drops.  ``surrogate=None`` (the default)
    is exact.
    """
    if any(qps <= 0 for qps in qps_points):
        raise ValueError("offered QPS must be positive")
    distinct = tuple(dict.fromkeys(policies))
    groups = [distinct] if processes is None else [(p,) for p in distinct]
    rows = [
        (qps, group, service, p99_slo_s, locality, duration_s, seed, surrogate)
        for qps in dict.fromkeys(qps_points)
        for group in groups
    ]
    cells = {
        (point.policy, point.offered_qps): point
        for row in trial_map(_sweep_row, rows, processes=processes)
        for point in row
    }
    points = tuple(
        cells[policy, qps] for policy in policies for qps in qps_points
    )
    return CapacitySweep(p99_slo_s=p99_slo_s, points=points)


def policy_comparison(
    service: ServiceModel,
    replicas: int = 12,
    target_utilization: float = 0.85,
    policies: Sequence[str] = POLICY_NAMES,
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 60.0,
    seed: int = 0,
    admission: Optional[AdmissionConfig] = None,
) -> Dict[str, ClusterReport]:
    """Run every policy on the *same* traffic at high utilization.

    The offered rate is chosen to put the fixed-size replica set at
    ``target_utilization`` — the regime where queue-aware routing earns
    its keep — and the identical seeded request stream goes through each
    policy, so differences are routing and nothing else.  By default no
    shard map is attached (every request is local everywhere): this
    probe isolates pure queueing behaviour, which is what the
    po2-beats-round-robin tail ordering is about.  Pass ``locality`` (or
    use :func:`locality_comparison`) to study shard affinity instead.
    """
    if not (0 < target_utilization <= 1):
        raise ValueError("target utilization must be in (0, 1]")
    qps = target_utilization * replicas / service.mean_service_s
    requests = _stream(qps, duration_s, seed)
    reports: Dict[str, ClusterReport] = {}
    for policy in policies:
        config = ClusterConfig(
            replicas=replicas,
            num_hosts=math.ceil(replicas / 24) + 1,
            policy=policy,
            admission=admission or AdmissionConfig(),
            seed=seed,
        )
        reports[policy] = run_cluster(
            config, service, requests, locality=locality
        )
    return reports


def autoscaled_day(
    service: ServiceModel,
    mean_rate_per_s: float = 30.0,
    peak_to_mean: float = 2.2,
    day_length_s: float = 3600.0,
    policy: str = "po2",
    burst_rate_per_hour: float = 6.0,
    burst_factor: float = 2.5,
    burst_duration_s: float = 30.0,
    fault_rate_per_replica_hour: float = 0.0,
    predictive: bool = True,
    max_replicas: int = 48,
    seed: int = 0,
    tracer: Optional["TraceWriter"] = None,
) -> Tuple[ClusterReport, DiurnalTrafficModel]:
    """One (compressed) diurnal day under the autoscaler.

    Traffic follows the sinusoidal day with burst episodes; the
    autoscaler tracks it reactively and — when ``predictive`` — also
    provisions ahead of the forecast ramp.  Returns the run report and
    the traffic model (for plotting or for re-running with knobs
    changed).  ``fault_rate_per_replica_hour`` composes the resilience
    story in: faulted replicas drain mid-run and their requests retry
    through the front door.
    """
    model = DiurnalTrafficModel(
        mean_rate_per_s=mean_rate_per_s,
        peak_to_mean=peak_to_mean,
        day_length_s=day_length_s,
        phase_s=0.0,
    )
    requests = diurnal_poisson_stream(
        model,
        duration_s=day_length_s,
        burst_rate_per_hour=burst_rate_per_hour,
        burst_factor=burst_factor,
        burst_duration_s=burst_duration_s,
        seed=seed,
    )
    floor = max(1, math.ceil(
        model.rate_at(0.0) * service.mean_service_s / 0.7
    ))
    autoscaler = Autoscaler(
        AutoscalerConfig(
            min_replicas=floor,
            max_replicas=max_replicas,
            tick_interval_s=min(30.0, day_length_s / 60.0),
            cooldown_s=min(60.0, day_length_s / 30.0),
            predictive=predictive,
            predictive_lead_s=day_length_s / 12.0,
        ),
        service,
        traffic_model=model,
    )
    config = ClusterConfig(
        replicas=floor,
        num_hosts=math.ceil(max_replicas / 24) + 1,
        policy=policy,
        fault_rate_per_replica_hour=fault_rate_per_replica_hour,
        seed=seed,
    )
    report = run_cluster(
        config, service, requests, autoscaler=autoscaler, tracer=tracer
    )
    return report, model


def locality_comparison(
    service: ServiceModel,
    replicas: int = 12,
    num_shards: int = 4,
    target_utilization: float = 0.60,
    policies: Sequence[str] = ("jsq", "locality"),
    locality: Optional[ShardLocalityMap] = None,
    duration_s: float = 60.0,
    seed: int = 0,
) -> Dict[str, ClusterReport]:
    """Shard-affinity probe: queue-blind JSQ versus the locality policy.

    With an attached shard map, every request JSQ spreads to the least
    loaded replica pays the cross-host embedding-fetch penalty whenever
    that replica does not hold its shard; the locality policy keeps
    traffic on shard-holding replicas and spills only under pressure.
    Run below saturation so both policies shed nothing and the
    cross-host fraction is the differentiator.
    """
    shard_map = locality or ShardLocalityMap.uniform(num_shards)
    return policy_comparison(
        service,
        replicas=replicas,
        target_utilization=target_utilization,
        policies=policies,
        locality=shard_map,
        duration_s=duration_s,
        seed=seed,
    )
