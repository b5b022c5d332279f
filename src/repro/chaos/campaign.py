"""The chaos campaign runner: inject, measure, score, compare.

Runs each :class:`~repro.chaos.scenarios.ChaosScenario` through the
cluster simulator twice — defenses off (the tier exactly as the earlier
PRs built it) and defenses on (deadline propagation, retry budget,
backoff, circuit breakers, and the brownout ladder where the scenario
calls for it) — and scores both runs on the serving-fleet health
metrics that matter during an incident:

* **goodput** — requests served within the latency budget, as a
  fraction of offered load, tracked in fixed windows over the run;
* **time to recovery** — how long after the fault clears until windowed
  goodput is back above the recovery threshold;
* **SLO-breach duration** — total time the tier spent below threshold;
* **unavailability** — the fraction of offered requests that never got
  a timely answer (shed, timed out, or served too late);
* **quality cost** — for browned-out runs, the served-traffic-weighted
  NE damage from :func:`repro.chaos.brownout.measure_ladder_quality`.

The headline comparison is the ``retry_storm`` scenario: with defenses
off the storm is *metastable* — goodput stays collapsed long after the
outage that ignited it has cleared — and with defenses on the tier
recovers within seconds.  Both outcomes are pinned as ``sec5_chaos``
goldens in the benchmark suite.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.brownout import (
    PRIORITY_WEIGHTS,
    BrownoutController,
    default_ladder,
    measure_ladder_quality,
    quality_cost_of_run,
)
from repro.chaos.domains import FaultDomainTopology
from repro.chaos.scenarios import ChaosScenario, standard_catalog
from repro.cluster.service import ServiceModel, default_service_model
from repro.cluster.simulator import ClusterConfig, ClusterReport, run_cluster
from repro.obs.tracing import TraceWriter
from repro.resilience.policies import DefenseRuntime
from repro.serving.workload import poisson_stream, with_priorities


# Fixed campaign settings.  Two replicas per host and two hosts per rack
# give the domain topology; every run routes power-of-two-choices.
REPLICAS_PER_HOST = 2
HOSTS_PER_RACK = 2
WINDOW_S = 2.0
# A serve is "good" if its latency fits this budget (2x the serving
# SLO: generous enough that a healthy tier scores ~1.0, tight enough
# that storm-era stale serves score 0).
GOODPUT_LATENCY_S = 0.2
# A scoring window counts as recovered once its goodput ratio reaches
# this fraction.
RECOVERY_THRESHOLD = 0.95


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """The fleet and traffic every scenario runs against."""

    replicas: int = 12
    racks_per_power_domain: int = 2
    utilization: float = 0.75  # offered load / fleet capacity
    duration_s: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.utilization < 1):
            raise ValueError("utilization must be in (0, 1)")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    def topology(self) -> FaultDomainTopology:
        return FaultDomainTopology(
            replicas=self.replicas,
            replicas_per_host=REPLICAS_PER_HOST,
            hosts_per_rack=HOSTS_PER_RACK,
            racks_per_power_domain=self.racks_per_power_domain,
        )

    def offered_rate_per_s(self, service: ServiceModel) -> float:
        return self.utilization * self.replicas * service.capacity_per_replica()


def smoke_config() -> CampaignConfig:
    """A fast campaign for CI: smaller fleet, shorter run.

    One rack per power domain keeps the power-trip scenario a partial
    outage even at four hosts.
    """
    return CampaignConfig(
        replicas=8, duration_s=18.0, utilization=0.65,
        racks_per_power_domain=1,
    )


@dataclasses.dataclass(frozen=True)
class GoodputWindow:
    """One scoring window: offered arrivals versus timely serves."""

    start_s: float
    offered: int
    good: int

    @property
    def ratio(self) -> float:
        return self.good / self.offered if self.offered else 1.0


@dataclasses.dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario run, scored."""

    scenario: str
    defended: bool
    report: ClusterReport
    windows: Tuple[GoodputWindow, ...]
    fault_at_s: float
    fault_clear_s: float
    goodput: int  # serves within the latency budget, whole run
    post_clear_goodput_ratio: float
    time_to_recovery_s: float  # inf if the tier never recovers
    slo_breach_s: float
    unavailability: float
    quality_cost_ne: float = 0.0

    @property
    def recovered(self) -> bool:
        return math.isfinite(self.time_to_recovery_s)

    def scalars(self) -> Dict[str, float]:
        tag = "defended" if self.defended else "undefended"
        ttr = self.time_to_recovery_s
        return {
            f"{self.scenario}.{tag}.post_clear_goodput": (
                self.post_clear_goodput_ratio
            ),
            f"{self.scenario}.{tag}.time_to_recovery_s": (
                ttr if math.isfinite(ttr) else -1.0
            ),
            f"{self.scenario}.{tag}.slo_breach_s": self.slo_breach_s,
            f"{self.scenario}.{tag}.unavailability": self.unavailability,
        }

    def summary(self) -> str:
        tag = "defended" if self.defended else "undefended"
        ttr = (f"{self.time_to_recovery_s:.1f}s"
               if math.isfinite(self.time_to_recovery_s) else "never")
        return (
            f"{self.scenario:<12} {tag:<11} "
            f"goodput(post-clear)={self.post_clear_goodput_ratio:6.1%} "
            f"ttr={ttr:>6} breach={self.slo_breach_s:5.1f}s "
            f"unavail={self.unavailability:6.2%}"
            + (f" ne_cost={self.quality_cost_ne:+.4f}"
               if self.quality_cost_ne else "")
        )


def _score_windows(
    report: ClusterReport,
    arrivals_s: Sequence[float],
) -> Tuple[GoodputWindow, ...]:
    """Bucket arrivals and timely serves into fixed scoring windows.

    A serve is credited to the window of its *arrival*, so a window's
    ratio asks 'of the demand that landed here, how much got a timely
    answer?' — the question an availability SLO asks, immune to
    late-serve inflation.
    """
    horizon = max(arrivals_s) if arrivals_s else 0.0
    num_windows = max(1, int(math.ceil(horizon / WINDOW_S)))
    offered = [0] * num_windows
    good = [0] * num_windows
    for arrival in arrivals_s:
        offered[min(int(arrival / WINDOW_S), num_windows - 1)] += 1
    budget = GOODPUT_LATENCY_S
    for time_s, kind, index in report.event_log:
        if kind != "serve":
            continue
        arrival = arrivals_s[index]
        if time_s - arrival <= budget:
            good[min(int(arrival / WINDOW_S), num_windows - 1)] += 1
    return tuple(
        GoodputWindow(start_s=k * WINDOW_S,
                      offered=offered[k], good=good[k])
        for k in range(num_windows)
    )


def _score(
    scenario: ChaosScenario,
    defended: bool,
    report: ClusterReport,
    arrivals_s: Sequence[float],
    config: CampaignConfig,
    quality_cost_ne: float,
) -> ScenarioOutcome:
    windows = _score_windows(report, arrivals_s)
    scored = [w for w in windows if w.offered > 0]
    post_clear = [w for w in scored if w.start_s >= scenario.fault_clear_s]
    post_ratio = (
        sum(w.good for w in post_clear) / sum(w.offered for w in post_clear)
        if post_clear and sum(w.offered for w in post_clear) else 1.0
    )
    ttr = math.inf
    for window in post_clear:
        if window.ratio >= RECOVERY_THRESHOLD:
            ttr = max(0.0, window.start_s - scenario.fault_clear_s)
            break
    breach = sum(
        WINDOW_S for w in scored
        if w.start_s >= scenario.fault_at_s
        and w.ratio < RECOVERY_THRESHOLD
    )
    goodput = sum(w.good for w in windows)
    unavailability = (
        1.0 - goodput / report.offered if report.offered else 0.0
    )
    return ScenarioOutcome(
        scenario=scenario.name,
        defended=defended,
        report=report,
        windows=windows,
        fault_at_s=scenario.fault_at_s,
        fault_clear_s=scenario.fault_clear_s,
        goodput=goodput,
        post_clear_goodput_ratio=post_ratio,
        time_to_recovery_s=ttr,
        slo_breach_s=breach,
        unavailability=unavailability,
        quality_cost_ne=quality_cost_ne,
    )


def run_scenario(
    scenario: ChaosScenario,
    config: Optional[CampaignConfig] = None,
    defended: bool = False,
    tracer: Optional[TraceWriter] = None,
    ne_deltas: Optional[Dict[str, float]] = None,
) -> ScenarioOutcome:
    """Run one scenario once and score it.

    ``defended=False`` runs the tier exactly as the pre-chaos PRs built
    it (every hook off); ``defended=True`` arms the campaign's defense
    suite, and the brownout ladder too when the scenario asks for it.
    Passing ``ne_deltas`` (from
    :func:`~repro.chaos.brownout.measure_ladder_quality`) prices any
    browned-out serving in NE damage.
    """
    config = config or CampaignConfig()
    service = default_service_model()
    topology = config.topology()
    if topology.replicas != config.replicas:
        raise ValueError("topology and campaign replica counts must agree")
    rate = config.offered_rate_per_s(service)
    requests = poisson_stream(
        rate_per_s=rate, duration_s=config.duration_s,
        samples_per_request=64, seed=config.seed,
    )
    brownout = None
    if defended and scenario.use_brownout:
        requests = with_priorities(
            requests, PRIORITY_WEIGHTS, seed=config.seed + 1
        )
        brownout = BrownoutController(default_ladder())
    cluster_config = ClusterConfig(
        replicas=config.replicas,
        num_hosts=topology.num_hosts,
        policy="po2",
        seed=config.seed,
    )
    report = run_cluster(
        cluster_config, service, requests,
        tracer=tracer,
        defense=DefenseRuntime() if defended else None,
        client=scenario.client,
        injections=scenario.injections(topology),
        brownout=brownout,
    )
    quality_cost = 0.0
    if brownout is not None and ne_deltas:
        quality_cost = quality_cost_of_run(report.brownout_served, ne_deltas)
    outcome = _score(
        scenario, defended, report,
        [r.arrival_s for r in requests], config, quality_cost,
    )
    return outcome


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """Every scenario, defended and undefended, scored side by side."""

    config: CampaignConfig
    outcomes: Tuple[ScenarioOutcome, ...]

    def outcome(self, scenario: str, defended: bool) -> ScenarioOutcome:
        for candidate in self.outcomes:
            if candidate.scenario == scenario and candidate.defended == defended:
                return candidate
        raise KeyError(f"no outcome for {scenario!r} defended={defended}")

    @property
    def headline(self) -> Tuple[ScenarioOutcome, ScenarioOutcome]:
        """The retry storm, (undefended, defended)."""
        return (self.outcome("retry_storm", False),
                self.outcome("retry_storm", True))

    def summary(self) -> str:
        lines = [
            "chaos campaign: "
            f"{len({o.scenario for o in self.outcomes})} scenarios, "
            f"replicas={self.config.replicas} "
            f"util={self.config.utilization:.0%} "
            f"duration={self.config.duration_s:.0f}s",
        ]
        lines.extend(o.summary() for o in self.outcomes)
        if not any(o.scenario == "retry_storm" for o in self.outcomes):
            return "\n".join(lines)
        storm_off, storm_on = self.headline
        verdict = (
            "metastable undefended"
            if not storm_off.recovered else "recovered undefended (!)"
        )
        lines.append(
            f"headline: retry storm {verdict}; defended recovers in "
            f"{storm_on.time_to_recovery_s:.1f}s"
            if storm_on.recovered else
            f"headline: retry storm {verdict}; defended did NOT recover (!)"
        )
        return "\n".join(lines)


def run_campaign(
    config: Optional[CampaignConfig] = None,
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    tracer: Optional[TraceWriter] = None,
    price_quality: bool = False,
) -> CampaignResult:
    """Run the catalog, defenses off then on, and collect the scores.

    ``price_quality=True`` additionally measures the brownout ladder's
    NE damage through the A/B harness and prices browned-out serving
    with it (skipped by default — it is the campaign's one non-trivial
    extra cost and only affects the ``quality_cost_ne`` column).
    """
    config = config or CampaignConfig()
    scenarios = tuple(scenarios) if scenarios is not None else standard_catalog()
    ne_deltas = measure_ladder_quality() if price_quality else None
    outcomes: List[ScenarioOutcome] = []
    for scenario in scenarios:
        for defended in (False, True):
            outcomes.append(run_scenario(
                scenario, config, defended=defended,
                tracer=tracer if defended else None,
                ne_deltas=ne_deltas,
            ))
    return CampaignResult(config=config, outcomes=tuple(outcomes))


__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "GoodputWindow",
    "ScenarioOutcome",
    "run_campaign",
    "run_scenario",
    "smoke_config",
]
