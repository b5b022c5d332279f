"""Region-scale disaster drills: outages, brownouts, partitions, rollouts.

The fleet tier's fault vocabulary is one level up from the chaos tier's:
instead of "host 3 dies" it speaks "region eu-west is dark for six
seconds".  Each :class:`RegionEvent` is translated into the cluster-level
:class:`~repro.cluster.simulator.Injection` schedule its region executes
— *reusing the correlated builders of* :mod:`repro.chaos.domains`, so a
region outage is literally every rack of the region failing together and
a region brownout is a subset of its power domains tripping — plus the
ground-truth unreachable intervals the health probes observe:

* ``outage`` — the whole region goes dark (grid loss, fiber cut at the
  region boundary): every rack fails via
  :func:`~repro.chaos.domains.rack_failure`, and probes fail.
* ``brownout`` — partial power loss: ``magnitude`` is the fraction of
  the region's power domains whose breakers trip
  (:func:`~repro.chaos.domains.power_domain_trip` with a genuine budget
  breach).  The region stays probe-healthy — degraded, not dark — so
  failover does *not* engage and the region's own defenses (admission,
  brownout ladder) carry the event.
* ``partition`` — the region is severed from the rest of the planet but
  its own users still reach it (anycast keeps local traffic local).
  Probes fail, so the defended arm stops spilling *into* it; nothing is
  injected into the region's own cluster.

:func:`global_firmware_rollout` rides
:class:`repro.reliability.firmware.RolloutPlan` region by region: each
region restarts in concurrency-capped waves
(:func:`~repro.chaos.domains.firmware_rollout`), regions are serialized
``region_gap_s`` apart — the canary-region structure that contains a
regressed build to the first region when the rollback lands before the
second region starts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.domains import (
    firmware_rollout,
    merge_schedules,
    power_domain_trip,
    rack_failure,
)
from repro.cluster.simulator import Injection
from repro.fleet_global.regions import FleetConfig, RegionSpec
from repro.reliability.firmware import emergency_rollout

EVENT_KINDS = ("outage", "brownout", "partition")


@dataclasses.dataclass(frozen=True)
class RegionEvent:
    """One region-scale incident in a drill."""

    region: str
    kind: str
    at_s: float
    duration_s: float
    magnitude: float = 1.0  # brownout: fraction of power domains tripped

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown region event kind {self.kind!r}; "
                f"choose one of {EVENT_KINDS}"
            )
        if self.at_s < 0:
            raise ValueError("event time must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("event duration must be positive")
        if not (0 < self.magnitude <= 1):
            raise ValueError("magnitude must be in (0, 1]")

    @property
    def clear_s(self) -> float:
        return self.at_s + self.duration_s


@dataclasses.dataclass(frozen=True)
class DrillSchedule:
    """A drill compiled against one fleet: per-region cluster injections
    plus the ground truth the health probes see."""

    events: Tuple[RegionEvent, ...]
    injections: Dict[str, Tuple[Injection, ...]]
    # Outages: the region is gone — home traffic must fail over and
    # spill must avoid it.
    unreachable: Dict[str, Tuple[Tuple[float, float], ...]]
    # Partitions: the region is fine for its own anycast traffic but
    # invisible to the rest of the planet — only spill-in is blocked.
    isolated: Dict[str, Tuple[Tuple[float, float], ...]]

    def injections_for(self, region: str) -> Tuple[Injection, ...]:
        return self.injections.get(region, ())

    def unreachable_for(self, region: str) -> Tuple[Tuple[float, float], ...]:
        return self.unreachable.get(region, ())

    def isolated_for(self, region: str) -> Tuple[Tuple[float, float], ...]:
        return self.isolated.get(region, ())

    @property
    def first_fault_s(self) -> float:
        return min((e.at_s for e in self.events), default=0.0)

    @property
    def all_clear_s(self) -> float:
        return max((e.clear_s for e in self.events), default=0.0)


def _region_outage(spec: RegionSpec, event: RegionEvent) -> List[Injection]:
    topology = spec.topology()
    return merge_schedules(*(
        rack_failure(topology, rack=rack, at_s=event.at_s,
                     duration_s=event.duration_s)
        for rack in range(topology.num_racks)
    ))


def _region_brownout(spec: RegionSpec, event: RegionEvent) -> List[Injection]:
    topology = spec.topology()
    tripped = max(1, round(event.magnitude * topology.num_power_domains))
    # The trip is sourced from the section 5.3 power model: a demand
    # spike 20% over whatever budget the builder derives opens the
    # breaker; the builder refuses to trip within budget.
    schedules = []
    for domain in range(min(tripped, topology.num_power_domains)):
        schedule = power_domain_trip(
            topology, domain=domain, at_s=event.at_s,
            duration_s=event.duration_s,
            demand_w_per_server=1.2 * 10_000.0,
            budget_w_per_server=10_000.0,
        )
        if not schedule:
            raise AssertionError("a 20% overdraw must trip the breaker")
        schedules.append(schedule)
    return merge_schedules(*schedules)


def build_drill(
    fleet: FleetConfig, events: Sequence[RegionEvent]
) -> DrillSchedule:
    """Compile region events into per-region schedules and probe truth."""
    by_region: Dict[str, List[Injection]] = {}
    unreachable: Dict[str, List[Tuple[float, float]]] = {}
    isolated: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        spec = fleet.regions[fleet.region_index(event.region)]
        if event.kind == "outage":
            schedule = _region_outage(spec, event)
            unreachable.setdefault(event.region, []).append(
                (event.at_s, event.clear_s)
            )
        elif event.kind == "brownout":
            schedule = _region_brownout(spec, event)
        else:  # partition: spill-in blocked, healthy inside
            schedule = []
            isolated.setdefault(event.region, []).append(
                (event.at_s, event.clear_s)
            )
        if schedule:
            merged = by_region.setdefault(event.region, [])
            by_region[event.region] = merge_schedules(merged, schedule)
    return DrillSchedule(
        events=tuple(events),
        injections={
            name: tuple(schedule) for name, schedule in by_region.items()
        },
        unreachable={
            name: tuple(sorted(spans))
            for name, spans in unreachable.items()
        },
        isolated={
            name: tuple(sorted(spans))
            for name, spans in isolated.items()
        },
    )


def region_outage_drill(
    fleet: FleetConfig,
    region: Optional[str] = None,
    at_s: Optional[float] = None,
    duration_s: Optional[float] = None,
) -> DrillSchedule:
    """The headline drill: one full region dark across its traffic peak.

    Defaults target the *first* region (its diurnal peak sits mid-run
    with ``phase_h=0``: the worst moment to lose it) from 30% to 60% of
    the simulated day.
    """
    name = region or fleet.regions[0].name
    start = 0.3 * fleet.duration_s if at_s is None else at_s
    length = 0.3 * fleet.duration_s if duration_s is None else duration_s
    return build_drill(
        fleet, [RegionEvent(region=name, kind="outage",
                            at_s=start, duration_s=length)]
    )


def global_firmware_rollout(
    fleet: FleetConfig,
    at_s: float,
    region_gap_s: float,
    regression_slow: float = 1.0,
    rollback_at_s: Optional[float] = None,
) -> Dict[str, Tuple[Injection, ...]]:
    """A staged *global* rollout: region-by-region, waves within each.

    Region ``i`` starts its :func:`~repro.chaos.domains.firmware_rollout`
    wave schedule at ``at_s + i * region_gap_s``: 1 s restarts, waves 2 s
    apart, each honoring the emergency plan's restart-safety concurrency
    cap.  With ``regression_slow > 1`` the build is bad, and a
    ``rollback_at_s`` that lands before region 1 starts demonstrates the
    canary-region payoff: only the first region's hosts ever serve
    degraded, later regions install the fixed build from the start.
    """
    if region_gap_s < 0:
        raise ValueError("region gap must be non-negative")
    plan = emergency_rollout()
    schedules: Dict[str, Tuple[Injection, ...]] = {}
    for index, spec in enumerate(fleet.regions):
        schedules[spec.name] = tuple(firmware_rollout(
            spec.topology(),
            at_s=at_s + index * region_gap_s,
            restart_s=1.0,
            wave_gap_s=2.0,
            plan=plan,
            regression_slow=regression_slow,
            rollback_at_s=rollback_at_s,
        ))
    return schedules


__all__ = [
    "DrillSchedule",
    "EVENT_KINDS",
    "RegionEvent",
    "build_drill",
    "global_firmware_rollout",
    "region_outage_drill",
]
