"""Region-scale disaster drills: whole-region outages.

The fleet tier's fault vocabulary is one level up from the chaos tier's:
instead of "host 3 dies" it speaks "region eu-west is dark for six
seconds" (grid loss, fiber cut at the region boundary).  Each
:class:`RegionEvent` is translated into the cluster-level
:class:`~repro.cluster.simulator.Injection` schedule its region executes
— *reusing the correlated builders of* :mod:`repro.chaos.domains`, so a
region outage is literally every rack of the region failing together via
:func:`~repro.chaos.domains.rack_failure` — plus the ground-truth
unreachable intervals the health probes observe.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.domains import merge_schedules, rack_failure
from repro.cluster.simulator import Injection
from repro.fleet_global.regions import FleetConfig, RegionSpec


@dataclasses.dataclass(frozen=True)
class RegionEvent:
    """One region going dark in a drill."""

    region: str
    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("event time must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("event duration must be positive")

    @property
    def clear_s(self) -> float:
        return self.at_s + self.duration_s


@dataclasses.dataclass(frozen=True)
class DrillSchedule:
    """A drill compiled against one fleet: per-region cluster injections
    plus the ground truth the health probes see."""

    events: Tuple[RegionEvent, ...]
    injections: Dict[str, Tuple[Injection, ...]]
    # The region is gone — home traffic must fail over and spill must
    # avoid it.
    unreachable: Dict[str, Tuple[Tuple[float, float], ...]]

    def injections_for(self, region: str) -> Tuple[Injection, ...]:
        return self.injections.get(region, ())

    def unreachable_for(self, region: str) -> Tuple[Tuple[float, float], ...]:
        return self.unreachable.get(region, ())


def _region_outage(spec: RegionSpec, event: RegionEvent) -> List[Injection]:
    topology = spec.topology()
    return merge_schedules(*(
        rack_failure(topology, rack=rack, at_s=event.at_s,
                     duration_s=event.duration_s)
        for rack in range(topology.num_racks)
    ))


def build_drill(
    fleet: FleetConfig, events: Sequence[RegionEvent]
) -> DrillSchedule:
    """Compile region events into per-region schedules and probe truth."""
    by_region: Dict[str, List[Injection]] = {}
    unreachable: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        spec = fleet.regions[fleet.region_index(event.region)]
        by_region[event.region] = merge_schedules(
            by_region.get(event.region, []), _region_outage(spec, event)
        )
        unreachable.setdefault(event.region, []).append(
            (event.at_s, event.clear_s)
        )
    return DrillSchedule(
        events=tuple(events),
        injections={
            name: tuple(schedule) for name, schedule in by_region.items()
        },
        unreachable={
            name: tuple(sorted(spans))
            for name, spans in unreachable.items()
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
        fleet, [RegionEvent(region=name, at_s=start, duration_s=length)]
    )


__all__ = [
    "DrillSchedule",
    "RegionEvent",
    "build_drill",
    "region_outage_drill",
]
