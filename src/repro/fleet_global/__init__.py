"""The global fleet tier: multi-region serving over the cluster tier.

Section 5's productionization story, one level up from :mod:`repro
.chaos`: regions with timezone-phased diurnal traffic
(:mod:`~repro.fleet_global.regions`), an anycast front door with
probe-driven failover and capacity spill
(:mod:`~repro.fleet_global.failover`), region-scale outage drills
(:mod:`~repro.fleet_global.drills`),
the composed deterministic simulator enforcing global request
conservation (:mod:`~repro.fleet_global.simulator`), and the
region-outage capacity study answering the ROADMAP's hosts-per-region
question (:mod:`~repro.fleet_global.capacity`).

(Named ``fleet_global`` because :mod:`repro.fleet` is the intra-cluster
allocator from the earlier PRs.)
"""

from repro.fleet_global.capacity import run_capacity_study, smoke_study
from repro.fleet_global.drills import (
    RegionEvent,
    build_drill,
    region_outage_drill,
)
from repro.fleet_global.failover import (
    Assignment,
    HealthMonitor,
    SpillRouter,
)
from repro.fleet_global.regions import (
    FleetConfig,
    RegionSpec,
    rate_for_users,
    standard_fleet,
    standard_regions,
)
from repro.fleet_global.simulator import run_fleet

__all__ = [
    "Assignment",
    "FleetConfig",
    "HealthMonitor",
    "RegionEvent",
    "RegionSpec",
    "SpillRouter",
    "build_drill",
    "rate_for_users",
    "region_outage_drill",
    "run_capacity_study",
    "run_fleet",
    "smoke_study",
    "standard_fleet",
    "standard_regions",
]
