"""Region specs and the global fleet's shape.

A region is one deployment of the cluster tier — a replica set with its
own fault-domain topology (:class:`~repro.chaos.domains
.FaultDomainTopology`), its own diurnal traffic phase (users live in
timezones: a region 8 hours east peaks 8/24 of a day earlier) and an
equal share of the global user base.

:class:`FleetConfig` is the global composition: the region list, the
worldwide traffic level (expressed in *millions of users* through
:func:`rate_for_users`, so the capacity study answers the ROADMAP
question in its own units), the simulated day, and the shared SLO.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.chaos.domains import FaultDomainTopology
from repro.serving.workload import DiurnalTrafficModel

# The traffic-scale knob tying "N million users" to simulated offered
# load: at the daily peak, one million active users of the ranking
# service offer this many requests per second *in simulation units*
# (the whole reproduction runs a compressed fleet — O(10) replicas per
# region standing in for O(10k) hosts — so the constant carries the same
# compression; the capacity study's *shape* is what reproduces).
PEAK_RPS_PER_MILLION_USERS = 100.0
# Every region's diurnal peak-to-mean ratio.
PEAK_TO_MEAN = 2.2


def rate_for_users(users_millions: float) -> float:
    """Global *mean* request rate implied by ``users_millions`` users.

    The user count is quoted at the daily peak (how capacity questions
    are asked); the diurnal model wants the mean, so divide the peak
    rate by the curve's peak-to-mean ratio.
    """
    if users_millions <= 0:
        raise ValueError("user count must be positive")
    return users_millions * PEAK_RPS_PER_MILLION_USERS / PEAK_TO_MEAN


# One accelerator (replica) per host slot, two to a host.
REPLICAS_PER_HOST = 2


@dataclasses.dataclass(frozen=True)
class RegionSpec:
    """One region of the global fleet."""

    name: str
    timezone_offset_h: float = 0.0  # hours east of the reference region
    replicas: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region needs a name")
        if self.replicas <= 0:
            raise ValueError("region needs at least one replica")

    def topology(self) -> FaultDomainTopology:
        """Two replicas per host, two hosts per rack and one rack per
        power domain."""
        return FaultDomainTopology(
            replicas=self.replicas,
            replicas_per_host=REPLICAS_PER_HOST,
            hosts_per_rack=2,
            racks_per_power_domain=1,
        )

    @property
    def num_hosts(self) -> int:
        return self.topology().num_hosts


def standard_regions(replicas_per_region: int = 8) -> Tuple[RegionSpec, ...]:
    """A three-region planet: peaks spread 8 hours apart, equal shares."""
    return tuple(
        RegionSpec(
            name=name,
            timezone_offset_h=8.0 * index,
            replicas=replicas_per_region,
        )
        for index, name in enumerate(("us-east", "eu-west", "ap-south"))
    )


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """The global fleet: regions, worldwide traffic and timing (routed
    power-of-two, judged at the serving P99 SLO, ``DEFAULT_P99_SLO_S``)."""

    regions: Tuple[RegionSpec, ...]
    users_millions: float = 4.0
    duration_s: float = 24.0  # one compressed diurnal day
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("a fleet needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValueError("region names must be unique")
        if self.users_millions <= 0:
            raise ValueError("user count must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    @property
    def global_mean_rate_s(self) -> float:
        return rate_for_users(self.users_millions)

    def region_index(self, name: str) -> int:
        for index, region in enumerate(self.regions):
            if region.name == name:
                return index
        raise KeyError(f"no region named {name!r}")

    def traffic_model(self, region: RegionSpec) -> DiurnalTrafficModel:
        """The region's diurnal curve: an equal share of global traffic,
        its timezone phase, one full day compressed into the run."""
        return DiurnalTrafficModel(
            mean_rate_per_s=self.global_mean_rate_s / len(self.regions),
            peak_to_mean=PEAK_TO_MEAN,
            day_length_s=self.duration_s,
            phase_h=region.timezone_offset_h,
        )

    @property
    def total_replicas(self) -> int:
        return sum(region.replicas for region in self.regions)

    @property
    def total_hosts(self) -> int:
        return sum(region.num_hosts for region in self.regions)


def standard_fleet(
    replicas_per_region: int = 8,
    users_millions: float = 4.0,
    duration_s: float = 24.0,
    seed: int = 0,
) -> FleetConfig:
    """The three-region fleet the CLI, example, and benchmark share."""
    return FleetConfig(
        regions=standard_regions(replicas_per_region),
        users_millions=users_millions,
        duration_s=duration_s,
        seed=seed,
    )


__all__ = [
    "FleetConfig",
    "PEAK_RPS_PER_MILLION_USERS",
    "PEAK_TO_MEAN",
    "RegionSpec",
    "rate_for_users",
    "standard_fleet",
    "standard_regions",
]
