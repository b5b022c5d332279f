"""Region specs and the global fleet's shape.

A region is one deployment of the cluster tier — a replica set with its
own fault-domain topology (:class:`~repro.chaos.domains
.FaultDomainTopology`), its own diurnal traffic phase (users live in
timezones: a region 8 hours east peaks 8/24 of a day earlier), its own
share of the global user base, and optionally its own power budget,
which caps the region's clock through
:class:`~repro.power.cluster_link.ThrottleSchedule` exactly as the
section 5.3 rack budgets cap a server.

:class:`FleetConfig` is the global composition: the region list, the
worldwide traffic level (expressed in *millions of users* through
:func:`rate_for_users`, so the capacity study answers the ROADMAP
question in its own units), the simulated day, and the shared SLO.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.arch.mtia import mtia2i_spec
from repro.chaos.domains import FaultDomainTopology
from repro.cluster.routing import POLICY_NAMES
from repro.power.cluster_link import ThrottleSchedule, frequency_for_chip_budget
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.serving.workload import DiurnalTrafficModel

# The traffic-scale knob tying "N million users" to simulated offered
# load: at the daily peak, one million active users of the ranking
# service offer this many requests per second *in simulation units*
# (the whole reproduction runs a compressed fleet — O(10) replicas per
# region standing in for O(10k) hosts — so the constant carries the same
# compression; the capacity study's *shape* is what reproduces).
PEAK_RPS_PER_MILLION_USERS = 100.0


def rate_for_users(
    users_millions: float, peak_to_mean: float = 2.2
) -> float:
    """Global *mean* request rate implied by ``users_millions`` users.

    The user count is quoted at the daily peak (how capacity questions
    are asked); the diurnal model wants the mean, so divide the peak
    rate by the curve's peak-to-mean ratio.
    """
    if users_millions <= 0:
        raise ValueError("user count must be positive")
    return users_millions * PEAK_RPS_PER_MILLION_USERS / peak_to_mean


@dataclasses.dataclass(frozen=True)
class RegionSpec:
    """One region of the global fleet."""

    name: str
    timezone_offset_h: float = 0.0  # hours east of the reference region
    replicas: int = 8
    replicas_per_host: int = 2
    hosts_per_rack: int = 2
    # One rack per power domain: a region is several independent power
    # feeds, so a partial brownout (some breakers trip) is expressible.
    racks_per_power_domain: int = 1
    traffic_share: float = 1.0  # relative share of the global user base
    # Per-server power budget; None = unconstrained.  A budget that only
    # admits a lower ladder frequency stretches the region's service
    # times through a ThrottleSchedule, never silently.
    power_budget_w_per_server: Optional[float] = None
    platform_power_w: float = 800.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region needs a name")
        if self.replicas <= 0:
            raise ValueError("region needs at least one replica")
        if self.traffic_share <= 0:
            raise ValueError("traffic share must be positive")
        if (self.power_budget_w_per_server is not None
                and self.power_budget_w_per_server <= 0):
            raise ValueError("power budget must be positive")

    def topology(self) -> FaultDomainTopology:
        return FaultDomainTopology(
            replicas=self.replicas,
            replicas_per_host=self.replicas_per_host,
            hosts_per_rack=self.hosts_per_rack,
            racks_per_power_domain=self.racks_per_power_domain,
        )

    @property
    def num_hosts(self) -> int:
        return self.topology().num_hosts

    def throttle(self) -> Optional[ThrottleSchedule]:
        """The region's power-budget throttle, if it is budget-capped.

        The budget funds the platform first; the remainder splits across
        the region's accelerators, and the highest ladder frequency that
        fits sets a constant service-time multiplier
        (``f_nominal / f_budget``).  ``None`` when unconstrained, so an
        unbudgeted region's event log stays byte-identical to a plain
        cluster run.
        """
        if self.power_budget_w_per_server is None:
            return None
        chip = mtia2i_spec()
        chips_per_server = max(1, self.replicas_per_host)
        per_chip = max(
            0.0,
            (self.power_budget_w_per_server - self.platform_power_w)
            / chips_per_server,
        )
        frequency = frequency_for_chip_budget(chip, per_chip)
        return ThrottleSchedule.constant(chip.frequency_hz / frequency)


def standard_regions(
    replicas_per_region: int = 8,
    names: Tuple[str, ...] = ("us-east", "eu-west", "ap-south"),
) -> Tuple[RegionSpec, ...]:
    """A three-region planet: peaks spread 8 hours apart, equal shares."""
    return tuple(
        RegionSpec(
            name=name,
            timezone_offset_h=8.0 * index,
            replicas=replicas_per_region,
        )
        for index, name in enumerate(names)
    )


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """The global fleet: regions, worldwide traffic, timing, SLO."""

    regions: Tuple[RegionSpec, ...]
    users_millions: float = 4.0
    peak_to_mean: float = 2.2
    duration_s: float = 24.0  # one compressed diurnal day
    policy: str = "po2"
    p99_slo_s: float = DEFAULT_P99_SLO_S
    samples_per_request: int = 64
    seed: int = 0
    # Priority mix for the defended arm's brownout ladder
    # (best-effort, normal, critical) — matches the chaos campaign.
    priority_weights: Tuple[float, ...] = (0.3, 0.5, 0.2)

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
        if self.p99_slo_s <= 0:
            raise ValueError("SLO must be positive")
        if self.peak_to_mean < 1:
            raise ValueError("peak-to-mean must be at least 1")
        if self.samples_per_request <= 0:
            raise ValueError("requests must carry at least one sample")
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"choose one of {POLICY_NAMES}"
            )
        weights = tuple(self.priority_weights)
        if not weights or any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError(
                "priority weights must be non-negative, non-empty and "
                "sum to a positive total"
            )
        # A tuple whatever the caller passed, so the config (and the
        # stream cache keyed on the weights) stays hashable.
        object.__setattr__(self, "priority_weights", weights)

    @property
    def global_mean_rate_s(self) -> float:
        return rate_for_users(self.users_millions, self.peak_to_mean)

    def region_index(self, name: str) -> int:
        for index, region in enumerate(self.regions):
            if region.name == name:
                return index
        raise KeyError(f"no region named {name!r}")

    def traffic_model(self, region: RegionSpec) -> DiurnalTrafficModel:
        """The region's diurnal curve: its share of global traffic, its
        timezone phase, one full day compressed into the run."""
        total_share = sum(r.traffic_share for r in self.regions)
        return DiurnalTrafficModel(
            mean_rate_per_s=(
                self.global_mean_rate_s * region.traffic_share / total_share
            ),
            peak_to_mean=self.peak_to_mean,
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
    "RegionSpec",
    "rate_for_users",
    "standard_fleet",
    "standard_regions",
]
