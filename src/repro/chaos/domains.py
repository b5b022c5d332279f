"""Fault-domain topology: replicas share hosts, racks, power, and ToRs.

The paper's section 5 incidents are *correlated*: a power-domain breaker
does not take out one replica, it takes out every server behind it; a
ToR switch failure partitions a whole rack; a staged firmware rollout
restarts the fleet in waves and a regressed build degrades every host it
reaches.  This module gives the chaos tier the grouping structure those
events need — a static mapping from replica ids to hosts, racks, power
domains, and ToR switches — plus builders that translate each incident
class into the :class:`~repro.cluster.simulator.Injection` schedules the
cluster simulator executes.

Each builder sources its physics from the tier that models it:

* :func:`power_domain_trip` trips only when the domain's projected draw
  actually breaches the provisioned budget from
  :func:`repro.reliability.power.stress_test_budget` — re-deriving the
  budget down (section 5.3) is exactly what makes this failure mode
  possible, so the coupling is the point;
* :func:`thermal_emergency` derives its throttle severity from the
  :mod:`repro.power.thermal` RC network: the slow-factor is the
  frequency cut needed to pull the steady-state junction temperature
  back to the throttle target;
* :func:`firmware_rollout` rides
  :class:`repro.reliability.firmware.RolloutPlan` restart waves, with an
  optional regression that degrades every host the bad build reaches
  until the rollback.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.arch.server import mtia2i_server
from repro.cluster.simulator import Injection, injection_sort_key
from repro.power.thermal import THROTTLE_TARGET_C, mtia2i_thermal
from repro.reliability.firmware import RolloutPlan, typical_rollout
from repro.reliability.power import stress_test_budget


@dataclasses.dataclass(frozen=True)
class FaultDomainTopology:
    """Static placement of replicas into nested failure domains.

    Replicas pack onto hosts, hosts into racks (one ToR switch per
    rack), racks into power domains — the standard datacenter hierarchy.
    Replica ids are assigned contiguously, matching the cluster
    simulator's initial spawn order, so topology groups can be handed
    straight to injection builders as target lists.
    """

    replicas: int
    replicas_per_host: int = 2
    hosts_per_rack: int = 4
    racks_per_power_domain: int = 2

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError("need at least one replica")
        if self.replicas_per_host <= 0:
            raise ValueError("need at least one replica per host")
        if self.hosts_per_rack <= 0:
            raise ValueError("need at least one host per rack")
        if self.racks_per_power_domain <= 0:
            raise ValueError("need at least one rack per power domain")

    # -- sizes ---------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        return -(-self.replicas // self.replicas_per_host)

    @property
    def num_racks(self) -> int:
        return -(-self.num_hosts // self.hosts_per_rack)

    @property
    def num_power_domains(self) -> int:
        return -(-self.num_racks // self.racks_per_power_domain)

    # -- membership ----------------------------------------------------

    def host_of(self, replica_id: int) -> int:
        self._check(replica_id)
        return replica_id // self.replicas_per_host

    def rack_of(self, replica_id: int) -> int:
        return self.host_of(replica_id) // self.hosts_per_rack

    def power_domain_of(self, replica_id: int) -> int:
        return self.rack_of(replica_id) // self.racks_per_power_domain

    def tor_of(self, replica_id: int) -> int:
        """One ToR switch per rack: losing it partitions the rack."""
        return self.rack_of(replica_id)

    def replicas_on_host(self, host: int) -> Tuple[int, ...]:
        if not (0 <= host < self.num_hosts):
            raise ValueError(f"host {host} outside topology")
        return tuple(
            r for r in range(
                host * self.replicas_per_host,
                min((host + 1) * self.replicas_per_host, self.replicas),
            )
        )

    def replicas_in_rack(self, rack: int) -> Tuple[int, ...]:
        if not (0 <= rack < self.num_racks):
            raise ValueError(f"rack {rack} outside topology")
        return tuple(
            r for r in range(self.replicas) if self.rack_of(r) == rack
        )

    def replicas_in_power_domain(self, domain: int) -> Tuple[int, ...]:
        if not (0 <= domain < self.num_power_domains):
            raise ValueError(f"power domain {domain} outside topology")
        return tuple(
            r for r in range(self.replicas)
            if self.power_domain_of(r) == domain
        )

    def _check(self, replica_id: int) -> None:
        if not (0 <= replica_id < self.replicas):
            raise ValueError(f"replica {replica_id} outside topology")


# ---------------------------------------------------------------------------
# Correlated injection builders
# ---------------------------------------------------------------------------


def host_failure(
    topology: FaultDomainTopology,
    host: int,
    at_s: float,
    duration_s: float,
) -> List[Injection]:
    """One host dies (kernel panic, PSU, operator error) and reboots."""
    if duration_s <= 0:
        raise ValueError("outage duration must be positive")
    targets = topology.replicas_on_host(host)
    return [
        Injection(time_s=at_s, kind="down", targets=targets),
        Injection(time_s=at_s + duration_s, kind="up", targets=targets),
    ]


def rack_failure(
    topology: FaultDomainTopology,
    rack: int,
    at_s: float,
    duration_s: float,
) -> List[Injection]:
    """A whole rack loses power or its uplink: every host goes together."""
    if duration_s <= 0:
        raise ValueError("outage duration must be positive")
    targets = topology.replicas_in_rack(rack)
    return [
        Injection(time_s=at_s, kind="down", targets=targets),
        Injection(time_s=at_s + duration_s, kind="up", targets=targets),
    ]


def network_partition(
    topology: FaultDomainTopology,
    rack: int,
    at_s: float,
    duration_s: float,
) -> List[Injection]:
    """The rack's ToR switch fails: hosts are alive but unreachable.

    Unlike an outage, in-flight work on the far side keeps executing —
    its responses are simply undeliverable until the heal, which is what
    makes partitions nastier than crashes for request accounting.
    """
    if duration_s <= 0:
        raise ValueError("partition duration must be positive")
    targets = topology.replicas_in_rack(rack)
    return [
        Injection(time_s=at_s, kind="partition", targets=targets),
        Injection(time_s=at_s + duration_s, kind="heal", targets=targets),
    ]


def power_domain_trip(
    topology: FaultDomainTopology,
    domain: int,
    at_s: float,
    duration_s: float,
    demand_w_per_server: float,
    budget_w_per_server: Optional[float] = None,
) -> List[Injection]:
    """The domain breaker trips — but only on a genuine budget breach.

    Section 5.3's re-derived rack budgets run closer to the wire: the
    provisioned per-server budget (by default the MTIA 2i server's
    pre-production :func:`~repro.reliability.power.stress_test_budget`,
    which the revision then undercuts) caps the domain, and a synchronized demand
    spike above it opens the breaker for everything behind it.  If the
    offered ``demand_w_per_server`` stays within budget, no injection is
    produced — the trip is sourced from the power model, not asserted.
    """
    if duration_s <= 0:
        raise ValueError("outage duration must be positive")
    if demand_w_per_server <= 0:
        raise ValueError("demand must be positive")
    if budget_w_per_server is None:
        budget_w_per_server = stress_test_budget(mtia2i_server())
    if demand_w_per_server <= budget_w_per_server:
        return []  # within budget: the breaker holds
    targets = topology.replicas_in_power_domain(domain)
    return [
        Injection(time_s=at_s, kind="down", targets=targets),
        Injection(time_s=at_s + duration_s, kind="up", targets=targets),
    ]


def thermal_slow_factor(power_w: float) -> float:
    """Service-time inflation implied by a thermal emergency.

    With the MTIA 2i RC chain settled at ``power_w`` the junction sits at
    ``ambient + P * R_total``; if that exceeds the throttle target the
    governor must cut power (≈ frequency) by the ratio that brings the
    junction back to the throttle target, and service times stretch by the inverse.
    Returns 1.0 when the package never crosses the target.
    """
    if power_w <= 0:
        raise ValueError("power must be positive")
    network = mtia2i_thermal()
    junction_c = network.steady_junction_c(power_w)
    headroom_c = THROTTLE_TARGET_C - network.ambient_c
    if junction_c <= THROTTLE_TARGET_C or headroom_c <= 0:
        return 1.0
    # Junction rise above ambient is proportional to power; the required
    # power cut is rise/headroom, and throughput scales with power.
    rise_c = junction_c - network.ambient_c
    return rise_c / headroom_c


def thermal_emergency(
    topology: FaultDomainTopology,
    rack: int,
    at_s: float,
    duration_s: float,
    power_w: float = 120.0,
) -> List[Injection]:
    """A cooling failure in one rack: shared airflow heats every package.

    The slow-down magnitude comes from the package thermal model — see
    :func:`thermal_slow_factor` — so a power level the heatsink can
    actually reject produces no injection at all.
    """
    if duration_s <= 0:
        raise ValueError("emergency duration must be positive")
    factor = thermal_slow_factor(power_w)
    if factor <= 1.0:
        return []  # the package holds temperature: nothing to inject
    targets = topology.replicas_in_rack(rack)
    return [
        Injection(time_s=at_s, kind="slow", targets=targets,
                  magnitude=factor),
        Injection(time_s=at_s + duration_s, kind="slow_end", targets=targets),
    ]


def firmware_rollout(
    topology: FaultDomainTopology,
    at_s: float,
    restart_s: float = 2.0,
    wave_gap_s: float = 4.0,
    plan: Optional[RolloutPlan] = None,
    regression_slow: float = 1.0,
    rollback_at_s: Optional[float] = None,
) -> List[Injection]:
    """A staged firmware rollout restarting the fleet in waves.

    Wave sizes honor the plan's restart-safety concurrency cap
    (:meth:`~repro.reliability.firmware.RolloutPlan.restart_waves` over
    the host count); each wave's hosts go down for ``restart_s`` and
    come back ``wave_gap_s`` before the next wave starts.  Timescales
    are compressed from the plan's hours to simulation seconds — the
    *structure* (bounded concurrent restarts, serialized waves) is what
    the scenario exercises.

    With ``regression_slow > 1`` the build is bad: every host that took
    it serves that much slower after restart, until ``rollback_at_s``
    (the emergency-rollback moment) restores the old build — waves
    restarting after the rollback install the fixed build and carry no
    regression.
    """
    if restart_s <= 0 or wave_gap_s <= 0:
        raise ValueError("restart and wave gap must be positive")
    if regression_slow < 1.0:
        raise ValueError("a regression must not speed hosts up")
    plan = plan or typical_rollout()
    host_waves = plan.restart_waves(topology.num_hosts)
    injections: List[Injection] = []
    regressed: List[int] = []
    next_host = 0
    t = at_s
    for wave in host_waves:
        hosts = range(next_host, next_host + wave)
        next_host += wave
        targets: Tuple[int, ...] = tuple(
            r for host in hosts for r in topology.replicas_on_host(host)
        )
        injections.append(Injection(time_s=t, kind="down", targets=targets))
        injections.append(
            Injection(time_s=t + restart_s, kind="up", targets=targets)
        )
        bad_build = rollback_at_s is None or t < rollback_at_s
        if regression_slow > 1.0 and bad_build:
            injections.append(
                Injection(time_s=t + restart_s, kind="slow",
                          targets=targets, magnitude=regression_slow)
            )
            regressed.extend(targets)
        t += wave_gap_s
    if regressed and rollback_at_s is not None:
        injections.append(
            Injection(time_s=rollback_at_s, kind="slow_end",
                      targets=tuple(regressed))
        )
    return injections


def merge_schedules(*schedules: Sequence[Injection]) -> List[Injection]:
    """Combine injection schedules into one deterministically ordered list.

    Same-timestamp events — routine once multi-region schedules are
    merged — are tie-broken by
    :func:`~repro.cluster.simulator.injection_sort_key`: kind declaration
    order (``down`` before its paired ``up``, ``slow`` before
    ``slow_end``, ``partition`` before ``heal`` — a zero-duration event
    nets to recovered), then target tuple, then magnitude.  The key
    covers every ``Injection`` field, so it is a total order and the
    merge is independent of the order its arguments are given in:
    ``merge_schedules(a, b) == merge_schedules(b, a)`` always — the
    property that keeps multi-region schedules seed-stable.
    """
    merged = [injection for schedule in schedules for injection in schedule]
    merged.sort(key=injection_sort_key)
    return merged


__all__ = [
    "FaultDomainTopology",
    "firmware_rollout",
    "host_failure",
    "injection_sort_key",
    "merge_schedules",
    "network_partition",
    "power_domain_trip",
    "rack_failure",
    "thermal_emergency",
    "thermal_slow_factor",
]
