"""The chaos scenario catalog: section 5 incidents as injection schedules.

Each :class:`ChaosScenario` packages one incident class the paper's
productionization story survives — what fails, when, for how long, and
which client behaviour rides along — as a pure function of the fault
topology, so a scenario plus a seed fully determines a run.  The
catalog (:func:`standard_catalog`):

=====================  ====================================================
scenario               section 5 incident it reproduces
=====================  ====================================================
``single_host``        the baseline fault model: one host wedges (the
                       5.5 deadlock class) and reboots
``rack_loss``          a rack-level outage — every host behind one
                       failure domain goes together
``power_trip``         section 5.3's re-derived rack budgets running
                       close to the wire: a synchronized demand spike
                       breaches the domain budget and the breaker takes
                       the whole domain
``partition``          a ToR switch failure: the rack is alive but
                       unreachable, and in-flight responses are stuck
                       behind the partition
``retry_storm``        the metastable failure mode the overload
                       defenses exist for: a correlated outage plus
                       impatient clients re-sending uncompleted work
``thermal``            a cooling failure: the 5.4-style thermal model
                       says how hard the rack must throttle, and the
                       tier limps instead of dying
``firmware``           a 5.5-style staged rollout carrying a regressed
                       build: bounded restart waves, degraded hosts,
                       emergency rollback
=====================  ====================================================
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from repro.chaos.domains import (
    FaultDomainTopology,
    firmware_rollout,
    host_failure,
    merge_schedules,
    network_partition,
    power_domain_trip,
    rack_failure,
    thermal_emergency,
)
from repro.arch.server import mtia2i_server
from repro.cluster.simulator import Injection
from repro.reliability.firmware import emergency_rollout
from repro.reliability.power import stress_test_budget
from repro.resilience.policies import ClientRetryConfig


@dataclasses.dataclass(frozen=True)
class ChaosScenario:
    """One reproducible incident: injections + client behaviour + timing.

    ``fault_clear_s`` is when the injected trouble is over — recovery
    metrics (time-to-recovery, post-clear goodput) are measured from
    there.  ``build`` maps the campaign's fault topology to the
    injection schedule; ``client`` (if any) is the retry behaviour the
    scenario's clients exhibit; ``use_brownout`` arms the degradation
    ladder in defended runs.
    """

    name: str
    description: str
    paper_ref: str
    fault_at_s: float
    fault_clear_s: float
    build: Callable[[FaultDomainTopology], List[Injection]]
    client: Optional[ClientRetryConfig] = None
    use_brownout: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.fault_at_s <= self.fault_clear_s):
            raise ValueError("need 0 <= fault_at_s <= fault_clear_s")

    def injections(self, topology: FaultDomainTopology) -> List[Injection]:
        return self.build(topology)


# Shared timing: trouble starts after the tier warms up and clears with
# enough run left to observe (or fail to observe) recovery.
_FAULT_AT_S = 8.0

# The storm's clients: impatient (re-send after 250 ms) and persistent
# (no retry cap) — production front-end behaviour, and the load side of
# every metastable-failure story.
STORM_CLIENT = ClientRetryConfig(timeout_s=0.25, max_retries=None)


def _single_host(topology: FaultDomainTopology) -> List[Injection]:
    return host_failure(topology, host=0, at_s=_FAULT_AT_S, duration_s=4.0)


def _rack_loss(topology: FaultDomainTopology) -> List[Injection]:
    return rack_failure(topology, rack=0, at_s=_FAULT_AT_S, duration_s=5.0)


def _power_trip(topology: FaultDomainTopology) -> List[Injection]:
    # A synchronized demand spike 20% above the provisioned per-server
    # budget: the breach magnitude comes from the section 5.3 power
    # model, and the builder refuses to trip within budget.
    budget = stress_test_budget(mtia2i_server())
    return power_domain_trip(
        topology, domain=topology.num_power_domains - 1,
        at_s=_FAULT_AT_S, duration_s=6.0,
        demand_w_per_server=1.2 * budget,
        budget_w_per_server=budget,
    )


def _partition(topology: FaultDomainTopology) -> List[Injection]:
    return network_partition(
        topology, rack=1, at_s=_FAULT_AT_S, duration_s=5.0
    )


def _retry_storm(topology: FaultDomainTopology) -> List[Injection]:
    # A correlated three-host outage: enough lost capacity that queue
    # waits cross the client timeout, and the storm ignites.
    return merge_schedules(*(
        host_failure(topology, host=h, at_s=_FAULT_AT_S, duration_s=4.0)
        for h in range(min(3, topology.num_hosts))
    ))


def _thermal(topology: FaultDomainTopology) -> List[Injection]:
    # A cooling-zone failure spanning two racks: 150 W into the
    # hot-ambient MTIA package settles the junction ~50 C over the
    # throttle target, and every affected package roughly halves its
    # throughput together.
    racks = range(max(0, topology.num_racks - 2), topology.num_racks)
    return merge_schedules(*(
        thermal_emergency(
            topology, rack=rack,
            at_s=_FAULT_AT_S, duration_s=8.0, power_w=150.0,
        )
        for rack in racks
    ))


def _firmware(topology: FaultDomainTopology) -> List[Injection]:
    # An emergency-pace rollout (bounded concurrent restarts) carrying a
    # 1.6x regression; the rollback at t=15 means later waves install
    # the fixed build, and the last wave of a six-host fleet is back up
    # by t=19 — the scenario's clear point.
    return firmware_rollout(
        topology, at_s=_FAULT_AT_S,
        restart_s=1.0, wave_gap_s=2.0,
        plan=emergency_rollout(),
        regression_slow=1.6,
        rollback_at_s=15.0,
    )


def standard_catalog() -> Tuple[ChaosScenario, ...]:
    """The six incident classes plus the headline retry storm."""
    return (
        ChaosScenario(
            name="single_host",
            description="one host wedges and reboots",
            paper_ref="section 5.5 (deadlock-class host hangs)",
            fault_at_s=_FAULT_AT_S, fault_clear_s=_FAULT_AT_S + 4.0,
            build=_single_host,
        ),
        ChaosScenario(
            name="rack_loss",
            description="a full rack outage",
            paper_ref="section 5 (correlated fault domains)",
            fault_at_s=_FAULT_AT_S, fault_clear_s=_FAULT_AT_S + 5.0,
            build=_rack_loss,
        ),
        ChaosScenario(
            name="power_trip",
            description="a power-domain breaker opens on a budget breach",
            paper_ref="section 5.3 (re-derived rack power budgets)",
            fault_at_s=_FAULT_AT_S, fault_clear_s=_FAULT_AT_S + 6.0,
            build=_power_trip,
            use_brownout=True,
        ),
        ChaosScenario(
            name="partition",
            description="a ToR failure partitions one rack",
            paper_ref="section 5 (network fault domains)",
            fault_at_s=_FAULT_AT_S, fault_clear_s=_FAULT_AT_S + 5.0,
            build=_partition,
        ),
        ChaosScenario(
            name="retry_storm",
            description="correlated outage + impatient clients",
            paper_ref="section 5.5 (overload after correlated faults)",
            fault_at_s=_FAULT_AT_S, fault_clear_s=_FAULT_AT_S + 4.0,
            build=_retry_storm,
            client=STORM_CLIENT,
        ),
        ChaosScenario(
            name="thermal",
            description="a cooling failure throttles a rack",
            paper_ref="section 5.4 (thermal management)",
            fault_at_s=_FAULT_AT_S, fault_clear_s=_FAULT_AT_S + 8.0,
            build=_thermal,
            use_brownout=True,
        ),
        ChaosScenario(
            name="firmware",
            description="a staged rollout ships a regressed build",
            paper_ref="section 5.5 (firmware rollout machinery)",
            fault_at_s=_FAULT_AT_S, fault_clear_s=19.0,
            build=_firmware,
        ),
    )


def scenario_by_name(name: str) -> ChaosScenario:
    for scenario in standard_catalog():
        if scenario.name == name:
            return scenario
    names = tuple(s.name for s in standard_catalog())
    raise ValueError(f"unknown scenario {name!r}; choose one of {names}")


__all__ = [
    "STORM_CLIENT",
    "ChaosScenario",
    "scenario_by_name",
    "standard_catalog",
]
