"""Firmware: the PCIe/NoC/Control-Core deadlock and staged rollouts
(paper section 5.5).

Two reproductions live here:

1. **The deadlock.**  A wait-for-graph model of the silicon bug: under
   high PE utilization, the Control Core reads host memory; PCIe
   transaction ordering makes that read wait behind earlier in-flight
   transactions; those are back-pressured by the NoC, which is waiting
   on the Control Core — a cycle.  The firmware mitigation relocates the
   Control Core's data from host memory to device SRAM, removing the
   Control-Core -> PCIe edge and breaking the cycle.

2. **The rollout machinery.**  Conveyor-style staged deployment: builds
   three times daily, stress-tested pre-production (where the deadlock
   was caught), typical fleet rollout in 18 days, emergency rollout in
   3 hours honoring restart-safety policies, 1 hour with overrides.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# The deadlock model
# ---------------------------------------------------------------------------


class Component(enum.Enum):
    """Agents in the deadlock cycle."""

    CONTROL_CORE = "control_core"
    PCIE_CONTROLLER = "pcie_controller"
    NOC = "noc"
    HOST = "host"


@dataclasses.dataclass(frozen=True)
class SystemState:
    """Conditions under which the wait-for edges materialize."""

    pe_utilization: float  # 0..1
    pcie_queue_depth: int  # transactions already in flight
    control_core_reads_host_memory: bool  # the firmware knob

    def __post_init__(self) -> None:
        if not (0 <= self.pe_utilization <= 1):
            raise ValueError("utilization must be in [0, 1]")
        if self.pcie_queue_depth < 0:
            raise ValueError("queue depth must be non-negative")


def wait_for_edges(state: SystemState) -> Set[Tuple[Component, Component]]:
    """The wait-for graph implied by a system state.

    * The Control Core waits on the host completing its memory read —
      only if firmware still places that memory host-side.
    * The host's response is ordered behind earlier PCIe transactions
      when the queue is non-empty (PCIe ordering rules).
    * Those transactions are back-pressured by the NoC when the PE grid
      saturates it.
    * The NoC serializes certain transactions behind a Control Core
      operation.
    """
    edges: Set[Tuple[Component, Component]] = set()
    if state.control_core_reads_host_memory:
        edges.add((Component.CONTROL_CORE, Component.HOST))
    if state.pcie_queue_depth > 0:
        edges.add((Component.HOST, Component.PCIE_CONTROLLER))
    if state.pe_utilization >= 0.95:
        edges.add((Component.PCIE_CONTROLLER, Component.NOC))
    edges.add((Component.NOC, Component.CONTROL_CORE))
    return edges


def has_deadlock(state: SystemState) -> bool:
    """Whether the wait-for graph contains a cycle."""
    edges = wait_for_edges(state)
    graph: Dict[Component, List[Component]] = {}
    for src, dst in edges:
        graph.setdefault(src, []).append(dst)
    visited: Dict[Component, int] = {}  # 0=visiting, 1=done

    def visit(node: Component) -> bool:
        mark = visited.get(node)
        if mark == 0:
            return True  # back edge -> cycle
        if mark == 1:
            return False
        visited[node] = 0
        for nxt in graph.get(node, []):
            if visit(nxt):
                return True
        visited[node] = 1
        return False

    return any(visit(node) for node in Component if node not in visited)


def apply_firmware_mitigation(state: SystemState) -> SystemState:
    """The deployed fix: relocate the Control Core's working memory from
    host DRAM to device SRAM, removing the host read entirely."""
    return dataclasses.replace(state, control_core_reads_host_memory=False)


def deadlock_incidence(
    num_servers: int = 10_000,
    high_load_fraction: float = 0.05,
    deep_queue_probability: float = 0.02,
    mitigated: bool = False,
    seed: int = 0,
) -> float:
    """Fraction of servers hitting the deadlock in one window.

    The paper saw ~1% of servers fail under a saturating stress test and
    ~0.1% of production servers on susceptible models.
    """
    rng = np.random.default_rng(seed)
    high_load = rng.uniform(size=num_servers) < high_load_fraction
    deep_queue = rng.uniform(size=num_servers) < deep_queue_probability
    hits = 0
    for is_high, is_deep in zip(high_load, deep_queue):
        if not (is_high and is_deep):
            continue
        state = SystemState(
            pe_utilization=1.0 if is_high else 0.5,
            pcie_queue_depth=8 if is_deep else 0,
            control_core_reads_host_memory=not mitigated,
        )
        if has_deadlock(state):
            hits += 1
    return hits / num_servers


# ---------------------------------------------------------------------------
# Staged rollout simulation
# ---------------------------------------------------------------------------

BUILDS_PER_DAY = 3
PAPER_RELEASES_PER_YEAR = 23
TYPICAL_ROLLOUT_DAYS = 18
EMERGENCY_ROLLOUT_HOURS = 3
OVERRIDE_ROLLOUT_HOURS = 1


@dataclasses.dataclass(frozen=True)
class RolloutStage:
    """One ring of a staged deployment."""

    name: str
    fleet_fraction: float
    soak_hours: float


TYPICAL_STAGES = (
    RolloutStage("staging", 0.001, 48.0),
    RolloutStage("canary", 0.01, 72.0),
    RolloutStage("early", 0.05, 72.0),
    RolloutStage("quarter", 0.25, 96.0),
    RolloutStage("fleet", 1.00, 144.0),
)


@dataclasses.dataclass(frozen=True)
class RolloutPlan:
    """A firmware-bundle deployment schedule."""

    stages: Sequence[RolloutStage]
    # Max fraction of servers restarting concurrently (service-health
    # policy enforced by the cluster manager).
    max_concurrent_restart_fraction: float = 0.02
    restart_minutes: float = 10.0

    @property
    def total_hours(self) -> float:
        """Wall time to full fleet coverage."""
        hours = 0.0
        previous = 0.0
        for stage in self.stages:
            delta = max(0.0, stage.fleet_fraction - previous)
            waves = math.ceil(delta / self.max_concurrent_restart_fraction)
            hours += waves * self.restart_minutes / 60.0 + stage.soak_hours
            previous = stage.fleet_fraction
        return hours

    @property
    def total_days(self) -> float:
        """Wall time in days."""
        return self.total_hours / 24.0

    def restart_wave_size(self, fleet_devices: int) -> int:
        """Devices one restart wave may take down concurrently."""
        if fleet_devices <= 0:
            raise ValueError("fleet must be non-empty")
        return max(1, int(self.max_concurrent_restart_fraction * fleet_devices))

    def restart_waves(self, fleet_devices: int) -> List[int]:
        """Wave sizes covering the whole fleet under the concurrency cap.

        This is the schedule the resilience simulator executes: each
        wave restarts at most ``max_concurrent_restart_fraction`` of the
        fleet, waves are ``restart_minutes`` apart, and the sum covers
        every device exactly once.
        """
        wave = self.restart_wave_size(fleet_devices)
        full, remainder = divmod(fleet_devices, wave)
        waves = [wave] * full
        if remainder:
            waves.append(remainder)
        return waves


def typical_rollout() -> RolloutPlan:
    """The standard 18-day incremental rollout."""
    return RolloutPlan(stages=TYPICAL_STAGES)


def emergency_rollout() -> RolloutPlan:
    """Fleet-wide within ~3 hours, still honoring restart-safety limits."""
    return RolloutPlan(
        stages=(RolloutStage("fleet", 1.0, 0.5),),
        max_concurrent_restart_fraction=0.07,
        restart_minutes=10.0,
    )


def override_rollout() -> RolloutPlan:
    """Extreme case: the whole fleet within ~1 hour, policies overridden."""
    return RolloutPlan(
        stages=(RolloutStage("fleet", 1.0, 0.0),),
        max_concurrent_restart_fraction=0.2,
        restart_minutes=10.0,
    )


@dataclasses.dataclass(frozen=True)
class StagedDetectionResult:
    """Whether staged deployment catches a low-incidence issue before the
    fleet stage, and how many servers were exposed."""

    detected_at_stage: Optional[str]
    servers_exposed: int
    fleet_servers: int


def staged_detection(
    issue_incidence: float,
    detection_threshold_servers: int = 3,
    seed: int = 0,
) -> StagedDetectionResult:
    """Simulate whether the typical ring rollout catches an issue
    affecting ``issue_incidence`` of an 80,000-server fleet (e.g. the
    0.1% deadlock) before it reaches the whole fleet."""
    fleet_servers = 80_000
    if not (0 <= issue_incidence <= 1):
        raise ValueError("incidence must be in [0, 1]")
    rng = np.random.default_rng(seed)
    exposed = 0
    for stage in TYPICAL_STAGES:
        stage_servers = int(stage.fleet_fraction * fleet_servers)
        exposed = stage_servers
        affected = rng.binomial(stage_servers, issue_incidence)
        if affected >= detection_threshold_servers and stage.fleet_fraction < 1.0:
            return StagedDetectionResult(
                detected_at_stage=stage.name,
                servers_exposed=exposed,
                fleet_servers=fleet_servers,
            )
    return StagedDetectionResult(
        detected_at_stage=None, servers_exposed=exposed, fleet_servers=fleet_servers
    )
