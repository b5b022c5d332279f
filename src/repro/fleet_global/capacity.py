"""The region-outage capacity study: hosts per region to survive one.

The ROADMAP question, answered in the fleet's own units: *how many
hosts per region does it take to serve N million users at the P99 SLO
through a full region outage?*  Three arms per candidate size:

* **baseline** — no outage, no defenses: the smallest size that serves
  the diurnal day at SLO is what capacity planning would buy with no
  disaster budget;
* **undefended** — the headline drill (one region dark across its
  traffic peak) with failover off: the LB keeps sending the dead
  region its traffic, and the study shows no affordable size holds the
  SLO — you cannot buy your way out of an outage without failover;
* **defended** — the same drill with probe-driven failover, capacity
  spill, and the chaos defense suite armed: the smallest size whose
  surviving regions absorb the dead region's spilled peak.

The **overprovision fraction** — (defended size − baseline size) /
baseline size — is the price of region-loss tolerance, the number the
paper's productionization story turns on.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.fleet_global.drills import region_outage_drill
from repro.fleet_global.regions import standard_fleet
from repro.fleet_global.simulator import FleetReport, run_fleet
from repro.obs.metrics import MetricsRegistry, active
from repro.serving.simulator import DEFAULT_P99_SLO_S

# Loss budget for "holding the SLO through the outage": the defended
# arm inevitably loses the detection window (probes must fail twice
# before failover engages), so a strict zero would declare failover
# itself impossible.  2.5% bounds the loss to roughly that window.
DEFAULT_MAX_LOSS_FRACTION = 0.025


@dataclasses.dataclass(frozen=True)
class CapacityPoint:
    """One candidate size, all three arms."""

    replicas_per_region: int
    hosts_per_region: int
    baseline: FleetReport
    undefended: FleetReport
    defended: FleetReport


@dataclasses.dataclass(frozen=True)
class CapacityStudy:
    """The sweep and its verdict."""

    users_millions: float
    p99_slo_s: float
    max_loss_fraction: float
    points: Tuple[CapacityPoint, ...]
    baseline_replicas: Optional[int]  # smallest SLO-holding size, no outage
    defended_replicas: Optional[int]  # smallest size holding through outage
    undefended_replicas: Optional[int]  # ditto with failover off (expect None)

    @property
    def baseline_hosts(self) -> Optional[int]:
        return self._hosts_for(self.baseline_replicas)

    @property
    def defended_hosts(self) -> Optional[int]:
        return self._hosts_for(self.defended_replicas)

    def _hosts_for(self, replicas: Optional[int]) -> Optional[int]:
        for point in self.points:
            if point.replicas_per_region == replicas:
                return point.hosts_per_region
        return None

    @property
    def overprovision_fraction(self) -> Optional[float]:
        """Extra capacity bought purely for region-loss tolerance."""
        if self.baseline_replicas is None or self.defended_replicas is None:
            return None
        return (
            (self.defended_replicas - self.baseline_replicas)
            / self.baseline_replicas
        )

    def point(self, replicas: int) -> CapacityPoint:
        for candidate in self.points:
            if candidate.replicas_per_region == replicas:
                return candidate
        raise KeyError(f"no capacity point at {replicas} replicas/region")

    def scalars(self) -> Dict[str, float]:
        """The golden-pinned study outcome."""
        out: Dict[str, float] = {
            "capacity.baseline_replicas": float(self.baseline_replicas or -1),
            "capacity.defended_replicas": float(self.defended_replicas or -1),
            "capacity.undefended_replicas": float(
                self.undefended_replicas or -1
            ),
        }
        over = self.overprovision_fraction
        if over is not None:
            out["capacity.overprovision_fraction"] = over
        if self.defended_replicas is not None:
            point = self.point(self.defended_replicas)
            out["capacity.undefended.loss_fraction"] = (
                point.undefended.loss_fraction
            )
            out["capacity.defended.loss_fraction"] = (
                point.defended.loss_fraction
            )
            out["capacity.defended.spill_fraction"] = (
                point.defended.spill_fraction
            )
            out["capacity.undefended.p99_ms"] = (
                point.undefended.p99_latency_s * 1e3
            )
            out["capacity.defended.p99_ms"] = (
                point.defended.p99_latency_s * 1e3
            )
        return out

    def table(self) -> str:
        """The capacity table the docs embed."""
        header = (
            f"{'repl/region':>11} {'hosts':>5} | "
            f"{'baseline':>19} | {'undef. outage':>19} | "
            f"{'defended outage':>19}"
        )
        rule = "-" * len(header)
        lines = [header, rule]
        for point in self.points:
            def cell(report: FleetReport) -> str:
                ok = report.meets_slo(self.p99_slo_s, self.max_loss_fraction)
                return (
                    f"{report.p99_latency_s * 1e3:6.1f}ms "
                    f"{report.loss_fraction:6.2%} "
                    f"{'OK ' if ok else 'SLO'}"
                )
            lines.append(
                f"{point.replicas_per_region:>11} "
                f"{point.hosts_per_region:>5} | "
                f"{cell(point.baseline):>19} | "
                f"{cell(point.undefended):>19} | "
                f"{cell(point.defended):>19}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        lines = [
            f"capacity study: {self.users_millions:.1f}M users, "
            f"P99 SLO {self.p99_slo_s * 1e3:.0f} ms, "
            f"loss budget {self.max_loss_fraction:.1%}",
            self.table(),
        ]
        if self.undefended_replicas is None:
            lines.append(
                "undefended: NO size in the sweep holds the SLO through "
                "the outage — capacity cannot substitute for failover"
            )
        if self.baseline_replicas is not None and (
            self.defended_replicas is not None
        ):
            lines.append(
                f"verdict: {self.baseline_replicas} replicas/region "
                f"({self.baseline_hosts} hosts) suffice on a quiet day; "
                f"surviving a region outage takes "
                f"{self.defended_replicas}/region "
                f"({self.defended_hosts} hosts) with failover — "
                f"{self.overprovision_fraction:.0%} overprovision"
            )
        elif self.defended_replicas is None:
            lines.append(
                "verdict: no size in the sweep holds the SLO through the "
                "outage even defended — widen the sweep"
            )
        return "\n".join(lines)


def _study_point(
    size: int,
    users_millions: float,
    duration_s: float,
    seed: int,
    registry: Optional[MetricsRegistry],
) -> CapacityPoint:
    """All three arms for one candidate size."""
    fleet = standard_fleet(
        replicas_per_region=size,
        users_millions=users_millions,
        duration_s=duration_s,
        seed=seed,
    )
    drill = region_outage_drill(fleet)
    return CapacityPoint(
        replicas_per_region=size,
        hosts_per_region=fleet.regions[0].num_hosts,
        baseline=run_fleet(fleet, registry=registry),
        undefended=run_fleet(fleet, drill, defended=False, registry=registry),
        defended=run_fleet(fleet, drill, defended=True, registry=registry),
    )


def run_capacity_study(
    users_millions: float = 4.0,
    sizes: Sequence[int] = (3, 4, 5, 6, 8),
    duration_s: float = 24.0,
    seed: int = 0,
    max_loss_fraction: float = DEFAULT_MAX_LOSS_FRACTION,
    registry: Optional[MetricsRegistry] = None,
) -> CapacityStudy:
    """Sweep replicas-per-region and find the outage-surviving minimum.

    Each candidate size is an independent seeded trial of three fleet
    runs, run in ascending size order.
    """
    if not sizes or any(size <= 0 for size in sizes):
        raise ValueError("sizes must be positive replica counts")
    sizes = tuple(sorted(set(sizes)))
    points = [
        _study_point(size, users_millions, duration_s, seed, registry)
        for size in sizes
    ]
    fleet = standard_fleet(
        replicas_per_region=sizes[-1],
        users_millions=users_millions,
        duration_s=duration_s,
        seed=seed,
    )

    def smallest(pick) -> Optional[int]:
        for point in points:
            if pick(point).meets_slo(DEFAULT_P99_SLO_S, max_loss_fraction):
                return point.replicas_per_region
        return None

    study = CapacityStudy(
        users_millions=users_millions,
        p99_slo_s=DEFAULT_P99_SLO_S,
        max_loss_fraction=max_loss_fraction,
        points=tuple(points),
        baseline_replicas=smallest(lambda p: p.baseline),
        defended_replicas=smallest(lambda p: p.defended),
        undefended_replicas=smallest(lambda p: p.undefended),
    )
    obs = active(registry)
    if obs.enabled:
        for key, value in study.scalars().items():
            obs.gauge(f"fleet.{key}").set(value)
    return study


def smoke_study(
    registry: Optional[MetricsRegistry] = None,
) -> CapacityStudy:
    """The CI-speed study: fewer sizes, same fleet shape and physics.

    The sweep keeps the quiet-day minimum (4) and the outage-surviving
    minimum (5) so the smoke verdict matches the full study's.
    """
    return run_capacity_study(
        users_millions=4.0, sizes=(4, 5, 8), registry=registry,
    )


__all__ = [
    "CapacityPoint",
    "CapacityStudy",
    "DEFAULT_MAX_LOSS_FRACTION",
    "run_capacity_study",
    "smoke_study",
]
