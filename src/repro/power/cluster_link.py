"""Coupling power management into the serving tier.

:func:`power_limited_capacity_sweep` pushes a rack budget *up* into
capacity planning: for each budget, the highest ladder frequency whose
per-chip draw fits determines the replica service rate, and the sweep
finds the maximum QPS the fixed replica set sustains at the P99 SLO.
QPS-per-rack versus budget is monotone and has a knee at the budget
that first admits the full ladder — past it, watts buy nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import ChipSpec
from repro.cluster.capacity import max_qps_at_slo
from repro.cluster.service import ServiceModel
from repro.power.dvfs import frequency_for_budget
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.units import GHZ


# Server power outside the accelerators (host CPU, NICs, fans), funded
# first out of every rack budget.
PLATFORM_POWER_W = 800.0


def service_model_at_budget(
    service: ServiceModel,
    per_chip_budget_w: float,
    chip: Optional[ChipSpec] = None,
) -> Tuple[ServiceModel, float]:
    """Slow a calibrated service model down to fit a power budget.

    Returns ``(scaled_model, frequency_hz)``.  The service model was
    calibrated at the chip's rated clock; a budget that only admits a
    lower ``DEFAULT_LADDER_HZ`` state stretches the mean service time by
    the frequency ratio.  Jitter and cross-host penalty are shape
    parameters and carry over unchanged.
    """
    chip = chip or mtia2i_spec()
    # The worst-case (full-utilization) draw must fit.
    frequency = frequency_for_budget(chip, 1.0, per_chip_budget_w)
    scaled = dataclasses.replace(
        service,
        mean_service_s=service.mean_service_s * chip.frequency_hz / frequency,
    )
    return scaled, frequency


@dataclasses.dataclass(frozen=True)
class PowerLimitedPoint:
    """One budget's outcome in the capacity sweep."""

    server_budget_w: float
    per_chip_budget_w: float
    frequency_hz: float
    max_qps: float
    p99_latency_s: float  # at the max sustainable QPS

    @property
    def frequency_ghz(self) -> float:
        return self.frequency_hz / GHZ


@dataclasses.dataclass(frozen=True)
class PowerLimitedSweep:
    """QPS-per-server versus rack power budget at a P99 SLO."""

    points: Tuple[PowerLimitedPoint, ...]
    p99_slo_s: float
    replicas: int

    @property
    def knee_budget_w(self) -> float:
        """Smallest budget admitting the full frequency ladder — watts
        past this buy no throughput."""
        top = max(p.frequency_hz for p in self.points)
        for point in self.points:
            if point.frequency_hz >= top:
                return point.server_budget_w
        return self.points[-1].server_budget_w

    def table(self) -> str:
        lines = [
            f"{'budget W':>9}  {'chip W':>7}  {'GHz':>5}  {'max QPS':>8}  {'p99 ms':>7}"
        ]
        for p in self.points:
            lines.append(
                f"{p.server_budget_w:9.0f}  {p.per_chip_budget_w:7.1f}  "
                f"{p.frequency_ghz:5.2f}  {p.max_qps:8.1f}  "
                f"{p.p99_latency_s * 1e3:7.1f}"
            )
        return "\n".join(lines)


def power_limited_capacity_sweep(
    service: ServiceModel,
    server_budgets_w: Sequence[float],
    replicas: int = 24,
    duration_s: float = 20.0,
    seed: int = 0,
) -> PowerLimitedSweep:
    """Sweep rack budget → sustainable QPS at the serving P99 SLO.

    Each budget funds the 800 W platform first; the remainder splits
    evenly across the ``replicas`` MTIA 2i chips (one replica per
    accelerator, as the MTIA server runs ranking models), picking the
    ladder frequency that fits and scaling the service model
    accordingly.  Budgets are evaluated under one seed so the sweep is
    deterministic and monotone:
    more watts → same-or-higher frequency → stochastically faster
    service on the identical arrival stream.
    """
    if replicas <= 0:
        raise ValueError("need at least one replica")
    points = []
    for budget in sorted(server_budgets_w):
        per_chip = max(0.0, (budget - PLATFORM_POWER_W) / replicas)
        scaled, frequency = service_model_at_budget(service, per_chip)
        max_qps, p99 = max_qps_at_slo(
            scaled, replicas, DEFAULT_P99_SLO_S, duration_s, seed
        )
        points.append(
            PowerLimitedPoint(
                server_budget_w=float(budget),
                per_chip_budget_w=per_chip,
                frequency_hz=frequency,
                max_qps=max_qps,
                p99_latency_s=p99,
            )
        )
    return PowerLimitedSweep(
        points=tuple(points), p99_slo_s=DEFAULT_P99_SLO_S, replicas=replicas
    )


__all__ = [
    "PowerLimitedPoint",
    "PowerLimitedSweep",
    "power_limited_capacity_sweep",
    "service_model_at_budget",
]
