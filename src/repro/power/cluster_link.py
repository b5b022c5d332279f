"""Coupling power management into the serving tier.

Two directions of coupling:

* :class:`ThrottleSchedule` pushes frequency throttling *down* into the
  cluster DES: a piecewise-constant service-time multiplier derived from
  a governed frequency trace, handed to
  :class:`~repro.cluster.simulator.ClusterSimulator` via its
  ``throttle`` parameter.  A replica running at 80% clock takes 1/0.8x
  as long per request; the multiplier is applied after the rng draw so
  an unthrottled run stays byte-identical to one with no schedule.

* :func:`power_limited_capacity_sweep` pushes a rack budget *up* into
  capacity planning: for each budget, the highest ladder frequency
  whose per-chip draw fits determines the replica service rate, and the
  sweep finds the maximum QPS the fixed replica set sustains at the P99
  SLO.  QPS-per-rack versus budget is monotone and has a knee at the
  budget that first admits the full ladder — past it, watts buy nothing.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Optional, Sequence, Tuple

from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import ChipSpec
from repro.cluster.capacity import max_qps_at_slo
from repro.cluster.service import ServiceModel
from repro.obs.metrics import MetricsRegistry, active
from repro.power.activity import chip_power_w
from repro.power.dvfs import DEFAULT_LADDER_HZ
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.units import GHZ


# Server power outside the accelerators (host CPU, NICs, fans), funded
# first out of every rack budget.
PLATFORM_POWER_W = 800.0


@dataclasses.dataclass(frozen=True)
class ThrottleSchedule:
    """A piecewise-constant service-time multiplier over time.

    ``multiplier(t)`` is the factor service times stretch by at time
    ``t`` — 1.0 when unthrottled, ``f_nominal / f_throttled`` when the
    clock is down.  Constant before the first breakpoint at the first
    segment's value, and after the last breakpoint at the last one.
    """

    times_s: Tuple[float, ...]
    multipliers: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times_s or len(self.times_s) != len(self.multipliers):
            raise ValueError("need matching, non-empty breakpoints")
        if list(self.times_s) != sorted(self.times_s):
            raise ValueError("breakpoints must be ascending")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("multipliers must be positive")

    def multiplier(self, time_s: float) -> float:
        """The service-time stretch factor in effect at ``time_s``."""
        index = bisect.bisect_right(self.times_s, time_s) - 1
        return self.multipliers[max(0, index)]

    @classmethod
    def constant(cls, multiplier: float) -> "ThrottleSchedule":
        return cls(times_s=(0.0,), multipliers=(multiplier,))


def frequency_for_chip_budget(chip: ChipSpec, per_chip_budget_w: float) -> float:
    """Highest ``DEFAULT_LADDER_HZ`` frequency whose worst-case
    (full-utilization) draw fits the budget (ladder floor if none does)."""
    for frequency in reversed(DEFAULT_LADDER_HZ):
        if chip_power_w(chip, frequency, 1.0) <= per_chip_budget_w:
            return frequency
    return DEFAULT_LADDER_HZ[0]


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
    frequency = frequency_for_chip_budget(chip, per_chip_budget_w)
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
    registry: Optional[MetricsRegistry] = None,
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
    obs = active(registry)
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
        if obs.enabled:
            obs.series("power.sweep.max_qps").append(float(budget), max_qps)
    sweep = PowerLimitedSweep(
        points=tuple(points), p99_slo_s=DEFAULT_P99_SLO_S, replicas=replicas
    )
    if obs.enabled:
        obs.gauge("power.sweep.knee_budget_w").set(sweep.knee_budget_w)
    return sweep


__all__ = [
    "PowerLimitedPoint",
    "PowerLimitedSweep",
    "ThrottleSchedule",
    "frequency_for_chip_budget",
    "power_limited_capacity_sweep",
    "service_model_at_budget",
]
