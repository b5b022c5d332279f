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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import ChipSpec
from repro.cluster.capacity import _step_fractions, max_qps_at_slo
from repro.cluster.service import ServiceModel
from repro.cluster.simulator import ClusterConfig, run_cluster
from repro.obs.metrics import MetricsRegistry, active
from repro.power.activity import chip_power_w
from repro.power.dvfs import DEFAULT_LADDER_HZ
from repro.serving.simulator import DEFAULT_P99_SLO_S
from repro.serving.workload import poisson_stream
from repro.units import GHZ


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

    @classmethod
    def from_frequency_trace(
        cls,
        times_s: Sequence[float],
        frequencies_hz: Sequence[float],
        nominal_hz: float,
    ) -> "ThrottleSchedule":
        """Build from a governed frequency trace (e.g. the example run of
        :func:`repro.power.dvfs.overclock_with_thermal_feedback`)."""
        if nominal_hz <= 0:
            raise ValueError("nominal frequency must be positive")
        return cls(
            times_s=tuple(times_s),
            multipliers=tuple(nominal_hz / f for f in frequencies_hz),
        )


def frequency_for_chip_budget(
    chip: ChipSpec,
    per_chip_budget_w: float,
    ladder_hz: Sequence[float] = DEFAULT_LADDER_HZ,
    utilization: float = 1.0,
) -> float:
    """Highest ladder frequency whose worst-case draw fits the budget
    (ladder floor if none does)."""
    for frequency in reversed(ladder_hz):
        if chip_power_w(chip, frequency, utilization) <= per_chip_budget_w:
            return frequency
    return ladder_hz[0]


def service_model_at_budget(
    service: ServiceModel,
    per_chip_budget_w: float,
    chip: Optional[ChipSpec] = None,
    ladder_hz: Sequence[float] = DEFAULT_LADDER_HZ,
    reference_hz: Optional[float] = None,
) -> Tuple[ServiceModel, float]:
    """Slow a calibrated service model down to fit a power budget.

    Returns ``(scaled_model, frequency_hz)``.  The service model was
    calibrated at the deployed frequency (``reference_hz``, default the
    chip's rated clock); a budget that only admits a lower ladder state
    stretches the mean service time by the frequency ratio.  Jitter and
    cross-host penalty are shape parameters and carry over unchanged.
    """
    chip = chip or mtia2i_spec()
    reference = reference_hz or chip.frequency_hz
    frequency = frequency_for_chip_budget(chip, per_chip_budget_w, ladder_hz)
    scaled = dataclasses.replace(
        service, mean_service_s=service.mean_service_s * reference / frequency
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

    def scalars(self) -> Dict[str, float]:
        return {
            "knee_budget_w": self.knee_budget_w,
            "min_budget_qps": self.points[0].max_qps,
            "max_budget_qps": self.points[-1].max_qps,
        }


def _guided_max_qps_at_slo(
    service: ServiceModel,
    replicas: int,
    p99_slo_s: float,
    duration_s: float,
    seed: int,
    predicted_fraction: float,
    qps_step_fraction: float = 0.05,
) -> Tuple[float, float, int, int]:
    """Surrogate-guided :func:`max_qps_at_slo` over the same probe
    ladder.

    The surrogate's prediction (a fraction of the fluid ceiling) picks
    the starting rung;
    :func:`repro.surrogate.verify.verified_min_feasible` walks the
    ladder with exact seeded runs until the feasibility boundary holds
    a two-sided certificate.  When SLO feasibility is monotone in
    offered load — the assumption the step-down scan already encodes —
    the answer matches :func:`max_qps_at_slo` bit for bit; only the
    probe count changes.  (Each rung draws its own arrival stream, so
    a seeded boundary blip *can* make feasibility locally non-monotone;
    there the scan takes the highest feasible rung and this search
    returns a certified boundary, which may be one blip lower.  Both
    answers are exact-evaluated either way.)  Returns
    ``(max_qps, p99, exact_runs, scan_runs)`` where ``scan_runs`` is
    what the step-down scan would have spent.
    """
    from repro.surrogate.verify import verified_min_feasible

    fractions = _step_fractions(qps_step_fraction)
    ceiling = replicas * service.capacity_per_replica()
    config = ClusterConfig(
        replicas=replicas, num_hosts=replicas, p99_slo_s=p99_slo_s, seed=seed
    )
    probed: Dict[int, Tuple[float, float, bool]] = {}

    def _feasible(index: int) -> bool:
        qps = ceiling * fractions[index]
        requests = poisson_stream(qps, duration_s, seed=seed)
        report = run_cluster(config, service, requests, fail_fast=True)
        ok = report.meets_slo(p99_slo_s)
        probed[index] = (qps, report.p99_latency_s, ok)
        return ok

    # Index 0 is the highest rung; feasibility is monotone non-
    # decreasing in index (less load → easier SLO).
    guess = int(
        np.argmin(np.abs(np.asarray(fractions) - predicted_fraction))
    )
    answer, exact_runs = verified_min_feasible(
        guess, 0, len(fractions) - 1, _feasible
    )
    if answer is None:
        return 0.0, float("inf"), exact_runs, len(fractions)
    qps, p99, _ = probed[answer]
    return qps, p99, exact_runs, answer + 1


def power_limited_capacity_sweep(
    service: ServiceModel,
    server_budgets_w: Sequence[float],
    replicas: int = 24,
    platform_power_w: float = 800.0,
    chip: Optional[ChipSpec] = None,
    ladder_hz: Sequence[float] = DEFAULT_LADDER_HZ,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    duration_s: float = 20.0,
    seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
    surrogate=None,
) -> PowerLimitedSweep:
    """Sweep rack budget → sustainable QPS at the P99 SLO.

    Each budget funds the platform first; the remainder splits evenly
    across the ``replicas`` chips (one replica per accelerator, as the
    MTIA server runs ranking models), picking the ladder frequency that
    fits and scaling the service model accordingly.  Budgets are
    evaluated under one seed so the sweep is deterministic and monotone:
    more watts → same-or-higher frequency → stochastically faster
    service on the identical arrival stream.

    A fitted power :class:`~repro.surrogate.model.SurrogateModel` as
    ``surrogate`` (see :func:`repro.surrogate.dataset.train_power_surrogate`)
    replaces the per-budget step-down scan with the verified guided search
    (:func:`_guided_max_qps_at_slo`): identical sweep points whenever
    feasibility is monotone in load (see that function's caveat), with
    fewer cluster simulations, tallied under ``surrogate.power.*``.
    ``surrogate=None`` (the default) is the exact scan.
    """
    if replicas <= 0:
        raise ValueError("need at least one replica")
    chip = chip or mtia2i_spec()
    obs = active(registry)
    if surrogate is not None:
        from repro.surrogate.features import power_feature_row
    points = []
    for budget in sorted(server_budgets_w):
        per_chip = max(0.0, (budget - platform_power_w) / replicas)
        scaled, frequency = service_model_at_budget(
            service, per_chip, chip=chip, ladder_hz=ladder_hz
        )
        if surrogate is not None:
            row = power_feature_row(
                scaled.mean_service_s, replicas, p99_slo_s, duration_s,
                scaled.jitter_sigma,
            )
            predicted = float(surrogate.predict(row[None, :])[0])
            max_qps, p99, exact_runs, scan_runs = _guided_max_qps_at_slo(
                scaled, replicas, p99_slo_s, duration_s, seed, predicted
            )
            if obs.enabled:
                obs.counter("surrogate.power.predictions").inc()
                obs.counter("surrogate.power.exact_runs").inc(exact_runs)
                obs.counter("surrogate.power.linear_scan_runs").inc(
                    scan_runs
                )
        else:
            max_qps, p99 = max_qps_at_slo(
                scaled, replicas, p99_slo_s, duration_s, seed
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
        points=tuple(points), p99_slo_s=p99_slo_s, replicas=replicas
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
