"""Time-series availability metrics for the resilience simulator.

Once per metrics interval the simulator converts the pool's lifecycle
census into serving-tier outcomes: goodput fraction, retry
amplification, shed and failed load, and tail latency with retries.
The census is a :class:`~repro.resilience.device.PoolCensus` the
simulator keeps live across transitions, so a tick reads its counts in
O(1) instead of rescanning every device; its rotation capacity is a
left-to-right sum in device-id order, bit-identical to the retired scan
(kept as the oracle in ``tests/test_resilience_census_equivalence.py``).
The arithmetic deliberately reuses the :mod:`repro.serving.faults`
machinery — :func:`~repro.serving.faults.queueing_delay_factor` for the
latency blow-up and :class:`~repro.serving.faults.FaultImpact` for the
``slo_at_risk`` verdict — so the simulator and the static headroom
analysis cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

from repro.serving.faults import FaultImpact, PoolState, queueing_delay_factor

from repro.resilience.device import DeviceState, PoolCensus
from repro.resilience.events import EventLog
from repro.resilience.policies import ResiliencePolicies

# Utilization at which the reported delay factor saturates (keeps the
# time series finite through an overload episode).
_DELAY_CAP_UTILIZATION = 0.995


@dataclasses.dataclass(frozen=True)
class IntervalMetrics:
    """One metrics-interval snapshot of pool health and serving outcomes."""

    time_s: float
    # Lifecycle census.
    healthy: int
    degraded: int
    wedged: int
    draining: int
    rebooting: int
    # Serving outcomes (samples/s unless noted).
    capacity_samples_per_s: float  # live capacity of devices in rotation
    offered_samples_per_s: float
    admitted_samples_per_s: float  # after load shedding
    goodput_samples_per_s: float  # admitted, successful, uncorrupted
    corrupted_samples_per_s: float  # SDC-poisoned results
    shed_fraction: float
    failed_fraction: float  # of admitted requests, exhausted all attempts
    retry_amplification: float  # attempts per request (>= 1)
    utilization: float  # live-device utilization after shedding
    p50_latency_s: float
    p99_latency_s: float  # includes timeout/backoff of the retried tail
    slo_at_risk: bool

    @property
    def goodput_fraction(self) -> float:
        """Goodput over offered load — the availability headline."""
        if self.offered_samples_per_s <= 0:
            return 1.0
        return self.goodput_samples_per_s / self.offered_samples_per_s

    @property
    def in_rotation(self) -> int:
        """Devices the router still targets (wedged-but-undetected count)."""
        return self.healthy + self.degraded + self.wedged


def evaluate_interval(
    now_s: float,
    census: PoolCensus,
    offered_samples_per_s: float,
    device_throughput: float,
    policies: ResiliencePolicies,
    base_p50_s: float,
    base_p99_s: float,
    baseline_utilization: float,
    corrupted_samples_per_s: float = 0.0,
) -> IntervalMetrics:
    """Convert the pool's lifecycle census into one metrics sample."""
    counts = census.counts
    healthy = counts[DeviceState.HEALTHY]
    degraded = counts[DeviceState.DEGRADED]
    wedged = counts[DeviceState.WEDGED]
    rotation = healthy + degraded + wedged
    live_capacity = census.live_scale * device_throughput
    p_bad = wedged / rotation if rotation else 1.0

    # --- Retry chain: attempts and terminal failures -------------------
    if policies.retry is None:
        max_attempts = 1
    else:
        max_attempts = policies.retry.max_attempts
    # Each attempt independently lands on a wedged replica w.p. p_bad
    # (routers that exclude the failed instance do slightly better; this
    # is the conservative bound).
    retry_amplification = sum(p_bad**k for k in range(max_attempts))
    failed_fraction = p_bad**max_attempts
    if policies.hedge is not None:
        # A hedge fires for every wedged-routed first attempt plus the
        # healthy tail that trips the budget anyway.
        hedge_extra = p_bad + policies.hedge.false_hedge_fraction * (1.0 - p_bad)
        retry_amplification += hedge_extra
        # The hedge gives the request a second, independent replica.
        failed_fraction *= p_bad
    else:
        hedge_extra = 0.0

    # --- Load and shedding on the live devices -------------------------
    # Attempts that hit wedged replicas consume no live capacity; the
    # live demand is the admitted load plus hedge duplicates.
    live_demand = offered_samples_per_s * (1.0 + hedge_extra)
    shed_fraction = 0.0
    if live_capacity <= 0:
        utilization = math.inf
        admitted = 0.0
        served_fraction = 0.0
    else:
        utilization = live_demand / live_capacity
        if policies.shed is not None and utilization > policies.shed.max_utilization:
            shed_fraction = 1.0 - (
                policies.shed.max_utilization * live_capacity / live_demand
            )
            utilization = policies.shed.max_utilization
        admitted = offered_samples_per_s * (1.0 - shed_fraction)
        # Without shedding an overloaded pool drops what it cannot queue.
        served_fraction = min(1.0, 1.0 / utilization) if utilization > 1 else 1.0
    goodput = admitted * (1.0 - failed_fraction) * served_fraction
    goodput = max(0.0, goodput - corrupted_samples_per_s)

    # --- Latency with retries ------------------------------------------
    capped = min(utilization, _DELAY_CAP_UTILIZATION)
    base_factor = queueing_delay_factor(min(baseline_utilization, _DELAY_CAP_UTILIZATION))
    delay_ratio = queueing_delay_factor(capped) / base_factor
    p50 = base_p50_s * delay_ratio
    p99 = base_p99_s * delay_ratio
    # When >=1% of requests need a second attempt, the 99th percentile
    # includes the first attempt's timeout (or the hedge budget).
    if p_bad >= 0.01 and (policies.retry is not None or policies.hedge is not None):
        if policies.hedge is not None:
            p99 = policies.hedge.hedge_after_s + p99
        elif policies.retry is not None:
            p99 = policies.retry.timeout_s + policies.retry.backoff.delay_s(0) + p99

    # --- SLO verdict via the serving-tier machinery --------------------
    total = len(census.scales)
    effective_devices = max(1, int(round(live_capacity / device_throughput)))
    impact = FaultImpact(
        before=PoolState(
            devices=total,
            device_throughput=device_throughput,
            offered_load=offered_samples_per_s,
        ),
        after=PoolState(
            devices=effective_devices,
            device_throughput=device_throughput,
            offered_load=offered_samples_per_s,
        ),
        fault_rate=(total - effective_devices) / total if total else 0.0,
    )

    return IntervalMetrics(
        time_s=now_s,
        healthy=healthy,
        degraded=degraded,
        wedged=wedged,
        draining=counts[DeviceState.DRAINING],
        rebooting=counts[DeviceState.REBOOTING],
        capacity_samples_per_s=live_capacity,
        offered_samples_per_s=offered_samples_per_s,
        admitted_samples_per_s=admitted,
        goodput_samples_per_s=goodput,
        corrupted_samples_per_s=corrupted_samples_per_s,
        shed_fraction=shed_fraction,
        failed_fraction=failed_fraction,
        retry_amplification=retry_amplification,
        utilization=utilization,
        p50_latency_s=p50,
        p99_latency_s=p99,
        slo_at_risk=impact.slo_at_risk,
    )


@dataclasses.dataclass(frozen=True)
class ResilienceReport:
    """Everything one seeded resilience run produced."""

    num_devices: int
    duration_s: float
    seed: int
    offered_samples_per_s: float
    baseline_goodput_samples_per_s: float
    intervals: List[IntervalMetrics]
    events: EventLog
    unavailability_device_minutes: float

    @property
    def goodput_series(self) -> List[float]:
        """Goodput fraction over time."""
        return [m.goodput_fraction for m in self.intervals]

    @property
    def min_goodput_fraction(self) -> float:
        """The worst interval of the window."""
        return min(self.goodput_series) if self.intervals else 1.0

    @property
    def final_goodput_fraction(self) -> float:
        """Where the pool ended up."""
        return self.goodput_series[-1] if self.intervals else 1.0

    @property
    def first_slo_trip_s(self) -> Optional[float]:
        """When ``slo_at_risk`` first went true, if ever."""
        for metrics in self.intervals:
            if metrics.slo_at_risk:
                return metrics.time_s
        return None

    @property
    def peak_retry_amplification(self) -> float:
        """Worst attempts-per-request over the window."""
        return max((m.retry_amplification for m in self.intervals), default=1.0)

    @property
    def p99_series(self) -> List[float]:
        """P99-with-retries over time."""
        return [m.p99_latency_s for m in self.intervals]

    def recovered(self, fraction_of_baseline: float = 0.99) -> bool:
        """Whether end-of-window goodput is back within a factor of the
        fault-free baseline."""
        if self.baseline_goodput_samples_per_s <= 0:
            return True
        final = self.intervals[-1].goodput_samples_per_s if self.intervals else 0.0
        return final >= fraction_of_baseline * self.baseline_goodput_samples_per_s
