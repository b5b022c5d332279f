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
analysis cannot drift apart.  The verdict depends only on the pool's
size, its effective size, the load and the device throughput, and a run
revisits few distinct combinations (33 across the 4,322 ticks of the
seed-0 drill), so it is memoized.

Float sums here are explicit left-to-right loops: builtin ``sum`` is
compensated from Python 3.12 and would round differently across the
supported interpreters.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import List, Optional

from repro.serving.faults import FaultImpact, PoolState, queueing_delay_factor

from repro.resilience.device import DeviceState, PoolCensus
from repro.resilience.events import EventLog

# Utilization at which the reported delay factor saturates (keeps the
# time series finite through an overload episode).
_DELAY_CAP_UTILIZATION = 0.995

# The mitigated serving tier: each request gets up to MAX_ATTEMPTS
# attempts, a hedge to a second replica after HEDGE_AFTER_S, and the
# tier sheds load past SHED_MAX_UTILIZATION of live capacity.  The
# unmitigated tier makes one attempt, never hedges and never sheds.
MAX_ATTEMPTS = 3
HEDGE_AFTER_S = 0.05
# Fraction of *healthy* requests that still trip the hedge budget (tail
# latency), adding background attempt amplification.
FALSE_HEDGE_FRACTION = 0.01
SHED_MAX_UTILIZATION = 0.95


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


def evaluate_interval(
    now_s: float,
    census: PoolCensus,
    offered_samples_per_s: float,
    device_throughput: float,
    mitigated: bool,
    base_p50_s: float,
    base_p99_s: float,
    baseline_utilization: float,
    corrupted_samples_per_s: float = 0.0,
) -> IntervalMetrics:
    """Convert the pool's lifecycle census into one metrics sample,
    with the retry, hedge and shed policies on when ``mitigated``."""
    counts = census.counts
    healthy = counts[DeviceState.HEALTHY]
    degraded = counts[DeviceState.DEGRADED]
    wedged = counts[DeviceState.WEDGED]
    rotation = healthy + degraded + wedged
    live_capacity = census.live_scale * device_throughput
    p_bad = wedged / rotation if rotation else 1.0

    # --- Retry chain: attempts and terminal failures -------------------
    max_attempts = MAX_ATTEMPTS if mitigated else 1
    # Each attempt independently lands on a wedged replica w.p. p_bad
    # (routers that exclude the failed instance do slightly better; this
    # is the conservative bound).
    retry_amplification = 0.0
    for k in range(max_attempts):
        retry_amplification += p_bad**k
    failed_fraction = p_bad**max_attempts
    if mitigated:
        # A hedge fires for every wedged-routed first attempt plus the
        # healthy tail that trips the budget anyway.
        hedge_extra = p_bad + FALSE_HEDGE_FRACTION * (1.0 - p_bad)
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
        if mitigated and utilization > SHED_MAX_UTILIZATION:
            shed_fraction = 1.0 - (
                SHED_MAX_UTILIZATION * live_capacity / live_demand
            )
            utilization = SHED_MAX_UTILIZATION
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
    # includes the hedge budget, which fires before any retry timeout.
    if mitigated and p_bad >= 0.01:
        p99 = HEDGE_AFTER_S + p99

    # --- SLO verdict via the serving-tier machinery --------------------
    total = len(census.scales)
    effective_devices = max(1, int(round(live_capacity / device_throughput)))
    slo_at_risk = _slo_at_risk(
        total, effective_devices, device_throughput, offered_samples_per_s
    )

    return IntervalMetrics(
        time_s=now_s,
        healthy=healthy,
        degraded=degraded,
        wedged=wedged,
        # Nothing drains a device (the rollout power-cycles it); the
        # field stays in the row the pinned interval digest hashes.
        draining=0,
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
        slo_at_risk=slo_at_risk,
    )


@functools.lru_cache(maxsize=1024)
def _slo_at_risk(total: int, effective_devices: int, device_throughput: float,
                 offered_samples_per_s: float) -> bool:
    """:class:`FaultImpact`'s verdict on a pool of ``total`` devices that
    serves like ``effective_devices``."""
    return FaultImpact(
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
    ).slo_at_risk


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
