"""Fleet resilience: time-domain fault injection, recovery policies, and
graceful degradation across the serving tier.

Where :mod:`repro.reliability` computes the section 5 studies as point
estimates and :mod:`repro.serving.faults` removes a fixed fraction of
devices once, this package closes the loop over *time*: a seeded
discrete-event simulator in which faults drawn from the reliability
models land on a serving pool, devices walk an explicit lifecycle
(HEALTHY -> DEGRADED -> WEDGED -> DRAINING -> REBOOTING -> HEALTHY),
recovery policies fight back, and an emergency firmware rollout can
patch the fleet mid-window — reproducing the paper's section 5.5 arc as
one closed system.

:mod:`repro.resilience.policies` is the recovery vocabulary every tier
shares: retry and backoff, hedging, drain, load shed and admission caps,
the rollout trigger, and the overload defenses (deadlines, retry token
bucket, circuit breakers) the cluster and chaos tiers arm.  Its names
are imported from that module, not from this package.
"""

from repro.resilience.device import Device, DeviceState, PoolCensus, TransitionError
from repro.resilience.events import Event, EventKind, EventLog
from repro.resilience.faults import (
    FaultRates,
    fault_rates_from_reliability,
    presample_fault_arrivals,
)
from repro.resilience.metrics import IntervalMetrics, evaluate_interval
from repro.resilience.scenario import run_section_55_drill
from repro.resilience.simulator import (
    ResilienceConfig,
    ResilienceSimulator,
    run_resilience,
)
from repro.resilience.trace import to_resilience_trace, write_resilience_trace

__all__ = [
    "Device",
    "DeviceState",
    "Event",
    "EventKind",
    "EventLog",
    "FaultRates",
    "IntervalMetrics",
    "PoolCensus",
    "ResilienceConfig",
    "ResilienceSimulator",
    "TransitionError",
    "evaluate_interval",
    "fault_rates_from_reliability",
    "presample_fault_arrivals",
    "run_resilience",
    "run_section_55_drill",
    "to_resilience_trace",
    "write_resilience_trace",
]
