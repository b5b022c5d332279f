"""Serving simulation: traffic, coalescing, device scheduling, SLOs."""

from repro.serving.batcher import Batch, CoalescingConfig, coalesce, coalescing_stats
from repro.serving.faults import (
    PoolState,
    headroom_for_fault_tolerance,
    inject_device_faults,
    queueing_delay_factor,
)
from repro.serving.scheduler import ModelJobProfile, schedule_batches
from repro.serving.simulator import max_throughput_under_slo, simulate_serving
from repro.serving.workload import (
    DiurnalTrafficModel,
    Request,
    diurnal_load_curve,
    diurnal_poisson_stream,
    poisson_stream,
    with_priorities,
)

__all__ = [
    "Batch",
    "CoalescingConfig",
    "ModelJobProfile",
    "PoolState",
    "Request",
    "DiurnalTrafficModel",
    "coalesce",
    "coalescing_stats",
    "diurnal_load_curve",
    "diurnal_poisson_stream",
    "headroom_for_fault_tolerance",
    "inject_device_faults",
    "max_throughput_under_slo",
    "queueing_delay_factor",
    "poisson_stream",
    "schedule_batches",
    "simulate_serving",
    "with_priorities",
]
