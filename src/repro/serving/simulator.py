"""End-to-end serving simulation: traffic -> coalescing -> device schedule.

Combines the workload generator, the request coalescer, and the
remote/merge job scheduler, and answers the production question the
paper's serving work optimizes for: *how much throughput can one device
sustain while meeting the P99 latency SLO* (100 ms for the case-study
model)?
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.serving.batcher import CoalescingConfig, coalesce, coalescing_stats
from repro.serving.scheduler import ModelJobProfile, schedule_batches
from repro.serving.workload import poisson_stream

DEFAULT_P99_SLO_S = 0.100


@dataclasses.dataclass(frozen=True)
class ServingOutcome:
    """One simulated serving run."""

    offered_samples_per_s: float
    served_samples_per_s: float
    p50_latency_s: float
    p99_latency_s: float
    device_utilization: float
    mean_fill_fraction: float
    meets_slo: bool


def simulate_serving(
    profile: ModelJobProfile,
    coalescing: CoalescingConfig,
    request_rate_per_s: float,
    samples_per_request: int = 256,
    duration_s: float = 60.0,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    seed: int = 3,
) -> ServingOutcome:
    """Simulate one device serving Poisson traffic."""
    requests = poisson_stream(
        rate_per_s=request_rate_per_s,
        duration_s=duration_s,
        samples_per_request=samples_per_request,
        seed=seed,
    )
    batches = coalesce(requests, coalescing)
    stats = coalescing_stats(batches, coalescing)
    result = schedule_batches(batches, profile)
    p99 = result.latency_percentile(99)
    return ServingOutcome(
        offered_samples_per_s=sum(r.samples for r in requests) / duration_s,
        served_samples_per_s=result.throughput_samples_per_s,
        p50_latency_s=result.latency_percentile(50),
        p99_latency_s=p99,
        device_utilization=result.utilization,
        mean_fill_fraction=stats.mean_fill_fraction,
        meets_slo=p99 <= p99_slo_s,
    )


def max_throughput_under_slo(
    profile: ModelJobProfile,
    coalescing: CoalescingConfig,
    p99_slo_s: float = DEFAULT_P99_SLO_S,
    samples_per_request: int = 256,
    iterations: int = 8,
    duration_s: float = 40.0,
) -> ServingOutcome:
    """Binary-search the highest request rate in [10, 400] req/s whose
    P99 meets the SLO (every probe seeded 3).

    This is the capacity figure production provisioning uses ('a model's
    throughput at its P99 latency SLO is highly sensitive to these
    parameters', section 4.1).
    """
    low_rate, seed = 10.0, 3
    best: Optional[ServingOutcome] = None
    lo, hi = low_rate, 400.0
    for _ in range(iterations):
        mid = (lo + hi) / 2
        outcome = simulate_serving(
            profile,
            coalescing,
            request_rate_per_s=mid,
            samples_per_request=samples_per_request,
            duration_s=duration_s,
            p99_slo_s=p99_slo_s,
            seed=seed,
        )
        if outcome.meets_slo:
            best = outcome
            lo = mid
        else:
            hi = mid
    if best is None:
        best = simulate_serving(
            profile,
            coalescing,
            request_rate_per_s=low_rate,
            samples_per_request=samples_per_request,
            duration_s=duration_s,
            p99_slo_s=p99_slo_s,
            seed=seed,
        )
    return best
