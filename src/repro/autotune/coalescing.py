"""Request-coalescing autotuning (paper section 4.1).

Sweeps the coalescing time window and the number of parallel windows,
scoring each configuration by throughput at the P99 latency SLO — the
quantity the paper calls 'highly sensitive to these parameters'.  A good
configuration achieves near-full batches (>95% requests per batch).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.serving.batcher import CoalescingConfig
from repro.serving.scheduler import ModelJobProfile
from repro.serving.simulator import (
    DEFAULT_P99_SLO_S,
    ServingOutcome,
    max_throughput_under_slo,
)

DEFAULT_WINDOWS_S = (0.002, 0.005, 0.010, 0.020, 0.040)
DEFAULT_PARALLEL_WINDOWS = (1, 2, 4, 8)


@dataclasses.dataclass(frozen=True)
class CoalescingCandidate:
    """One configuration's score."""

    config: CoalescingConfig
    outcome: ServingOutcome


@dataclasses.dataclass(frozen=True)
class CoalescingTuningResult:
    """The winner plus the full sweep."""

    best: CoalescingCandidate
    candidates: List[CoalescingCandidate]


def tune_coalescing(
    profile: ModelJobProfile,
    max_batch_samples: int,
    windows_s: Sequence[float] = DEFAULT_WINDOWS_S,
    parallel_windows: Sequence[int] = DEFAULT_PARALLEL_WINDOWS,
    duration_s: float = 20.0,
) -> CoalescingTuningResult:
    """Sweep (window, parallelism) and keep the highest throughput under
    the serving P99 SLO, for 256-sample requests."""
    candidates: List[CoalescingCandidate] = []
    for window in windows_s:
        for parallel in parallel_windows:
            config = CoalescingConfig(
                window_s=window,
                max_parallel_windows=parallel,
                max_batch_samples=max_batch_samples,
            )
            outcome = max_throughput_under_slo(
                profile,
                config,
                p99_slo_s=DEFAULT_P99_SLO_S,
                samples_per_request=256,
                duration_s=duration_s,
                iterations=6,
            )
            candidates.append(CoalescingCandidate(config=config, outcome=outcome))
    best = max(candidates, key=lambda c: c.outcome.served_samples_per_s)
    return CoalescingTuningResult(best=best, candidates=candidates)
