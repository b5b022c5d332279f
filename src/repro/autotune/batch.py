"""Batch-size autotuning with traffic replay (paper section 4.1).

"To autotune a model's batch size, we build multiple snapshots of the
model with different batch sizes and select the best performing one
using traffic-replay tests."  The replay here scores each snapshot by
throughput subject to the serving latency SLO.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.perf.executor import Executor

DEFAULT_BATCH_CANDIDATES = (128, 256, 512, 1024, 2048, 4096)


@dataclasses.dataclass(frozen=True)
class BatchCandidate:
    """One snapshot's replay outcome."""

    batch: int
    latency_s: float
    throughput: float
    meets_slo: bool


@dataclasses.dataclass(frozen=True)
class BatchTuningResult:
    """The winning batch plus the full sweep for inspection."""

    best: BatchCandidate
    candidates: List[BatchCandidate]


def tune_batch_size(
    build_graph: Callable[[int], OpGraph],
    chip: ChipSpec,
    latency_slo_s: float = 0.100,
) -> BatchTuningResult:
    """Replay model snapshots at each candidate batch size
    (``DEFAULT_BATCH_CANDIDATES``) and pick the winner.

    The winner is the highest-throughput snapshot whose batch latency
    leaves room for queueing under the P99 SLO (batch latency below half
    the SLO, the standard rule of thumb the serving simulator validates).
    If none qualifies, the lowest-latency snapshot wins.
    """
    if latency_slo_s <= 0:
        raise ValueError("SLO must be positive")
    executor = Executor(chip)
    results: List[BatchCandidate] = []
    for batch in DEFAULT_BATCH_CANDIDATES:
        graph = build_graph(batch)
        report = executor.run(graph, batch)
        results.append(
            BatchCandidate(
                batch=batch,
                latency_s=report.latency_s,
                throughput=report.throughput_samples_per_s,
                meets_slo=report.latency_s <= latency_slo_s / 2,
            )
        )
    eligible = [c for c in results if c.meets_slo]
    if eligible:
        best = max(eligible, key=lambda c: c.throughput)
    else:
        best = min(results, key=lambda c: c.latency_s)
    return BatchTuningResult(best=best, candidates=results)
