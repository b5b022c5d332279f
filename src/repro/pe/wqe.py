"""Work Queue Engine (WQE) and eager-mode job-launch model.

Paper section 3.3: to support PyTorch eager mode, MTIA 2i's Control Core
broadcasts Work Queue descriptors to the PEs, each of which has a WQE to
DMA requests in.  This cut job launch time by as much as 80% versus
MTIA 1 — under 1 us to launch and under 0.5 us to replace a job.

Eager mode executes each operator as a separate job, so launch overhead
multiplies by the operator count; this model quantifies when a chip's
launch path makes eager execution viable.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.arch.specs import ChipSpec, EagerLaunchSpec


@dataclasses.dataclass(frozen=True)
class LaunchTimeline:
    """Launch accounting for a sequence of eager-mode jobs."""

    num_jobs: int
    launch_overhead_s: float
    compute_time_s: float

    @property
    def total_time_s(self) -> float:
        """Wall time: compute plus exposed launch overhead."""
        return self.compute_time_s + self.launch_overhead_s

    @property
    def overhead_fraction(self) -> float:
        """Fraction of wall time lost to launches."""
        return self.launch_overhead_s / self.total_time_s if self.total_time_s else 0.0


def eager_launch_timeline(
    job_times_s: Sequence[float], eager: EagerLaunchSpec
) -> LaunchTimeline:
    """Launch overhead for back-to-back eager jobs.

    The first job pays the full launch latency; with broadcast work
    queues, subsequent jobs are *replaced* while the previous one drains,
    paying only the (cheaper) replace latency.  Without broadcast support
    every job pays the full launch latency.
    """
    jobs = list(job_times_s)
    if any(t < 0 for t in jobs):
        raise ValueError("job times must be non-negative")
    if not jobs:
        return LaunchTimeline(num_jobs=0, launch_overhead_s=0.0, compute_time_s=0.0)
    if eager.broadcast_work_queues:
        overhead = eager.job_launch_s + (len(jobs) - 1) * eager.job_replace_s
    else:
        overhead = len(jobs) * eager.job_launch_s
    return LaunchTimeline(
        num_jobs=len(jobs),
        launch_overhead_s=overhead,
        compute_time_s=sum(jobs),
    )


def launch_reduction(new: EagerLaunchSpec, old: EagerLaunchSpec) -> float:
    """Fractional reduction in job-launch time (the paper's 'as much as
    80%')."""
    return 1.0 - new.job_launch_s / old.job_launch_s


def eager_viable(chip: ChipSpec, median_op_time_s: float) -> bool:
    """Whether eager-mode execution keeps launch overhead at or below 10%
    of the time for a model whose median operator runs for
    ``median_op_time_s``."""
    if median_op_time_s <= 0:
        raise ValueError("op time must be positive")
    per_job = (
        chip.eager.job_replace_s
        if chip.eager.broadcast_work_queues
        else chip.eager.job_launch_s
    )
    return per_job / (per_job + median_op_time_s) <= 0.1
