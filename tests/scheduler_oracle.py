"""The serving scheduler's original device loop, kept as a test oracle.

``repro.serving.scheduler.schedule_batches`` dispatches from a ready
heap.  The O(n^2) scan-the-pending-list loop it replaced is kept here
verbatim, and ``tests/test_fastsim_equivalence.py`` checks the two are
byte-identical on seeded batch streams.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, active
from repro.serving.batcher import Batch


def schedule_batches_reference(
    batches: Sequence["Batch"],
    profile,
    registry: Optional[MetricsRegistry] = None,
):
    """The original O(n^2) scan-the-pending-list device scheduler.

    Byte-identical oracle for ``repro.serving.scheduler.schedule_batches``
    (the fast ready-heap port).  Kept verbatim — do not optimize.
    """
    from repro.serving.scheduler import (
        BatchCompletion,
        ScheduleResult,
        _Job,
    )

    obs = active(registry)
    runnable_depth = obs.histogram("serving.scheduler.runnable_depth")
    jobs: List[_Job] = []
    merge_jobs: Dict[int, _Job] = {}
    for index, batch in enumerate(batches):
        for _ in range(profile.remote_jobs_per_batch):
            jobs.append(
                _Job(
                    batch_index=index,
                    kind="remote",
                    duration_s=profile.remote_time_s + profile.dispatch_overhead_s,
                    enqueue_s=batch.formed_at_s,
                )
            )
        merge = _Job(
            batch_index=index,
            kind="merge",
            duration_s=profile.merge_time_s + profile.dispatch_overhead_s,
            enqueue_s=batch.formed_at_s,
            remaining_deps=profile.remote_jobs_per_batch,
        )
        jobs.append(merge)
        merge_jobs[index] = merge
    # Event-driven single-server simulation.
    pending = sorted(jobs, key=lambda j: (j.enqueue_s, 0 if j.kind == "remote" else 1))
    time = 0.0
    busy = 0.0
    done = 0
    while done < len(jobs):
        runnable = [
            j
            for j in pending
            if j.finish_s < 0 and j.enqueue_s <= time and j.remaining_deps == 0
        ]
        if not runnable:
            # Advance to the next enqueue event.
            future = [j.enqueue_s for j in pending if j.finish_s < 0 and j.remaining_deps == 0]
            if not future:
                raise RuntimeError("scheduler deadlock: jobs with unresolved deps")
            time = max(time, min(future))
            continue
        # FIFO by (current) queue-entry time.
        runnable_depth.observe(float(len(runnable)))
        job = min(runnable, key=lambda j: j.enqueue_s)
        job.start_s = time
        job.finish_s = time + job.duration_s
        busy += job.duration_s
        time = job.finish_s
        done += 1
        if job.kind == "remote":
            merge = merge_jobs[job.batch_index]
            merge.remaining_deps -= 1
            if merge.remaining_deps == 0:
                # The merge is (re)submitted after a host round trip; its
                # new FIFO position is behind any remote already queued —
                # the crux of the remote-remote-merge-merge pattern.
                merge.enqueue_s = time + profile.merge_submission_delay_s
    completions = []
    for index, batch in enumerate(batches):
        remotes = [
            j for j in jobs if j.batch_index == index and j.kind == "remote"
        ]
        completions.append(
            BatchCompletion(
                batch=batch,
                remote_done_s=max(j.finish_s for j in remotes),
                merge_done_s=merge_jobs[index].finish_s,
            )
        )
    makespan = max((j.finish_s for j in jobs), default=0.0)
    result = ScheduleResult(
        completions=completions, device_busy_s=busy, makespan_s=makespan
    )
    if obs.enabled:
        obs.counter("serving.scheduler.jobs_dispatched").inc(len(jobs))
        obs.gauge("serving.scheduler.utilization").set(result.utilization)
        obs.gauge("serving.scheduler.makespan_s").set(makespan)
    return result
