"""Serving and fleet operations: coalescing, scheduling, colocation, power.

Exercises the serving-side machinery the paper's sections 3.4, 4.1, 5.3,
5.4, and 6 describe:

* autotune the request-coalescing window and parallelism for a model;
* show the Figure 5 TBE-consolidation scheduling gain;
* allocate models NUMA-aware across a 24-accelerator Grand Teton server;
* co-locate a full server of low-complexity models and watch host DRAM
  become the bottleneck without the paper's copy-elimination work;
* re-derive the rack power budget with the P90 methodology from a
  simulated production window.

Run:  python examples/serving_fleet.py
"""

from repro.arch import mtia2i_server
from repro.autotune import tune_coalescing
from repro.fleet import NumaAllocator
from repro.power import time_domain_provisioning
from repro.serving import (
    CoalescingConfig,
    ModelJobProfile,
    max_throughput_under_slo,
)


def main() -> None:
    profile = ModelJobProfile(
        remote_time_s=0.005,
        merge_time_s=0.009,
        remote_jobs_per_batch=2,
        dispatch_overhead_s=0.001,
        merge_submission_delay_s=0.0008,
    )

    print("1) coalescing autotuning (section 4.1)")
    tuning = tune_coalescing(
        profile, max_batch_samples=1024,
        windows_s=(0.005, 0.015, 0.025), parallel_windows=(2, 4),
    )
    best = tuning.best
    print(
        f"   best window {best.config.window_s * 1e3:.0f} ms x "
        f"{best.config.max_parallel_windows} parallel -> "
        f"{best.outcome.served_samples_per_s:,.0f} samples/s at P99 "
        f"{best.outcome.p99_latency_s * 1e3:.0f} ms "
        f"(fill {best.outcome.mean_fill_fraction:.0%})"
    )

    print("\n2) TBE consolidation (Figure 5)")
    coalescing = CoalescingConfig(
        window_s=0.025, max_parallel_windows=4, max_batch_samples=1024
    )
    separate = max_throughput_under_slo(profile, coalescing, duration_s=20.0, iterations=6)
    merged = max_throughput_under_slo(
        profile.consolidated(), coalescing, duration_s=20.0, iterations=6
    )
    print(
        f"   separate TBE jobs:     {separate.served_samples_per_s:,.0f} samples/s, "
        f"P99 {separate.p99_latency_s * 1e3:.0f} ms"
    )
    print(
        f"   consolidated TBE jobs: {merged.served_samples_per_s:,.0f} samples/s, "
        f"P99 {merged.p99_latency_s * 1e3:.0f} ms "
        f"(+{merged.served_samples_per_s / separate.served_samples_per_s - 1:.0%})"
    )

    print("\n3) NUMA-aware allocation (section 3.4)")
    server = mtia2i_server()
    allocator = NumaAllocator(server)
    for name, count in (("HC3", 2), ("HC3", 2), ("LC1", 1), ("LC5", 1), ("HC1", 2)):
        grant = allocator.allocate(name, count)
        print(
            f"   {name}: accelerators {grant.accelerator_ids} on socket "
            f"{grant.socket} with {grant.cores:.0f} cores"
        )
    print(f"   server utilization: {allocator.utilization():.0%}")

    print("\n4) host-DRAM contention under colocation (section 3.4)")
    from repro.arch import mtia2i_spec
    from repro.fleet import (
        ColocationRequest,
        HOST_DRAM_AMPLIFICATION_NAIVE,
        HOST_DRAM_AMPLIFICATION_OPTIMIZED,
        colocate,
    )
    from repro.models import lc1
    from repro.perf import Executor

    model = lc1()
    report = Executor(mtia2i_spec()).run(model.graph(), model.batch, warmup_runs=1)
    for label, amplification in (
        ("naive host copies", HOST_DRAM_AMPLIFICATION_NAIVE),
        ("copy-eliminated", HOST_DRAM_AMPLIFICATION_OPTIMIZED),
    ):
        result = colocate(
            mtia2i_server(),
            [ColocationRequest("LC1", report, instances=24)],
            amplification=amplification,
        )
        derate = result.placements[0].derate
        print(
            f"   24x LC1, {label}: host-bound sockets "
            f"{result.host_bound_sockets or 'none'}, per-instance throughput "
            f"retained {derate:.0%}"
        )

    print("\n5) power provisioning (section 5.3)")
    outcome = time_domain_provisioning()
    print(f"   initial stress-test budget: {outcome.initial_budget_w:,.0f} W/server")
    print(f"   P90 experiment budget:      {outcome.experiment_budget_w:,.0f} W/server")
    print(f"   P90 fleet budget:           {outcome.fleet_budget_w:,.0f} W/server")
    print(
        f"   revised budget {outcome.revised_budget_w:,.0f} W "
        f"(-{outcome.reduction_fraction:.0%}; paper: ~40%)"
    )


if __name__ == "__main__":
    main()
