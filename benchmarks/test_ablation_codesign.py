"""Ablation: what each co-design mechanism contributes.

Stacks the section 3.3/4.1/4.2 mechanisms one at a time on the same
model and measures the cumulative throughput, isolating:

1. advanced custom instructions (multi-context + auto-increment),
2. DMA prefetch + hardware broadcast reads,
3. LLS activation pinning (versus all-LLC placement),
4. graph passes (fusion + liveness scheduling),
5. the 1.1 -> 1.35 GHz overclock.

Also ablates the LLC replacement policy (random versus LRU) on a
weight-streaming model — the cyclic-thrash pathology that motivates
non-LRU replacement in large last-level caches.
"""

import dataclasses

from conftest import once

from repro.arch.mtia import mtia2i_spec
from repro.core import optimize_graph
from repro.kernels import GemmVariant, naive_variant
from repro.memory import SetAssociativeCache
from repro.models import hc1
from repro.perf import Executor
from repro.units import GHZ, KiB, MiB

_BATCH = 2048


def _model():
    # HC1: the compute-heavy, revenue-critical model class where kernel
    # quality matters most.
    return hc1().graph()


def _stack():
    design_clock = mtia2i_spec(frequency_hz=1.1 * GHZ)
    deployed = mtia2i_spec()
    stages = []

    def run(label, chip, variant, graph):
        report = Executor(chip, gemm_variant=variant).run(graph, _BATCH, warmup_runs=1)
        stages.append((label, report.throughput_samples_per_s))
        return report

    base_graph = _model()
    run("naive kernels @1.1GHz", design_clock, naive_variant(), base_graph)
    run("+ advanced instructions", design_clock,
        dataclasses.replace(naive_variant(), use_advanced_instructions=True),
        _model())
    run("+ prefetch & broadcast reads", design_clock, GemmVariant(), _model())
    run("+ graph passes", design_clock, GemmVariant(), optimize_graph(_model()))
    run("+ overclock 1.35GHz", deployed, GemmVariant(), optimize_graph(_model()))
    return stages


def _replacement_ablation():
    """Cyclic weight streaming through LRU versus random replacement."""
    rates = {}
    working_set_blocks = 6000  # ~384 MB of weight blocks
    for policy in ("lru", "random"):
        cache = SetAssociativeCache(
            capacity_bytes=192 * MiB, block_bytes=64 * KiB,
            associativity=16, replacement=policy,
        )
        # Integer keys: a str in the block id would make the set mapping
        # depend on the per-process hash salt.
        for _ in range(3):
            for block in range(working_set_blocks):
                cache.access((-1, block))
        cache.stats.reset()
        for block in range(working_set_blocks):
            cache.access((-1, block))
        rates[policy] = cache.stats.hit_rate
    return rates


def test_ablation_codesign(benchmark, record):
    stages, rates = once(benchmark, lambda: (_stack(), _replacement_ablation()))
    lines = ["cumulative co-design stack (per-chip samples/s):"]
    base = stages[0][1]
    for label, throughput in stages:
        lines.append(f"  {label:32} {throughput:12,.0f}  ({throughput / base:.2f}x)")
    lines.append(
        f"\nLLC replacement on a cyclic 384 MB weight stream: "
        f"LRU {rates['lru']:.0%} hit rate vs random {rates['random']:.0%}"
    )
    throughputs = [t for _, t in stages]
    # Each mechanism helps (or at worst holds); the stack is substantial.
    for before, after in zip(throughputs, throughputs[1:]):
        assert after >= before * 0.98
    assert throughputs[-1] > 1.5 * throughputs[0]
    # LRU collapses on cyclic streams; random replacement does not.
    assert rates["lru"] == 0.0
    assert rates["random"] > 0.0
    record("ablation_codesign", "\n".join(lines))
