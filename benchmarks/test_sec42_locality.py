"""Section 4.2: exploiting locality across the stack.

Paper claims measured here:

* sparse (embedding) accesses: caching keeps 40-60% in SRAM;
* dense networks: >95% of accesses served from SRAM;
* the DRAM-bound 512 x 26592 x 2048 GEMM (109 MB weights): the
  broadcast-read + prefetch algorithm improved latency 45% and reached
  >95% of DRAM bandwidth;
* sibling transpose-FC fusion: up to 15% model-level gain;
* delaying the in-batch broadcast: up to 2x footprint reduction.
"""

import dataclasses

from conftest import once

from repro.arch import mtia2i_spec
from repro.graph import OpGraph, fc, transpose
from repro.graph.passes import defer_broadcast, fuse_sibling_transpose_fc
from repro.kernels import GemmVariant, Stationarity
from repro.models.dlrm import build_dlrm, small_dlrm
from repro.perf import Executor
from repro.tensors import model_input, weight


def _hit_rates():
    """Sparse hit rate on a production-scale model (HC2's 96 GB of
    tables); dense hit rate on an SRAM-resident model — the paper's
    claims are for those respective regimes."""
    from repro.models import hc2

    big = hc2()
    sparse_report = Executor(mtia2i_spec()).run(big.graph(), big.batch, warmup_runs=1)
    dense_graph = build_dlrm(dataclasses.replace(small_dlrm(), batch=1024))
    dense_report = Executor(mtia2i_spec()).run(dense_graph, 1024, warmup_runs=2)
    return sparse_report, dense_report


def _big_gemm(variant):
    """The section 4.2 shape with activations already on chip (the paper
    pre-loads them into LLS); only the 109 MB weight streams from LPDDR."""
    from repro.graph import layernorm

    x = model_input(512, 26592, name="acts_in")
    graph = OpGraph(name="big_gemm")
    staged = graph.add(layernorm(x, name="stage_in"))  # producer -> LLS
    w = weight(26592, 2048, name="big_w")
    graph.add(fc(staged.output, w, name="fc_512x26592x2048"))
    chip = mtia2i_spec()
    report = Executor(chip, gemm_variant=variant).run(graph, 512, warmup_runs=0)
    profile = [p for p in report.op_profiles if p.op_name.startswith("fc")][0]
    dram_bw_utilization = (
        profile.dram_bytes / profile.time_s / chip.dram.bandwidth_bytes_per_s
    )
    return profile.time_s, dram_bw_utilization


def _sibling_fusion_gain():
    """A transposed output feeding four sibling FCs inside a model (the
    section 4.2 pattern): fusing keeps the transposed intermediate out of
    LLS/LLC."""
    from repro.graph import concat

    x = model_input(8192, 2048, name="x")
    graph = OpGraph(name="siblings")
    t = graph.add(transpose(x, name="t"))
    outs = []
    for i in range(4):
        op = graph.add(fc(t.output, weight(8192, 256, name=f"w{i}"), name=f"fc{i}"))
        outs.append(op.output)
    joined = graph.add(concat(outs, axis=1, name="join"))
    graph.add(fc(joined.output, weight(1024, 64, name="head_w"), name="head"))
    chip = mtia2i_spec()
    plain = Executor(chip).run(graph, 8192, warmup_runs=1)
    fused = Executor(chip).run(fuse_sibling_transpose_fc(graph), 8192, warmup_runs=1)
    return plain.latency_s / fused.latency_s - 1


def _broadcast_footprint():
    """A broadcast-dominated early merge network — the model class where
    delaying the user-side broadcast cut the footprint up to 2x."""
    from repro.graph import broadcast

    def build(deferred):
        users = model_input(128, 4096, name="users")
        graph = OpGraph(name="ibb_model")
        b = graph.add(broadcast(users, factor=8, name="ibb"))
        current = b.output
        for i in range(3):
            op = fc(current, weight(4096, 4096, name=f"uw{i}"), name=f"ufc{i}")
            op.attrs["user_side"] = True
            graph.add(op)
            current = op.output
        graph.add(fc(current, weight(4096, 64, name="head_w"), name="head"))
        if deferred:
            graph = defer_broadcast(graph)
        return graph

    return build(False).peak_activation_bytes(), build(True).peak_activation_bytes()


def _all():
    sparse_report, dense_report = _hit_rates()
    optimized = GemmVariant(
        stationarity=Stationarity.WEIGHT, broadcast_weights=True, prefetch=True
    )
    unoptimized = GemmVariant(
        stationarity=Stationarity.WEIGHT, broadcast_weights=False, prefetch=False,
        double_buffer=False,
    )
    fast_latency, fast_bw = _big_gemm(optimized)
    slow_latency, slow_bw = _big_gemm(unoptimized)
    fusion_gain = _sibling_fusion_gain()
    eager_bytes, deferred_bytes = _broadcast_footprint()
    return {
        "sparse_hit": sparse_report.sparse_hit_rate,
        "dense_hit": dense_report.dense_hit_rate,
        "gemm_improvement": slow_latency / fast_latency - 1,
        "gemm_bw": fast_bw,
        "fusion_gain": fusion_gain,
        "footprint_ratio": eager_bytes / deferred_bytes,
    }


def test_sec42_locality(benchmark, record):
    result = once(benchmark, _all)
    lines = [
        f"sparse SRAM hit rate: {result['sparse_hit']:.0%} (paper: 40-60%)",
        f"dense SRAM hit rate:  {result['dense_hit']:.0%} (paper: >95%)",
        f"512x26592x2048 GEMM: broadcast+prefetch improves latency "
        f"{result['gemm_improvement']:+.0%} (paper: +45%) and reaches "
        f"{result['gemm_bw']:.0%} of DRAM bandwidth (paper: >95%)",
        f"sibling transpose-FC fusion: {result['fusion_gain']:+.1%} "
        "(paper: up to 15%)",
        f"delayed broadcast footprint reduction: "
        f"{result['footprint_ratio']:.2f}x (paper: up to 2x)",
    ]
    assert 0.35 <= result["sparse_hit"] <= 0.75
    assert result["dense_hit"] > 0.95
    assert 0.25 <= result["gemm_improvement"] <= 0.8
    assert result["gemm_bw"] > 0.85
    assert 0.05 <= result["fusion_gain"] <= 0.30
    assert result["footprint_ratio"] > 1.5
    record("sec42_locality", "\n".join(lines))
