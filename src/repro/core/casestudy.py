"""The section 6 case study: porting a top-5 ranking model to MTIA 2i.

Reproduces Figure 4's journey — Perf/TCO starting near 50% of the GPU
baseline and ending around 1.8x — as a sequence of concrete, mechanical
stages, each exercising the optimization it names:

1. initial port: the 140 MFLOPS/sample model, out-of-the-box kernels
   (no broadcast reads, no prefetch, no multi-context instructions), an
   untuned batch, the pre-overclock 1.1 GHz clock;
2. batch/placement autotuning (section 4.1);
3. kernel tuning plus graph fusions (parallel-FC+transpose fusion,
   LayerNorm batching);
4. overclocking to 1.35 GHz (section 5.2);
5. model evolution to 940 MFLOPS/sample with MHA blocks — complexity
   grows 6.7x while optimizations carry over;
6. the *rejected* model change (tripling remote embedding inputs, which
   blows the activation buffer out of SRAM) versus the SRAM-friendly
   alternative (two extra DHEN layers) that was shipped;
7. deferred In-Batch Broadcast (+17% throughput);
8. TBE consolidation (the Figure 5 scheduling gain).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.arch.gpu import gpu_spec
from repro.arch.mtia import mtia2i_spec
from repro.arch.server import gpu_server, mtia2i_server
from repro.core.evaluation import (
    MTIA_POWER_FACTOR,
    MTIA_SERVING_EFFICIENCY,
)
from repro.fleet.server_sim import production_gain
from repro.graph.graph import OpGraph
from repro.graph.ops import broadcast, elementwise, fc, layernorm
from repro.graph.passes.broadcast import defer_broadcast
from repro.graph.passes.fusion import batch_layernorms, fuse_vertical
from repro.kernels.gemm import GemmVariant, naive_variant
from repro.models.dhen import DhenConfig, build_dhen
from repro.models.dlrm import EmbeddingBagConfig
from repro.perf.executor import Executor
from repro.serving.batcher import CoalescingConfig
from repro.serving.scheduler import ModelJobProfile
from repro.serving.simulator import max_throughput_under_slo
from repro.tco.model import compare_platforms
from repro.units import GHZ, GiB


def _case_embeddings(total_gib: float, scale: float = 1.0) -> EmbeddingBagConfig:
    total_bytes = int(total_gib * scale * GiB)
    num_tables = int(96 * scale)
    rows = max(1, total_bytes // (num_tables * 128 * 2))
    return EmbeddingBagConfig(
        num_tables=num_tables, rows_per_table=rows, embed_dim=128, pooling_factor=15.0
    )


# Ads ranked per user request: the In-Batch Broadcast expansion factor.
CANDIDATES_PER_USER = 8


@dataclasses.dataclass(frozen=True)
class CaseStudyModelConfig:
    """Knobs of the evolving case-study model."""

    batch: int = 512
    remote_input_scale: float = 1.0  # the rejected change sets 3.0
    early_stage_version: bool = False  # the 140 MF/sample starting point


def build_case_study_model(
    config: CaseStudyModelConfig, deferred_ibb: bool = False
) -> OpGraph:
    """Build the case-study model with an explicit In-Batch Broadcast
    prologue on the user-side inputs.

    With ``deferred_ibb`` the broadcast-deferral pass runs, shrinking the
    user-side FCs to per-user rows (section 6's 17% win).
    """
    if config.early_stage_version:
        dhen = DhenConfig(
            name="case_study_140mf",
            batch=config.batch,
            hidden_dim=2048,
            num_layers=8,
            num_dense_features=1024,
            embeddings=(_case_embeddings(40.0),),
            fm_features=32,
            mha_heads=0,
        )
    else:
        dhen = DhenConfig(
            name="case_study_940mf",
            batch=config.batch,
            hidden_dim=4096,
            num_layers=12,
            num_dense_features=1024,
            embeddings=(_case_embeddings(90.0, config.remote_input_scale),),
            fm_features=32,
            mha_heads=8,
        )
    graph = build_dhen(dhen)
    # Prepend the user-side network with In-Batch Broadcast: per-user
    # inputs are expanded to user-ad pairs before the merge network.
    from repro.tensors.tensor import model_input, weight

    users = max(1, config.batch // CANDIDATES_PER_USER)
    prologue = OpGraph(name=graph.name)
    user_in = model_input(users, 1024, name="user_features")
    bcast = prologue.add(broadcast(user_in, CANDIDATES_PER_USER, name="ibb"))
    current = bcast.output
    # The early merge network processes only user-side inputs: a couple
    # of projection FCs plus the user-history sequence encoder, whose
    # jagged-tensor math runs on the vector engines (section 4.3) and
    # scales with the number of *rows* — so broadcasting first repeats
    # identical per-user work for every candidate.  Deferring the
    # broadcast is what bought 17% (section 6).
    for layer, out_dim in enumerate((1024, 1024)):
        w = weight(current.shape[1], out_dim, name=f"user_w{layer}")
        op = fc(current, w, name=f"user_fc{layer}")
        op.attrs["user_side"] = True
        prologue.add(op)
        current = op.output
    for stage_index in range(3):
        op = elementwise(
            [current],
            function="user_history_encode",
            ops_per_element=4200.0,
            name=f"user_seq_encode{stage_index}",
        )
        op.attrs["user_side"] = True
        prologue.add(op)
        current = op.output
    ln = layernorm(current, name="user_norm")
    ln.attrs["user_side"] = True
    prologue.add(ln)
    # Splice: the prologue's output joins the main graph's ops.
    combined = OpGraph(name=graph.name)
    for op in prologue.ops:
        combined.add(op)
    for op in graph.ops:
        combined.add(op)
    if deferred_ibb:
        combined = defer_broadcast(combined)
    return combined


@dataclasses.dataclass(frozen=True)
class CaseStudyStage:
    """One point on the Figure 4 trajectory.

    Figure 4 plots several lines, one per model variant; ``variant``
    names the line a stage belongs to (the model evolved from the
    140 MF/sample variant to the launched 940 MF/sample one).
    """

    label: str
    month: int
    perf_per_tco: float
    perf_per_watt: float
    mtia_throughput: float
    gpu_throughput: float
    variant: str = "940MF"
    notes: str = ""


def _evaluate_stage(
    label: str,
    month: int,
    graph: OpGraph,
    batch: int,
    gpu_graph: OpGraph,
    gpu_batch: int,
    mtia_chip,
    gemm_variant: Optional[GemmVariant],
    serving_gain: float = 1.0,
    variant: str = "940MF",
    notes: str = "",
) -> CaseStudyStage:
    gpu_chip = gpu_spec()
    mtia_rep = Executor(mtia_chip, gemm_variant=gemm_variant).run(graph, batch)
    gpu_rep = Executor(gpu_chip).run(gpu_graph, gpu_batch)
    mtia_tp = (
        mtia_rep.throughput_samples_per_s * MTIA_SERVING_EFFICIENCY * serving_gain
    )
    gpu_tp = gpu_rep.throughput_samples_per_s
    mtia_power = min(mtia_rep.avg_power_w * MTIA_POWER_FACTOR, mtia_chip.tdp_watts)
    comparison = compare_platforms(
        model_name=label,
        mtia_chip_throughput=mtia_tp,
        gpu_chip_throughput=gpu_tp,
        mtia_chip_power_w=mtia_power,
        gpu_chip_power_w=gpu_rep.avg_power_w,
        mtia_srv=mtia2i_server(),
        gpu_srv=gpu_server(),
        mtia_accelerators_per_model=2,
        gpu_accelerators_per_model=2,
    )
    gain = production_gain(mtia_tp, gpu_tp, mean_load=2.0 * gpu_tp)
    return CaseStudyStage(
        label=label,
        month=month,
        perf_per_tco=comparison.perf_per_tco_ratio * gain,
        perf_per_watt=comparison.perf_per_watt_ratio * gain,
        mtia_throughput=mtia_tp,
        gpu_throughput=gpu_tp,
        variant=variant,
        notes=notes,
    )


def consolidation_serving_gain() -> float:
    """Measured SLO-throughput ratio of consolidated versus separate TBE
    jobs (the Figure 5 effect), from the serving simulator."""
    profile = ModelJobProfile(
        remote_time_s=0.005,
        merge_time_s=0.009,
        remote_jobs_per_batch=2,
        dispatch_overhead_s=0.001,
        merge_submission_delay_s=0.0008,
    )
    coalescing = CoalescingConfig(
        window_s=0.025, max_parallel_windows=4, max_batch_samples=1024
    )
    separate = max_throughput_under_slo(profile, coalescing, iterations=6, duration_s=20.0)
    merged = max_throughput_under_slo(
        profile.consolidated(), coalescing, iterations=6, duration_s=20.0
    )
    if separate.served_samples_per_s <= 0:
        return 1.0
    return merged.served_samples_per_s / separate.served_samples_per_s


def run_case_study(include_rejected_change: bool = True) -> List[CaseStudyStage]:
    """The full Figure 4 trajectory."""
    stages: List[CaseStudyStage] = []
    design_clock = mtia2i_spec(frequency_hz=1.1 * GHZ)
    deployed = mtia2i_spec()

    early = CaseStudyModelConfig(batch=256, early_stage_version=True)
    early_graph = build_case_study_model(early)
    gpu_early = build_case_study_model(
        CaseStudyModelConfig(batch=1024, early_stage_version=True)
    )
    stages.append(
        _evaluate_stage(
            "initial port", 0, early_graph, 256, gpu_early, 1024,
            design_clock, naive_variant(), variant="140MF",
            notes="out-of-the-box kernels, untuned batch, 1.1 GHz",
        )
    )

    early_512 = build_case_study_model(CaseStudyModelConfig(batch=512, early_stage_version=True))
    stages.append(
        _evaluate_stage(
            "batch + placement autotuning", 1, early_512, 512, gpu_early, 1024,
            design_clock, naive_variant(), variant="140MF",
            notes="section 4.1 autotuners pick batch 512, LLS-resident activations",
        )
    )

    fused_early = batch_layernorms(fuse_vertical(early_512))
    stages.append(
        _evaluate_stage(
            "kernel tuning + fusions", 2, fused_early, 512, gpu_early, 1024,
            design_clock, GemmVariant(), variant="140MF",
            notes="tuned FC variants, vertical fusion, batched LayerNorms",
        )
    )

    stages.append(
        _evaluate_stage(
            "overclock to 1.35 GHz", 3, fused_early, 512, gpu_early, 1024,
            deployed, GemmVariant(), variant="140MF",
            notes="section 5.2 frequency increase",
        )
    )

    final_config = CaseStudyModelConfig(batch=512)
    final_graph = build_case_study_model(final_config)
    gpu_final = build_case_study_model(CaseStudyModelConfig(batch=1024))
    fused_final = batch_layernorms(fuse_vertical(final_graph))
    stages.append(
        _evaluate_stage(
            "model evolves to 940 MF/sample", 5, fused_final, 512, gpu_final, 1024,
            deployed, GemmVariant(),
            notes="complexity grows 6.7x; MHA blocks added; sharded across 2 devices",
        )
    )

    if include_rejected_change:
        rejected = build_case_study_model(
            CaseStudyModelConfig(batch=512, remote_input_scale=3.0)
        )
        gpu_rejected = build_case_study_model(
            CaseStudyModelConfig(batch=1024, remote_input_scale=3.0)
        )
        stages.append(
            _evaluate_stage(
                "rejected: 3x remote inputs", 6,
                batch_layernorms(fuse_vertical(rejected)), 512,
                gpu_rejected, 1024, deployed, GemmVariant(),
                notes="activation buffer spills SRAM; change rejected, "
                "two extra DHEN layers adopted instead",
            )
        )

    deferred = batch_layernorms(fuse_vertical(build_case_study_model(final_config, deferred_ibb=True)))
    stages.append(
        _evaluate_stage(
            "deferred In-Batch Broadcast", 7, deferred, 512, gpu_final, 1024,
            deployed, GemmVariant(),
            notes="user-side ops run on per-user rows (+17% in the paper)",
        )
    )

    gain = consolidation_serving_gain()
    stages.append(
        _evaluate_stage(
            "TBE consolidation (launch)", 8, deferred, 512, gpu_final, 1024,
            deployed, GemmVariant(), serving_gain=gain,
            notes=f"Figure 5 scheduling gain x{gain:.2f}; production launch",
        )
    )
    return stages
