"""The autotuning orchestrator (paper section 4.1, 'Summary').

Runs the individual tuners in the order production uses: sharding (a
capacity constraint), batch size and data placement (they interact),
then FC kernel variants.  The result is everything needed to deploy a
model: shard count, batch, SRAM partition, and a kernel-variant table.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Optional

from repro.arch.specs import ChipSpec
from repro.obs.metrics import MetricsRegistry, active
from repro.autotune.batch import BatchTuningResult, tune_batch_size
from repro.autotune.kernel_tuner import (
    PerformanceDatabase,
    TuningResult,
    ann_tune,
    exhaustive_tune,
    surrogate_tune,
)
from repro.fastsim.memo import KernelLatencyMemo
from repro.autotune.placement import PlacementDecision, tune_placement
from repro.autotune.sharding import ShardPlan, plan_sharding
from repro.graph.graph import OpGraph
from repro.graph.ops import OpType
from repro.kernels.gemm import GemmVariant
from repro.tensors.tensor import GemmShape


@dataclasses.dataclass
class AutotuneResult:
    """A deployable configuration for one model on one chip."""

    model_name: str
    shard_plan: ShardPlan
    batch_result: BatchTuningResult
    placement: PlacementDecision
    kernel_variants: Dict[str, TuningResult]  # FC op name -> variant

    @property
    def batch(self) -> int:
        """The tuned batch size."""
        return self.placement.batch

    def variant_for(self, op_name: str) -> Optional[GemmVariant]:
        """The tuned kernel variant for an FC op, if any."""
        result = self.kernel_variants.get(op_name)
        return result.variant if result else None


def _iter_fc_ops(graph: OpGraph):
    """Yield every FC op, including those inside fused kernels."""
    for op in graph.ops:
        if op.op_type is OpType.FC:
            yield op
        elif op.op_type is OpType.FUSED:
            for sub in op.attrs.get("sub_ops", []):
                if sub.op_type is OpType.FC:
                    yield sub


def autotune_model(
    build_graph: Callable[[int], OpGraph],
    chip: ChipSpec,
    latency_slo_s: float = 0.100,
    kernel_database: Optional[PerformanceDatabase] = None,
    model_name: str = "model",
    registry: Optional[MetricsRegistry] = None,
    surrogate=None,
    surrogate_top_k: int = 16,
) -> AutotuneResult:
    """Full autotuning pass for one model.

    ``kernel_database`` enables the fast ANN path for FC tuning; without
    it every distinct shape is tuned exhaustively (and a database is
    built as a side effect for subsequent models).

    A fitted :class:`~repro.surrogate.model.GemmSurrogate` as
    ``surrogate`` replaces both kernel search paths with verified
    surrogate tuning: the surrogate ranks the variant catalog, the exact
    cost model re-measures the predicted top ``surrogate_top_k``, and
    every deployed variant's ``kernel_time_s`` is an exact evaluation.
    ``surrogate=None`` (the default) is the exact path.

    An attached registry records the pass's shape: kernel measurements
    spent (exhaustive vs ANN vs verified-surrogate), FC ops covered,
    and per-stage wall time (``autotune.tuner.*``).
    """
    obs = active(registry)
    started = time.perf_counter() if obs.enabled else 0.0
    probe_graph = build_graph(512)
    shard_plan = plan_sharding(probe_graph, chip)

    batch_result = tune_batch_size(build_graph, chip, latency_slo_s=latency_slo_s)
    placement = tune_placement(build_graph, batch_result.best.batch, chip)
    if obs.enabled:
        obs.histogram("autotune.tuner.stage_s").observe(
            time.perf_counter() - started
        )
        started = time.perf_counter()

    database = kernel_database if kernel_database is not None else PerformanceDatabase()
    memo = KernelLatencyMemo(chip)  # one latency table per tuning pass
    final_graph = build_graph(placement.batch)
    variants: Dict[str, TuningResult] = {}
    seen_shapes: Dict[GemmShape, TuningResult] = {}
    fc_ops = obs.counter("autotune.tuner.fc_ops_tuned")
    measurements = obs.counter("autotune.tuner.kernel_measurements")
    ann_hits = obs.counter("autotune.tuner.ann_lookups")
    for op in _iter_fc_ops(final_graph):
        fc_ops.inc()
        shape = op.attrs["gemm"]
        if shape in seen_shapes:
            variants[op.name] = seen_shapes[shape]
            continue
        if surrogate is not None:
            result = surrogate_tune(
                shape, chip, surrogate, top_k=surrogate_top_k,
                memo=memo, registry=registry,
            )
            database.add(result)
        elif len(database):
            result = ann_tune(shape, chip, database, memo=memo)
            ann_hits.inc()
        else:
            result = exhaustive_tune(shape, chip, memo=memo)
            database.add(result)
        measurements.inc(result.evaluations)
        seen_shapes[shape] = result
        variants[op.name] = result
    if obs.enabled:
        obs.histogram("autotune.tuner.stage_s").observe(
            time.perf_counter() - started
        )
    return AutotuneResult(
        model_name=model_name,
        shard_plan=shard_plan,
        batch_result=batch_result,
        placement=placement,
        kernel_variants=variants,
    )
