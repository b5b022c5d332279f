"""The autotuning orchestrator (paper section 4.1, 'Summary').

Runs the individual tuners in the order production uses: sharding (a
capacity constraint), batch size and data placement (they interact),
then FC kernel variants.  The result is everything needed to deploy a
model: shard count, batch, SRAM partition, and a kernel-variant table.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.arch.specs import ChipSpec
from repro.autotune.batch import BatchTuningResult, tune_batch_size
from repro.autotune.kernel_tuner import (
    PerformanceDatabase,
    TuningResult,
    ann_tune,
    exhaustive_tune,
)
from repro.autotune.placement import PlacementDecision, tune_placement
from repro.autotune.sharding import ShardPlan, plan_sharding
from repro.graph.graph import OpGraph
from repro.graph.ops import OpType
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
    kernel_database: Optional[PerformanceDatabase] = None,
    model_name: str = "model",
) -> AutotuneResult:
    """Full autotuning pass for one model.

    ``kernel_database`` enables the fast ANN path for FC tuning; without
    it every distinct shape is tuned exhaustively (and a database is
    built as a side effect for subsequent models).
    """
    probe_graph = build_graph(512)
    shard_plan = plan_sharding(probe_graph, chip)

    batch_result = tune_batch_size(build_graph, chip)
    placement = tune_placement(build_graph, batch_result.best.batch, chip)

    database = kernel_database if kernel_database is not None else PerformanceDatabase()
    final_graph = build_graph(placement.batch)
    variants: Dict[str, TuningResult] = {}
    seen_shapes: Dict[GemmShape, TuningResult] = {}
    for op in _iter_fc_ops(final_graph):
        shape = op.attrs["gemm"]
        if shape in seen_shapes:
            variants[op.name] = seen_shapes[shape]
            continue
        if len(database):
            result = ann_tune(shape, chip, database)
        else:
            result = exhaustive_tune(shape, chip)
            database.add(result)
        seen_shapes[shape] = result
        variants[op.name] = result
    return AutotuneResult(
        model_name=model_name,
        shard_plan=shard_plan,
        batch_result=batch_result,
        placement=placement,
        kernel_variants=variants,
    )
