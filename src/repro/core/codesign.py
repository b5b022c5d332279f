"""The model-chip co-design loop as a single API (paper section 4).

:class:`Mtia2iSystem` is the library's front door: give it a model
builder and it runs the production pipeline — graph optimization passes,
autotuning (sharding, batch, placement, kernels), execution, and the
cross-platform comparison — returning one deployable, measured result.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.arch.gpu import gpu_spec
from repro.arch.mtia import mtia2i_spec
from repro.autotune.kernel_tuner import PerformanceDatabase
from repro.autotune.tuner import AutotuneResult, autotune_model
from repro.graph.graph import OpGraph
from repro.graph.passes.broadcast import defer_broadcast
from repro.graph.passes.fusion import (
    batch_layernorms,
    fuse_sibling_transpose_fc,
    fuse_vertical,
)
from repro.graph.passes.scheduling import minimize_liveness
from repro.perf.executor import ExecutionReport, Executor


def optimize_graph(graph: OpGraph) -> OpGraph:
    """The standard co-design pass pipeline (section 4.2/6 order):
    broadcast deferral, sibling transpose-FC fusion, vertical fusion,
    LayerNorm batching, then liveness-minimizing scheduling."""
    graph = defer_broadcast(graph)
    graph = fuse_sibling_transpose_fc(graph)
    graph = fuse_vertical(graph)
    graph = batch_layernorms(graph)
    graph = minimize_liveness(graph)
    return graph


@dataclasses.dataclass
class CodesignResult:
    """Everything the co-design loop produced for one model."""

    model_name: str
    optimized_graph: OpGraph
    autotune: AutotuneResult
    report: ExecutionReport

    @property
    def throughput(self) -> float:
        """Tuned per-chip throughput, samples/s."""
        return self.report.throughput_samples_per_s


class Mtia2iSystem:
    """Facade over the whole performance model for one chip.

    >>> system = Mtia2iSystem()
    >>> result = system.deploy(lambda b: build_dlrm(some_config_at(b)))
    """

    def __init__(self) -> None:
        self.chip = mtia2i_spec()
        self.kernel_database = PerformanceDatabase()

    def deploy(
        self,
        build_graph: Callable[[int], OpGraph],
        model_name: str = "model",
    ) -> CodesignResult:
        """Run the full co-design pipeline (graph passes, then autotuning
        at a 100 ms latency SLO) for one model."""
        def builder(batch: int) -> OpGraph:
            return optimize_graph(build_graph(batch))

        tune = autotune_model(
            builder,
            self.chip,
            kernel_database=self.kernel_database,
            model_name=model_name,
        )
        graph = builder(tune.batch)
        variant_table = {
            name: result.variant for name, result in tune.kernel_variants.items()
        }
        executor = Executor(
            self.chip,
            variant_selector=lambda op: variant_table.get(op.name),
        )
        report = executor.run(graph, tune.batch)
        return CodesignResult(
            model_name=model_name,
            optimized_graph=graph,
            autotune=tune,
            report=report,
        )

    def baseline_gpu_report(
        self, build_graph: Callable[[int], OpGraph], batch: int
    ) -> ExecutionReport:
        """Run the same model on the GPU baseline for comparison."""
        return Executor(gpu_spec()).run(build_graph(batch), batch)
