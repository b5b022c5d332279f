"""The model-publish pipeline (paper section 5.6).

"During post-training processing, our automation pipeline applies
inference-optimized transformations, some accelerator-specific, to the
same trained model to ensure an apples-to-apples comparison, generating
runtime models suitable for serving on MTIA 2i and GPUs."

:func:`publish_model` is that pipeline as an API: from one model builder
it produces per-platform deployable artifacts — the optimized graph,
autotuned configuration, and execution report for MTIA 2i; the tuned
report for the GPU — plus the publish-time decisions the paper
describes: whether to quantize the large FC layers (section 4.4) and
whether the numerics pass the A/B quality gate before traffic shifts.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.arch.gpu import gpu_spec
from repro.core.codesign import CodesignResult, Mtia2iSystem
from repro.fleet.abtest import AbTestResult, SyntheticCtrModel, run_ab_test
from repro.graph.graph import OpGraph
from repro.perf.executor import ExecutionReport, Executor
from repro.quant.analysis import ModelQuantizationPlan, plan_model_quantization


@dataclasses.dataclass
class PublishedModel:
    """Everything the serving fleet needs to launch one model."""

    model_name: str
    mtia: CodesignResult
    gpu_report: ExecutionReport
    quantization: ModelQuantizationPlan
    quantization_adopted: bool
    ab_result: AbTestResult
    launch_approved: bool

    @property
    def mtia_throughput(self) -> float:
        """Per-chip MTIA throughput of the published configuration."""
        return self.mtia.report.throughput_samples_per_s


def publish_model(
    build_graph: Callable[[int], OpGraph],
    model_name: str = "model",
    quantization_threshold: float = 1.05,
    mtia_system: Optional[Mtia2iSystem] = None,
) -> PublishedModel:
    """Run the full publish pipeline for one model.

    Steps, in the paper's order: accelerator-specific co-design for MTIA
    (graph passes + autotuning at a 100 ms SLO), a GPU runtime build at
    the same batch, the quantization decision (adopt only if the
    end-to-end gain clears ``quantization_threshold`` — section 4.4's
    cost/benefit bar), and the A/B quality gate (100,000 requests)
    comparing the MTIA numerics path against the exact reference before
    any traffic shifts.
    """
    system = mtia_system or Mtia2iSystem()
    mtia = system.deploy(build_graph, model_name=model_name)
    gpu_report = Executor(gpu_spec()).run(
        build_graph(mtia.autotune.batch), mtia.autotune.batch
    )

    quant_plan = plan_model_quantization(mtia.optimized_graph, system.chip)
    adopt_quant = quant_plan.end_to_end_speedup >= quantization_threshold

    # The quality gate: the candidate backend runs FP16 numerics, plus
    # the quantization path when adopted.
    ctr = SyntheticCtrModel(num_features=64, seed=7)

    def candidate_numerics(logits: np.ndarray) -> np.ndarray:
        out = logits.astype(np.float16).astype(np.float64)
        if adopt_quant:
            from repro.quant.int8 import quantize_rowwise

            matrix = np.atleast_2d(out)
            out = quantize_rowwise(matrix).dequantize().astype(np.float64).reshape(
                out.shape
            )
        return out

    ab = run_ab_test(
        ctr,
        control=ctr.exact_backend(),
        treatment=ctr.backend_with(candidate_numerics),
        num_requests=100_000,
    )
    return PublishedModel(
        model_name=model_name,
        mtia=mtia,
        gpu_report=gpu_report,
        quantization=quant_plan,
        quantization_adopted=adopt_quant,
        ab_result=ab,
        launch_approved=ab.quality_parity(),
    )
