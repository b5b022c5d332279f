"""Quantization performance/quality trade-off analysis (paper section 4.4).

The paper's findings this module reproduces:

* the DPE runs 2x faster in INT8 than FP16, but quantize/dequantize
  overhead on the FC path cuts the net speedup to ~1.6x for large
  compute-bound shapes (2048 x 2048 x 2048);
* only a few large layers gain from quantization, so end-to-end model
  improvements are often marginal (a few percent) unless
  quality-sensitive layers are quantized too (>5%);
* quantizing only the largest FC layers amortizes the overhead best.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.graph.ops import Op, OpType
from repro.kernels.gemm import GemmVariant, estimate_gemm
from repro.kernels.layout import estimate_quantize
from repro.tensors.dtypes import DType
from repro.tensors.tensor import GemmShape


@dataclasses.dataclass(frozen=True)
class FcQuantizationReport:
    """INT8-vs-FP16 outcome for one FC shape."""

    shape: GemmShape
    fp16_time_s: float
    int8_matmul_time_s: float
    quant_overhead_s: float
    dequant_overhead_s: float

    @property
    def int8_total_time_s(self) -> float:
        """INT8 path including dynamic (de)quantization."""
        return self.int8_matmul_time_s + self.quant_overhead_s + self.dequant_overhead_s

    @property
    def raw_speedup(self) -> float:
        """DPE-only speedup (the hardware 2x)."""
        return self.fp16_time_s / self.int8_matmul_time_s

    @property
    def net_speedup(self) -> float:
        """End-to-end FC speedup after overheads (the paper's ~1.6x)."""
        return self.fp16_time_s / self.int8_total_time_s

    @property
    def worthwhile(self) -> bool:
        """Whether quantizing this layer gains at all."""
        return self.net_speedup > 1.05


def fc_quantization_report(shape: GemmShape, chip: ChipSpec) -> FcQuantizationReport:
    """Cost out the dynamic-INT8 path for one FC (default GEMM variant)."""
    variant = GemmVariant()
    fp16 = estimate_gemm(shape, chip, DType.FP16, variant)
    int8 = estimate_gemm(shape, chip, DType.INT8, variant)
    # Dynamic activation quantization: rescale M x K elements row-wise
    # (min/max comes free from the RE); dequantize the M x N output.
    quant = estimate_quantize(shape.m * shape.k, shape.m, chip)
    dequant = estimate_quantize(shape.m * shape.n, shape.m, chip)
    return FcQuantizationReport(
        shape=shape,
        fp16_time_s=fp16.engine_time_s,
        int8_matmul_time_s=int8.engine_time_s,
        quant_overhead_s=quant.engine_time_s,
        dequant_overhead_s=dequant.engine_time_s,
    )


@dataclasses.dataclass(frozen=True)
class ModelQuantizationPlan:
    """Which FCs to quantize in a model and the expected e2e gain."""

    quantized_layers: List[str]
    total_fc_time_s: float
    saved_time_s: float
    model_time_s: float

    @property
    def end_to_end_speedup(self) -> float:
        """Whole-model speedup from the selected layers."""
        remaining = self.model_time_s - self.saved_time_s
        return self.model_time_s / remaining if remaining > 0 else float("inf")


def plan_model_quantization(
    graph: OpGraph,
    chip: ChipSpec,
    quality_sensitive: Optional[List[str]] = None,
) -> ModelQuantizationPlan:
    """Select the FC layers worth quantizing (largest-first policy): each
    needs at least a 1.2x net layer speedup.

    ``quality_sensitive`` layers (typically those closest to the model's
    input and output, per the paper) are excluded regardless of their
    speedup.
    """
    quality_sensitive = set(quality_sensitive or [])
    model_time = 0.0
    fc_time = 0.0
    saved = 0.0
    chosen: List[str] = []

    def fc_candidates(op: Op):
        """FC ops reachable from a schedule entry, incl. fused sub-ops."""
        if op.op_type is OpType.FC:
            yield op
        elif op.op_type is OpType.FUSED:
            for sub in op.attrs.get("sub_ops", []):
                if sub.op_type is OpType.FC:
                    yield sub

    for op in graph.ops:
        from repro.kernels.registry import estimate_op

        model_time += estimate_op(op, chip).engine_time_s
        for fc_op in fc_candidates(op):
            est = estimate_op(fc_op, chip)
            fc_time += est.engine_time_s
            if fc_op.name in quality_sensitive:
                continue
            report = fc_quantization_report(fc_op.attrs["gemm"], chip)
            if report.net_speedup >= 1.2:
                chosen.append(fc_op.name)
                saved += est.engine_time_s - est.engine_time_s / report.net_speedup
    return ModelQuantizationPlan(
        quantized_layers=chosen,
        total_fc_time_s=fc_time,
        saved_time_s=saved,
        model_time_s=model_time,
    )
