"""Table Batched Embedding (TBE) kernel model.

TBE gathers embedding rows by index from many tables and pools them
(sum, optionally weighted).  It is the sparse network of DLRM: irregular,
memory-latency sensitive, and — before MTIA 2i's indexed DMA_IN and
128-row SIMD accumulation — instruction-issue bound (paper section 3.3).

The gather's memory behaviour (how many rows hit in SRAM versus LPDDR)
is measured by the executor through the LLC simulation driven by a
synthetic index stream; this module supplies the engine-side costs.
"""

from __future__ import annotations

import math

from repro.arch.specs import ChipSpec
from repro.kernels.base import KernelEstimate
from repro.pe.riscv import tbe_issue
from repro.tensors.dtypes import DType


def estimate_tbe(
    total_rows: int,
    embed_dim: int,
    chip: ChipSpec,
    dtype: DType = DType.FP16,
    weighted: bool = False,
    use_advanced_instructions: bool = True,
) -> KernelEstimate:
    """Engine-side estimate for a TBE op distributed over all PEs."""
    if total_rows < 0 or embed_dim <= 0:
        raise ValueError("rows must be >= 0 and dim positive")
    rows_per_pe = max(1, math.ceil(total_rows / chip.num_pes))
    issue = tbe_issue(rows_per_pe, chip.issue, use_advanced_instructions)
    # Accumulation on the SIMD Engine: one add per gathered element,
    # doubled for weighted pooling (multiply then add).
    elements_per_pe = rows_per_pe * embed_dim
    ops_per_element = 2.0 if weighted else 1.0
    simd_rate = chip.peak_vector_flops(dtype) / chip.num_pes
    compute_s = elements_per_pe * ops_per_element / simd_rate
    # Rows stage through Local Memory once.
    lm_time = elements_per_pe * dtype.bytes / chip.local_memory.bandwidth_bytes_per_s
    return KernelEstimate(
        compute_s=compute_s,
        issue_s=issue.issue_time_s,
        local_memory_s=lm_time,
        engine="simd",
        prefetch=chip.issue.indexed_dma,
    )
