"""Table Batched Embedding (TBE) kernel model.

TBE gathers embedding rows by index from many tables and pools them
(sum, optionally weighted).  It is the sparse network of DLRM: irregular,
memory-latency sensitive, and — before MTIA 2i's indexed DMA_IN and
128-row SIMD accumulation — instruction-issue bound (paper section 3.3).

The gather's memory behaviour (how many rows hit in SRAM versus LPDDR)
is measured by the executor through the LLC simulation driven by a
synthetic index stream; this module supplies the engine-side costs and
the index-stream generator.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

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


@dataclasses.dataclass(frozen=True)
class EmbeddingAccessPattern:
    """A synthetic index distribution for one embedding table.

    Production embedding accesses are heavily skewed (hot entities
    dominate), which is why MTIA 2i keeps 40-60% of sparse accesses in
    SRAM despite tables far exceeding SRAM capacity (paper section 4.2).
    We model the skew with a Zipf distribution, the standard synthetic
    stand-in for recommendation traffic.
    """

    num_rows: int
    zipf_exponent: float = 1.05

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ValueError("table must have rows")
        if self.zipf_exponent <= 1.0:
            raise ValueError("zipf exponent must exceed 1 for a proper distribution")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` row indices, clamped into the table."""
        if count < 0:
            raise ValueError("count must be non-negative")
        raw = rng.zipf(self.zipf_exponent, size=count)
        return np.minimum(raw - 1, self.num_rows - 1).astype(np.int64)


def simulate_tbe_hit_rate(
    pattern: EmbeddingAccessPattern,
    row_bytes: int,
    cache,
    num_lookups: int,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Replay a synthetic index stream through an LLC instance and return
    the measured hit rate for embedding-row gathers."""
    rng = rng or np.random.default_rng(0)
    indices = pattern.sample(num_lookups, rng)
    before_hits, before_total = cache.stats.hits, cache.stats.accesses
    for index in indices:
        cache.access((-1, int(index)), write=False, size_bytes=row_bytes)
    hits = cache.stats.hits - before_hits
    total = cache.stats.accesses - before_total
    return hits / total if total else 0.0
