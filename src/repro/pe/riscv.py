"""RISC-V core custom-instruction issue model (paper section 3.3).

On MTIA, the per-PE scalar cores generate custom instructions that the
Command Processor dispatches to the fixed-function units.  When the
instruction stream cannot keep the engines fed, the kernel becomes
*issue-bound* — the out-of-the-box problem MTIA 2i hit with its 3x faster
engines.  The fixes the paper describes, all modelled here:

* **multi-context instructions** avoid re-writing custom registers
  between GEMM tiles;
* **auto-increment offsets** let matrix-multiply instructions issue in a
  tight loop;
* **indexed DMA_IN** computes embedding-row addresses in hardware;
* **128-row SIMD accumulation** (up from 32) cuts the instructions needed
  for embedding pooling by 4x.
"""

from __future__ import annotations

import dataclasses
import math

from repro.arch.specs import IssueSpec
from repro.tensors.dtypes import DType
from repro.tensors.tensor import GemmShape


@dataclasses.dataclass(frozen=True)
class IssueEstimate:
    """Instruction count and issue time for one kernel invocation."""

    instructions: float
    issue_time_s: float


def gemm_issue(
    shape: GemmShape,
    issue: IssueSpec,
    dtype: DType,
    tile_m: int = 32,
    tile_n: int = 32,
    tile_k_bytes: int = 32,
    use_advanced_instructions: bool = True,
) -> IssueEstimate:
    """Instructions to drive a GEMM through the DPE on one PE.

    One custom instruction launches one (tile_m x tile_k x tile_n) tile
    pass; without multi-context/auto-increment each pass also needs
    register setup instructions (modelled by the amortization factor).
    """
    k_elements = max(1, tile_k_bytes // dtype.bytes)
    tiles = (
        math.ceil(shape.m / tile_m)
        * math.ceil(shape.k / k_elements)
        * math.ceil(shape.n / tile_n)
    )
    amortization = issue.multi_context_amortization if use_advanced_instructions else 1.0
    instructions = tiles / amortization + tiles * (0.0 if use_advanced_instructions else 3.0)
    return IssueEstimate(
        instructions=instructions,
        issue_time_s=instructions / issue.instructions_per_s,
    )


def tbe_issue(
    total_rows: int,
    issue: IssueSpec,
    use_advanced_instructions: bool = True,
) -> IssueEstimate:
    """Instructions to drive a Table Batched Embedding lookup on one PE.

    Each embedding row needs a DMA read and participates in a SIMD
    accumulation.  Indexed DMA_IN turns per-row address computation (an
    extra ~4 scalar instructions) into a single instruction; wide
    accumulation divides the SIMD instruction count by the supported row
    count (128 on MTIA 2i vs 32 on MTIA 1).
    """
    if total_rows < 0:
        raise ValueError("row count must be non-negative")
    indexed = issue.indexed_dma and use_advanced_instructions
    dma_instructions = total_rows * (1.0 if indexed else 5.0)
    accumulate_rows = issue.simd_accumulate_rows if use_advanced_instructions else 32
    simd_instructions = math.ceil(total_rows / accumulate_rows)
    # Unaligned rows need split transfers when hardware cannot handle them.
    if not issue.unaligned_access:
        dma_instructions *= 1.3
    instructions = dma_instructions + simd_instructions
    return IssueEstimate(
        instructions=instructions,
        issue_time_s=instructions / issue.instructions_per_s,
    )


@dataclasses.dataclass(frozen=True)
class RiscvVectorConfig:
    """The RISC-V vector extension: 64-byte vector registers.

    Offers lower throughput than the SIMD Engine but full ISA generality —
    the escape hatch the paper used for jagged-tensor operators where
    data-level parallelism is limited (section 4.3).
    """

    frequency_hz: float = 1.35e9

    def elements_per_s(self, dtype: DType) -> float:
        """Vector elements per second on one PE's vector core.

        A 64-byte vector: Table 2's RISC-V vector core at 1.4 TOPS FP32
        chip-wide => ~16 FP32 lanes per PE at 1.35 GHz.
        """
        lanes = 64 // dtype.bytes
        return lanes * self.frequency_hz
