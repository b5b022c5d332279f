"""LLM prefill/decode feasibility model (paper sections 3.6 and 8).

MTIA 2i was designed before the LLM boom.  The paper evaluates Llama2-7B
(section 3.6) and Llama3-8B (section 8) and finds the same shape: the
compute-bound *prefill* phase meets the 600 ms time-to-first-token
requirement, but the memory-bound *decode* phase — which must stream the
entire weight set from LPDDR for every token — misses the 60 ms/token
latency target.  On HBM GPUs decode easily fits.

This is a first-principles transformer cost model: exact FLOP and byte
counts per phase from the architecture hyperparameters.
"""

from __future__ import annotations

import dataclasses

from repro.arch.specs import ChipSpec
from repro.tensors.dtypes import DType

# Serving requirements quoted in the paper.
TTFT_REQUIREMENT_S = 0.600
DECODE_REQUIREMENT_S = 0.060
# The prompt length both phases are judged at.
PROMPT_TOKENS = 2048


@dataclasses.dataclass(frozen=True)
class LlmConfig:
    """Transformer architecture hyperparameters."""

    name: str
    num_layers: int
    hidden_dim: int
    num_heads: int
    num_kv_heads: int
    ffn_dim: int
    vocab_size: int

    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden_dim // self.num_heads

    @property
    def num_params(self) -> int:
        """Approximate parameter count."""
        attn = self.num_layers * (
            self.hidden_dim * self.hidden_dim  # Q
            + 2 * self.hidden_dim * self.head_dim * self.num_kv_heads  # K, V
            + self.hidden_dim * self.hidden_dim  # O
        )
        ffn = self.num_layers * 3 * self.hidden_dim * self.ffn_dim  # gate/up/down
        embed = 2 * self.vocab_size * self.hidden_dim
        return attn + ffn + embed

    @property
    def weight_bytes(self) -> int:
        """Weight footprint at the FP16 serving dtype."""
        return self.num_params * DType.FP16.bytes

    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes appended per generated token."""
        return (
            2 * self.num_layers * self.num_kv_heads * self.head_dim * DType.FP16.bytes
        )


def llama2_7b() -> LlmConfig:
    """Llama2-7B (MHA, 32 layers)."""
    return LlmConfig(
        name="Llama2-7B",
        num_layers=32,
        hidden_dim=4096,
        num_heads=32,
        num_kv_heads=32,
        ffn_dim=11008,
        vocab_size=32000,
    )


def llama3_8b() -> LlmConfig:
    """Llama3-8B (GQA with 8 KV heads, larger vocab)."""
    return LlmConfig(
        name="Llama3-8B",
        num_layers=32,
        hidden_dim=4096,
        num_heads=32,
        num_kv_heads=8,
        ffn_dim=14336,
        vocab_size=128256,
    )


def llama3_70b() -> LlmConfig:
    """Llama3-70B — far beyond MTIA 2i's capability per the paper."""
    return LlmConfig(
        name="Llama3-70B",
        num_layers=80,
        hidden_dim=8192,
        num_heads=64,
        num_kv_heads=8,
        ffn_dim=28672,
        vocab_size=128256,
    )


@dataclasses.dataclass(frozen=True)
class LlmPhaseReport:
    """Latency breakdown of one inference phase."""

    phase: str
    compute_s: float
    weight_stream_s: float
    kv_stream_s: float

    @property
    def latency_s(self) -> float:
        """Phase latency: compute overlaps weight streaming; the slower
        path dominates, KV traffic adds to the memory path."""
        return max(self.compute_s, self.weight_stream_s + self.kv_stream_s)

    @property
    def memory_bound(self) -> bool:
        """Whether the memory path dominates."""
        return self.weight_stream_s + self.kv_stream_s > self.compute_s


def prefill_report(config: LlmConfig, chip: ChipSpec) -> LlmPhaseReport:
    """Prefill: process the whole ``PROMPT_TOKENS`` prompt in one pass
    (compute-bound, at 60% of sustained GEMM throughput)."""
    flops = 2.0 * config.num_params * PROMPT_TOKENS
    # Attention score/value FLOPs grow quadratically but stay minor at
    # these lengths; include them for honesty.
    attn_flops = (
        4.0 * config.num_layers * PROMPT_TOKENS * PROMPT_TOKENS * config.hidden_dim
    )
    peak = chip.peak_gemm_flops(DType.FP16) * chip.sustained_gemm_fraction
    compute = (flops + attn_flops) / (peak * 0.6)
    weight_stream = config.weight_bytes / chip.dram.bandwidth_bytes_per_s
    return LlmPhaseReport(
        phase="prefill",
        compute_s=compute,
        weight_stream_s=weight_stream,
        kv_stream_s=0.0,
    )


def decode_report(
    config: LlmConfig, chip: ChipSpec, context_tokens: int = PROMPT_TOKENS
) -> LlmPhaseReport:
    """Decode: one token per step at batch 1 — every weight byte streams
    from DRAM."""
    if context_tokens < 0:
        raise ValueError("invalid decode parameters")
    flops = 2.0 * config.num_params
    peak = chip.peak_gemm_flops(DType.FP16) * chip.sustained_gemm_fraction
    compute = flops / (peak * 0.3)  # tiny GEMMs run far from peak
    # SRAM can pin only a sliver of the weights; the rest streams from
    # DRAM each step.
    resident = min(chip.sram.capacity_bytes * 0.8, config.weight_bytes)
    streamed = config.weight_bytes - resident
    weight_stream = streamed / chip.dram.bandwidth_bytes_per_s
    kv_stream = (
        context_tokens * config.kv_bytes_per_token()
        / chip.dram.bandwidth_bytes_per_s
    )
    return LlmPhaseReport(
        phase="decode",
        compute_s=compute,
        weight_stream_s=weight_stream,
        kv_stream_s=kv_stream,
    )


@dataclasses.dataclass(frozen=True)
class LlmFeasibility:
    """The paper's verdict structure for one model on one chip."""

    model: str
    chip: str
    prefill_latency_s: float
    decode_latency_s: float
    prefill_meets_ttft: bool
    decode_meets_latency: bool

    @property
    def viable(self) -> bool:
        """Serving is viable only if both phases meet their targets."""
        return self.prefill_meets_ttft and self.decode_meets_latency


def evaluate_llm(config: LlmConfig, chip: ChipSpec) -> LlmFeasibility:
    """Evaluate both phases against the paper's latency requirements."""
    prefill = prefill_report(config, chip)
    decode = decode_report(config, chip)
    return LlmFeasibility(
        model=config.name,
        chip=chip.name,
        prefill_latency_s=prefill.latency_s,
        decode_latency_s=decode.latency_s,
        prefill_meets_ttft=prefill.latency_s <= TTFT_REQUIREMENT_S,
        decode_meets_latency=decode.latency_s <= DECODE_REQUIREMENT_S,
    )
