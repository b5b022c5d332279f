"""Chip specification dataclasses.

These describe an accelerator at the granularity the performance model
needs: compute throughput per engine and dtype, the memory hierarchy's
capacities and bandwidths, the NoC, host link, and physical/electrical
parameters.  Concrete instances (MTIA 1, MTIA 2i, the GPU baseline) live
in :mod:`repro.arch.mtia` and :mod:`repro.arch.gpu`, with every number
sourced from Table 2 of the paper or public datasheets.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

from repro.tensors.dtypes import DType


@dataclasses.dataclass(frozen=True)
class MemoryLevelSpec:
    """One level of the memory hierarchy."""

    name: str
    capacity_bytes: int
    bandwidth_bytes_per_s: float
    # Latency to first byte for a demand access, in seconds.
    access_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.access_latency_s < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")

    def transfer_time(self, num_bytes: float) -> float:
        """Time to stream ``num_bytes`` at full bandwidth, plus latency."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.access_latency_s + num_bytes / self.bandwidth_bytes_per_s


@dataclasses.dataclass(frozen=True)
class GemmEngineSpec:
    """The matrix engine (MTIA's Dot Product Engine; tensor cores on GPU)."""

    # Peak dense FLOP/s by input dtype, chip-wide.
    peak_flops: Dict[DType, float]
    # Multiplier when 2:4 structured weight sparsity is exploited.
    sparsity_speedup: float = 1.0

    def peak(self, dtype: DType, sparse: bool = False) -> float:
        """Peak FLOP/s for a dtype, optionally with 2:4 sparsity."""
        if dtype not in self.peak_flops:
            raise ValueError(f"GEMM engine does not support {dtype}")
        base = self.peak_flops[dtype]
        return base * self.sparsity_speedup if sparse else base


@dataclasses.dataclass(frozen=True)
class VectorEngineSpec:
    """Vector/SIMD compute (MTIA's SIMD Engine and RISC-V vector core)."""

    peak_flops: Dict[DType, float]

    def peak(self, dtype: DType) -> float:
        """Peak FLOP/s for a dtype."""
        if dtype not in self.peak_flops:
            raise ValueError(f"vector engine does not support {dtype}")
        return self.peak_flops[dtype]


@dataclasses.dataclass(frozen=True)
class IssueSpec:
    """Custom-instruction issue model for the per-PE scalar cores.

    Section 3.3 of the paper describes how the RISC-V scalar cores'
    instruction issue rate bottlenecked small GEMMs until multi-context
    custom instructions and auto-increment offsets were added.
    """

    # Custom instructions issued per second per PE.
    instructions_per_s: float
    # With multi-context + auto-increment, one instruction covers this many
    # basic commands (amortization factor for tight GEMM loops).
    multi_context_amortization: float = 1.0
    # Max embedding rows accumulated per SIMD instruction (32 on MTIA 1,
    # 128 on MTIA 2i per section 3.3).
    simd_accumulate_rows: int = 32
    # Whether DMA_IN supports indexed addressing (TBE gather without
    # per-row address computation on the scalar core).
    indexed_dma: bool = False
    # Whether unaligned addresses are handled in hardware.
    unaligned_access: bool = False

    def __post_init__(self) -> None:
        if self.instructions_per_s <= 0:
            raise ValueError("issue rate must be positive")
        if self.multi_context_amortization < 1.0:
            raise ValueError("amortization factor cannot be below 1")
        if self.simd_accumulate_rows <= 0:
            raise ValueError("accumulate rows must be positive")


@dataclasses.dataclass(frozen=True)
class EagerLaunchSpec:
    """Job-launch path characteristics (section 3.3, fast eager mode)."""

    # Time to launch a job onto the PE grid.
    job_launch_s: float
    # Time to replace a running job with the next one.
    job_replace_s: float
    # Whether the Control Core broadcasts work-queue descriptors and PEs
    # have a Work Queue Engine to DMA them (MTIA 2i) versus host-mediated
    # launches (MTIA 1).
    broadcast_work_queues: bool = False


@dataclasses.dataclass(frozen=True)
class ChipSpec:
    """Everything the performance model knows about one accelerator."""

    name: str
    process_node: str
    frequency_hz: float
    # Design frequency before any overclocking (section 5.2).
    design_frequency_hz: float
    gemm: GemmEngineSpec
    vector: VectorEngineSpec
    local_memory: MemoryLevelSpec  # per-PE
    sram: MemoryLevelSpec  # shared on-chip SRAM
    dram: MemoryLevelSpec  # off-chip (LPDDR on MTIA, HBM on GPU)
    host_link: MemoryLevelSpec  # PCIe
    noc_bandwidth_bytes_per_s: float
    num_pes: int
    issue: IssueSpec
    eager: EagerLaunchSpec
    tdp_watts: float
    typical_watts: float
    # Fraction of TDP drawn when idle.
    idle_power_fraction: float = 0.3
    # Junction temperature at which the idle/leakage calibration above
    # holds (the conditions behind Table 2's power figures), and the
    # exponential slope of leakage with junction temperature.  The
    # default slope of zero keeps leakage temperature-independent, which
    # preserves every energy number computed before repro.power existed;
    # the concrete MTIA/GPU specs override it.
    leakage_ref_temp_c: float = 60.0
    leakage_temp_coeff_per_c: float = 0.0
    # SRAM partition granularity for the LLC/LLS split (section 4.1).
    sram_partition_bytes: int = 32 * 1024 * 1024
    die_area_mm2: float = 0.0
    # Fraction of peak GEMM throughput sustainable in practice after
    # effects the tile-utilization model does not capture (scheduling,
    # wave quantization on GPUs).  MTIA's efficiency emerges from its
    # explicit tile/issue model, so it stays at 1.0; the GPU baseline
    # uses the well-known ~0.7 sustained fraction.
    sustained_gemm_fraction: float = 1.0
    # How well compute overlaps with memory traffic within a kernel:
    # op time = max(components) + (1 - overlap) * (sum - max).  MTIA's
    # fixed-function units form a coarse-grained dataflow pipeline fed by
    # hardware-prefetched DMA (sections 3.2/3.3), so overlap is high; a
    # GPU kernel typically exposes more of its memory time.
    overlap_factor: float = 0.9
    dram_has_native_ecc: bool = True
    # Throughput penalty when ECC must be computed by the memory
    # controller (section 5.1: 10-15% for LPDDR without native ECC).
    controller_ecc_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0 or self.design_frequency_hz <= 0:
            raise ValueError("frequencies must be positive")
        if self.num_pes <= 0:
            raise ValueError("num_pes must be positive")
        if not (0 <= self.controller_ecc_penalty < 1):
            raise ValueError("ECC penalty must be a fraction in [0, 1)")
        if self.tdp_watts <= 0 or self.typical_watts <= 0:
            raise ValueError("power figures must be positive")
        # Derivation invariants: ``repro.codesign.space.derive_chip``
        # builds candidate chips through this constructor, so degenerate
        # axis values must fail here rather than produce NaN rooflines.
        if self.noc_bandwidth_bytes_per_s <= 0:
            raise ValueError("NoC bandwidth must be positive")
        if self.die_area_mm2 < 0:
            raise ValueError("die area cannot be negative")
        if self.sram_partition_bytes <= 0:
            raise ValueError("SRAM partition granularity must be positive")
        if not (0 <= self.idle_power_fraction <= 1):
            raise ValueError("idle power fraction must be in [0, 1]")
        if not (0 < self.sustained_gemm_fraction <= 1):
            raise ValueError("sustained GEMM fraction must be in (0, 1]")
        if not (0 <= self.overlap_factor <= 1):
            raise ValueError("overlap factor must be in [0, 1]")

    def leakage_power_w(self, temperature_c: Optional[float] = None) -> float:
        """Static (leakage + always-on) power at a junction temperature.

        At the reference temperature — or when no temperature is given —
        this is exactly the historical ``typical_watts *
        idle_power_fraction`` idle draw, so energy models that do not
        track temperature are unchanged.  Away from it, leakage follows
        the usual exponential: a coefficient of 0.014/°C doubles leakage
        every ~50 °C.
        """
        idle = self.typical_watts * self.idle_power_fraction
        if temperature_c is None or self.leakage_temp_coeff_per_c == 0.0:
            return idle
        return idle * math.exp(
            self.leakage_temp_coeff_per_c
            * (temperature_c - self.leakage_ref_temp_c)
        )

    def peak_gemm_flops(self, dtype: DType, sparse: bool = False) -> float:
        """Chip-wide peak GEMM FLOP/s."""
        return self.gemm.peak(dtype, sparse=sparse)

    def peak_vector_flops(self, dtype: DType) -> float:
        """Chip-wide peak vector FLOP/s."""
        return self.vector.peak(dtype)

    def gemm_to_simd_ratio(self, gemm_dtype: DType = DType.FP16) -> float:
        """GEMM-to-SIMD throughput ratio (section 3.2: 32:1 on MTIA 2i)."""
        return self.gemm.peak(gemm_dtype) / self.vector.peak(DType.FP32)

    def with_ecc_enabled(self) -> "ChipSpec":
        """This chip with controller-based ECC on: DRAM bandwidth is derated
        by the ECC penalty (section 5.1)."""
        if self.dram_has_native_ecc or self.controller_ecc_penalty == 0:
            return self
        derated = dataclasses.replace(
            self.dram,
            bandwidth_bytes_per_s=self.dram.bandwidth_bytes_per_s
            * (1 - self.controller_ecc_penalty),
        )
        return dataclasses.replace(self, dram=derated)


def spec_ratio(new: ChipSpec, old: ChipSpec) -> Dict[str, float]:
    """Generation-over-generation improvement ratios, GEMM FLOPS at INT8
    (Table 2 narrative:
    MTIA 2i delivers >3x FLOPS, >3x SRAM bandwidth, >3x NoC bandwidth,
    2x DRAM capacity, ~1.4x DRAM bandwidth over MTIA 1)."""
    return {
        "gemm_flops": new.peak_gemm_flops(DType.INT8) / old.peak_gemm_flops(DType.INT8),
        "sram_bandwidth": new.sram.bandwidth_bytes_per_s / old.sram.bandwidth_bytes_per_s,
        "sram_capacity": new.sram.capacity_bytes / old.sram.capacity_bytes,
        "noc_bandwidth": new.noc_bandwidth_bytes_per_s / old.noc_bandwidth_bytes_per_s,
        "dram_capacity": new.dram.capacity_bytes / old.dram.capacity_bytes,
        "dram_bandwidth": new.dram.bandwidth_bytes_per_s / old.dram.bandwidth_bytes_per_s,
        "local_memory_capacity": new.local_memory.capacity_bytes
        / old.local_memory.capacity_bytes,
        "local_memory_bandwidth": new.local_memory.bandwidth_bytes_per_s
        / old.local_memory.bandwidth_bytes_per_s,
        "frequency": new.frequency_hz / old.frequency_hz,
        "host_link_bandwidth": new.host_link.bandwidth_bytes_per_s
        / old.host_link.bandwidth_bytes_per_s,
    }
