"""MTIA 1 and MTIA 2i chip specifications (paper Table 2).

Every headline number comes straight from Table 2.  Where the paper gives
only a ratio (e.g. "3.3x the NoC bandwidth"), the absolute value is
anchored to the published SRAM bandwidth it feeds.  Where the paper gives
a range (LPDDR capacity "64-128 GB"), we use the configuration deployed in
the Grand Teton servers (128 GB for MTIA 2i, 64 GB for MTIA 1).
"""

from __future__ import annotations

from repro.arch.specs import (
    ChipSpec,
    EagerLaunchSpec,
    GemmEngineSpec,
    IssueSpec,
    MemoryLevelSpec,
    VectorEngineSpec,
)
from repro.tensors.dtypes import DType
from repro.units import GB, GHZ, GiB, KiB, MHZ, MiB, TB, TFLOPS, US

# Section 5.1: memory-controller ECC costs 10-15% of throughput.  We model
# it as a 15% derate of LPDDR bandwidth, which produces a 10-15% end-to-end
# penalty for bandwidth-bound models and less for SRAM-resident ones.
_CONTROLLER_ECC_PENALTY = 0.15


def mtia2i_spec(
    frequency_hz: float = 1.35 * GHZ,
    ecc_enabled: bool = True,
) -> ChipSpec:
    """The MTIA 2i chip as deployed (overclocked to 1.35 GHz, ECC on).

    Pass ``frequency_hz=1.1e9`` for the pre-overclock design point and
    ``ecc_enabled=False`` for the no-ECC configuration evaluated in
    section 5.1.  All paper-reported numbers include the ECC penalty.
    """
    design_frequency = 1.1 * GHZ
    # Table 2 rates the chip at its deployed 1.35 GHz operating point;
    # scale engine throughput linearly when a different clock is asked for.
    scale = frequency_hz / (1.35 * GHZ)
    spec = ChipSpec(
        name="MTIA 2i",
        process_node="TSMC 5nm",
        frequency_hz=frequency_hz,
        design_frequency_hz=design_frequency,
        gemm=GemmEngineSpec(
            peak_flops={
                DType.INT8: 354 * TFLOPS * scale,
                DType.FP16: 177 * TFLOPS * scale,
                DType.BF16: 177 * TFLOPS * scale,
            },
            sparsity_speedup=2.0,  # 2:4 structured sparsity
        ),
        vector=VectorEngineSpec(
            # SIMD Engine row of Table 2: 5.5 TOPS at INT8/FP16/BF16/FP32.
            # The RISC-V vector core adds 5.5/2.8/1.4; the executor models
            # it separately via IssueSpec, so the engine spec carries the
            # SIMD Engine numbers.
            peak_flops={
                DType.INT8: 5.5 * TFLOPS * scale,
                DType.FP16: 5.5 * TFLOPS * scale,
                DType.BF16: 5.5 * TFLOPS * scale,
                DType.FP32: 5.5 * TFLOPS * scale,
            }
        ),
        local_memory=MemoryLevelSpec(
            name="local_memory",
            capacity_bytes=384 * KiB,  # per PE
            bandwidth_bytes_per_s=1 * TB * scale,  # per PE
            access_latency_s=20e-9,
        ),
        sram=MemoryLevelSpec(
            name="sram",
            capacity_bytes=256 * MiB,
            bandwidth_bytes_per_s=2.7 * TB * scale,
            access_latency_s=100e-9,
        ),
        dram=MemoryLevelSpec(
            name="lpddr5",
            capacity_bytes=128 * GiB,
            bandwidth_bytes_per_s=204.8 * GB,
            access_latency_s=150e-9,
        ),
        host_link=MemoryLevelSpec(
            name="pcie_gen5_x8",
            capacity_bytes=1,  # a link has no capacity; placeholder
            bandwidth_bytes_per_s=32 * GB,
            access_latency_s=1e-6,
        ),
        noc_bandwidth_bytes_per_s=2.64 * TB * scale,  # 3.3x MTIA 1
        num_pes=64,
        issue=IssueSpec(
            instructions_per_s=135e6 * scale,  # ~10 scalar cycles / custom instr
            multi_context_amortization=8.0,  # multi-context + auto-increment
            simd_accumulate_rows=128,
            indexed_dma=True,
            unaligned_access=True,
        ),
        eager=EagerLaunchSpec(
            job_launch_s=0.9 * US,
            job_replace_s=0.45 * US,
            broadcast_work_queues=True,
        ),
        tdp_watts=85.0,
        typical_watts=65.0,
        idle_power_fraction=0.35,
        # 5 nm leakage roughly doubles every 50 °C; Table 2's power
        # figures are taken at a 60 °C junction.
        leakage_ref_temp_c=60.0,
        leakage_temp_coeff_per_c=0.014,
        die_area_mm2=25.6 * 16.4,
        overlap_factor=0.93,
        dram_has_native_ecc=False,
        controller_ecc_penalty=_CONTROLLER_ECC_PENALTY,
    )
    return spec.with_ecc_enabled() if ecc_enabled else spec


def mtia1_spec() -> ChipSpec:
    """The first-generation MTIA 1 chip (ISCA '23), per Table 2."""
    return ChipSpec(
        name="MTIA 1",
        process_node="TSMC 7nm",
        frequency_hz=800 * MHZ,
        design_frequency_hz=800 * MHZ,
        gemm=GemmEngineSpec(
            peak_flops={
                DType.INT8: 102.4 * TFLOPS,
                DType.FP16: 51.2 * TFLOPS,
            },
            sparsity_speedup=1.0,  # no sparsity support
        ),
        vector=VectorEngineSpec(
            peak_flops={
                DType.INT8: 3.2 * TFLOPS,
                DType.FP16: 1.6 * TFLOPS,
                DType.FP32: 0.8 * TFLOPS,
            }
        ),
        local_memory=MemoryLevelSpec(
            name="local_memory",
            capacity_bytes=128 * KiB,
            bandwidth_bytes_per_s=0.4 * TB,
            access_latency_s=25e-9,
        ),
        sram=MemoryLevelSpec(
            name="sram",
            capacity_bytes=128 * MiB,
            bandwidth_bytes_per_s=0.8 * TB,
            access_latency_s=120e-9,
        ),
        dram=MemoryLevelSpec(
            name="lpddr5",
            capacity_bytes=64 * GiB,
            bandwidth_bytes_per_s=176 * GB,
            access_latency_s=150e-9,
        ),
        host_link=MemoryLevelSpec(
            name="pcie_gen4_x8",
            capacity_bytes=1,
            bandwidth_bytes_per_s=16 * GB,
            access_latency_s=1.2e-6,
        ),
        noc_bandwidth_bytes_per_s=0.8 * TB,
        num_pes=64,
        issue=IssueSpec(
            instructions_per_s=80e6,
            multi_context_amortization=1.0,
            simd_accumulate_rows=32,
            indexed_dma=False,
            unaligned_access=False,
        ),
        eager=EagerLaunchSpec(
            # Section 3.3: MTIA 2i reduces launch time by as much as 80%.
            job_launch_s=4.5 * US,
            job_replace_s=2.5 * US,
            broadcast_work_queues=False,
        ),
        tdp_watts=35.0,
        typical_watts=25.0,
        idle_power_fraction=0.35,
        leakage_ref_temp_c=60.0,
        leakage_temp_coeff_per_c=0.013,  # 7 nm leaks a little less steeply
        die_area_mm2=19.3 * 19.1,
        overlap_factor=0.88,
        dram_has_native_ecc=False,
        controller_ecc_penalty=_CONTROLLER_ECC_PENALTY,
    )
