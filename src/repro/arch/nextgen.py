"""A projected next-generation MTIA (paper sections 8-9).

The paper closes with the plan: "For future generations of MTIA, we plan
to increase their peak FLOPS to handle more complex models", alongside
the belief that MTIA 2i itself has headroom to at least 2 GFLOPS/sample.
This module projects a next-generation part using the same scaling
discipline the MTIA 1 -> 2i step followed (roughly 3x compute, 2-3x
on-chip memory bandwidth/capacity, modest off-chip gains from the next
LPDDR generation), so extension studies can ask which of the paper's
limits move.

This is an extrapolation for what-if analysis, not a disclosed product.
"""

from __future__ import annotations

import dataclasses

from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import ChipSpec, GemmEngineSpec, MemoryLevelSpec, VectorEngineSpec
from repro.units import GB, GiB, MiB


def mtia_nextgen_spec(compute_scale: float = 3.0) -> ChipSpec:
    """Project a next-generation MTIA from the 2i baseline.

    Scaling mirrors the published MTIA 1 -> 2i deltas: compute and
    on-chip bandwidth scale together (``compute_scale``), SRAM capacity
    doubles to 512 MiB, DRAM doubles to 256 GiB, and the off-chip link
    takes the next memory generation's bandwidth (360 GB/s, LPDDR5X/6
    class) rather than HBM (the cost thesis is kept), at a 130 W TDP.
    """
    tdp_watts = 130.0
    base = mtia2i_spec(ecc_enabled=False)
    gemm = GemmEngineSpec(
        peak_flops={d: f * compute_scale for d, f in base.gemm.peak_flops.items()},
        sparsity_speedup=base.gemm.sparsity_speedup,
    )
    vector = VectorEngineSpec(
        peak_flops={d: f * compute_scale for d, f in base.vector.peak_flops.items()}
    )
    sram = MemoryLevelSpec(
        name="sram",
        capacity_bytes=512 * MiB,
        bandwidth_bytes_per_s=base.sram.bandwidth_bytes_per_s * compute_scale,
        access_latency_s=base.sram.access_latency_s,
    )
    dram = MemoryLevelSpec(
        name="lpddr_next",
        capacity_bytes=256 * GiB,
        bandwidth_bytes_per_s=360 * GB,
        access_latency_s=base.dram.access_latency_s,
    )
    local = dataclasses.replace(
        base.local_memory,
        capacity_bytes=base.local_memory.capacity_bytes * 2,
        bandwidth_bytes_per_s=base.local_memory.bandwidth_bytes_per_s * 2,
    )
    issue = dataclasses.replace(
        base.issue, instructions_per_s=base.issue.instructions_per_s * 2
    )
    spec = dataclasses.replace(
        base,
        name="MTIA next-gen (projected)",
        gemm=gemm,
        vector=vector,
        sram=sram,
        dram=dram,
        local_memory=local,
        issue=issue,
        noc_bandwidth_bytes_per_s=base.noc_bandwidth_bytes_per_s * compute_scale,
        tdp_watts=tdp_watts,
        typical_watts=tdp_watts * 0.75,
    )
    return spec.with_ecc_enabled()
