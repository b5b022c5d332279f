"""Roofline analysis utilities.

The roofline model bounds attainable throughput by
``min(peak_flops, arithmetic_intensity * bandwidth)``.  MTIA 2i's
unconventional memory hierarchy gives it *two* memory rooflines — a high
SRAM roof (2.7 TB/s) and a low LPDDR roof (204.8 GB/s, a 13x gap) — which
is the quantitative heart of section 3.6: models whose working sets fit
in SRAM ride the high roof; ones that spill fall off a cliff.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.arch.specs import ChipSpec
from repro.tensors.dtypes import DType


@dataclasses.dataclass(frozen=True)
class RooflinePoint:
    """One workload placed on the roofline."""

    name: str
    arithmetic_intensity: float  # FLOPs per byte
    attainable_flops: float
    bound: str  # "compute" | "sram" | "dram"


def attainable(
    intensity_flops_per_byte: float,
    peak_flops: float,
    bandwidth_bytes_per_s: float,
) -> float:
    """Classic roofline: min(peak, intensity * bandwidth)."""
    if intensity_flops_per_byte < 0:
        raise ValueError("intensity must be non-negative")
    return min(peak_flops, intensity_flops_per_byte * bandwidth_bytes_per_s)


def dual_roofline(
    chip: ChipSpec,
    intensity_flops_per_byte: float,
    sram_resident_fraction: float,
    dtype: DType = DType.FP16,
) -> RooflinePoint:
    """Attainable FLOPS when a fraction of traffic is served from SRAM.

    ``sram_resident_fraction`` is the byte fraction hitting SRAM; the
    rest streams from DRAM.  The effective bandwidth is the harmonic
    combination (both transfers happen for the same FLOPs).
    """
    if not (0.0 <= sram_resident_fraction <= 1.0):
        raise ValueError("fraction must be in [0, 1]")
    peak = chip.peak_gemm_flops(dtype)
    sram_bw = chip.sram.bandwidth_bytes_per_s
    dram_bw = chip.dram.bandwidth_bytes_per_s
    miss = 1.0 - sram_resident_fraction
    effective_bw = 1.0 / (sram_resident_fraction / sram_bw + miss / dram_bw) if miss or sram_resident_fraction else dram_bw
    flops = attainable(intensity_flops_per_byte, peak, effective_bw)
    if flops >= peak * 0.999:
        bound = "compute"
    elif miss * effective_bw / dram_bw > sram_resident_fraction * effective_bw / sram_bw:
        bound = "dram"
    else:
        bound = "sram"
    return RooflinePoint(
        name=chip.name,
        arithmetic_intensity=intensity_flops_per_byte,
        attainable_flops=flops,
        bound=bound,
    )


def sweep(chip: ChipSpec, intensities: List[float]) -> List[RooflinePoint]:
    """FP16 roofline points, fully SRAM-resident, across a range of
    intensities."""
    return [dual_roofline(chip, ai, 1.0, DType.FP16) for ai in intensities]
