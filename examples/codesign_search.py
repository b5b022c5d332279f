"""Model-chip co-design search: propose the next chip, verify exactly.

A downstream-user walkthrough of repro.codesign: derive candidate
"MTIA 3" chips from the MTIA 2i spec along the co-design axes the paper
turned between generations, let seeded annealing chains explore the
grid against the serving SLO at surrogate fidelity, promote only the
Pareto-best survivors to exact device and serving evaluation, and read
the resulting Perf / Perf-per-TCO / Perf-per-Watt front — every
reported point exact-evaluated, with MTIA 1 and MTIA 2i as anchors.

Run:  python examples/codesign_search.py
"""

from repro.arch import mtia2i_spec
from repro.codesign import (
    DesignSpace,
    SearchConfig,
    derive_chip,
    front_table,
    proposal_summary,
    run_codesign_search,
)
from repro.codesign.search import CHAIN_WEIGHTS
from repro.models import figure6_models
from repro.units import GB, GHZ, GiB, MiB


def main() -> None:
    # 1) Derive one candidate by hand: the axes re-validate, and the
    #    area/power scaling model rebuilds the physicals so TCO and
    #    Perf-per-Watt never come from the base chip's figures.
    base = mtia2i_spec()
    candidate = derive_chip(
        base, num_pes=144, sram_capacity_bytes=512 * MiB, name="hand-pick"
    )
    print(f"{base.name}: {base.num_pes} PEs, {base.die_area_mm2:.0f} mm^2, "
          f"{base.typical_watts:.0f} W typical")
    print(f"{candidate.name}: {candidate.num_pes} PEs, "
          f"{candidate.die_area_mm2:.0f} mm^2, "
          f"{candidate.typical_watts:.0f} W typical")

    # 2) A small grid around the production point (the full search uses
    #    repro.codesign.default_space, ~16k points).
    space = DesignSpace(
        num_pes=(64, 100, 144),
        frequency_hz=(1.1 * GHZ, 1.35 * GHZ, 1.5 * GHZ),
        sram_capacity_bytes=(256 * MiB, 512 * MiB),
        dram_capacity_bytes=(64 * GiB, 128 * GiB),
        dram_bandwidth_bytes_per_s=(204.8 * GB, 307.2 * GB),
        gemm_to_simd=(16.0, 32.0),
        noc_scale=(1.0,),
    )
    models = [m for m in figure6_models() if m.name in ("LC1", "HC1")]
    config = SearchConfig(
        seed=0, iterations=24, device_rung_keep=6, serving_rung_keep=3,
        train_chips=6,
    )
    print(f"\nsearching {space.size()} grid points "
          f"({len(CHAIN_WEIGHTS)} chains x "
          f"{config.iterations} annealing steps)...")
    result = run_codesign_search(
        space, models, config, duration_s=3.0
    )

    # 3) The front: exact-evaluated points only, anchors for scale.
    print()
    print(front_table(result))
    print()
    print(proposal_summary(result))


if __name__ == "__main__":
    main()
