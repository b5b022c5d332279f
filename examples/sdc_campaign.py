"""Silent-data-corruption, end to end: inject, detect, measure, mitigate.

Bit flips are injected into the real numeric path of a quantized CTR
serving pipeline — LPDDR words behind the (72, 64) SEC-DED codec, INT8
weight values, a stuck activation lane, the GEMM accumulator, FP16
embedding rows — and each protection profile's detectors (ECC, ABFT
checksums, range guards, row hashing, periodic fleet screening) run
their actual computations over the corrupted bytes.  Survivors are
scored by the normalized-entropy damage they do on fixed traffic, and
the measured undetected rates and detection latencies are folded into
the PR-1 resilience simulator's SDC fault family.

Run:  python examples/sdc_campaign.py
"""

from repro.sdc import (
    CampaignConfig,
    run_campaign,
    sdc_fault_rates,
    triple_flip_escape_rate,
)
from repro.sdc.campaign import NE_THRESHOLD


def main() -> None:
    config = CampaignConfig(trials=300, requests=6000, seed=0)
    print(f"injecting {config.trials} faults x {config.requests} requests "
          "(one shared seeded fault list, every profile faces it)...\n")
    result = run_campaign(config)

    print(f"clean quantized-path NE: {result.clean_ne:.4f}  "
          f"(|dNE| > {NE_THRESHOLD:g} counts as quality-impacting)")
    print("fault mix:", ", ".join(
        f"{site.value}={count}" for site, count in result.site_counts.items()
    ))
    print(f"SEC-DED triple-flip silent-escape rate: "
          f"{triple_flip_escape_rate(samples=400, seed=0):.0%} "
          "(odd-weight errors alias to single-bit syndromes)\n")

    print(result.table())

    print("\nwho caught what:")
    for summary in result.profiles:
        if summary.detector_counts:
            caught = ", ".join(f"{name}={count}" for name, count in
                               sorted(summary.detector_counts.items()))
            print(f"  {summary.profile.name:<10} {caught}")

    ratio = result.undetected_impacting_ratio()
    print(f"\nECC + ABFT leave {ratio:.0f}x fewer undetected NE-impacting "
          "corruptions than no protection.")

    for name in ("none", "full"):
        rates = sdc_fault_rates(result.summary_for(name))
        print(f"resilience linkage [{name:>4}]: "
              f"sdc {rates.sdc_per_device_hour:.2e}/device-hour, "
              f"expected blast window {rates.sdc_blast_window_s:,.1f} s")


if __name__ == "__main__":
    main()
