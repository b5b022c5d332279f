"""Sections 5.1/5.2/5.6 closed loop: the SDC injection campaign.

Paper: §5.1 adopts inline ECC after a three-pronged risk assessment,
§5.2 ships a 1.35 GHz overclock whose margin tail is the silent-
corruption population, and §5.6 gates launches on normalized entropy.
Measured here: bit-level faults injected across five sites of the real
quantized serving path, versus the protection ladder none → ECC →
ECC+ABFT → full — coverage, silent NE-impacting residue, detection
latency, and throughput overhead, plus the derived fault parameters the
section 5.5 resilience simulator consumes.
"""

from conftest import once

from repro.sdc import (
    CampaignConfig,
    run_campaign,
    sdc_fault_rates,
    triple_flip_escape_rate,
)
from repro.sdc.campaign import NE_THRESHOLD


def _measure():
    config = CampaignConfig(trials=400, requests=8000, seed=0)
    result = run_campaign(config)
    return config, result


def test_sec5_sdc_campaign(benchmark, record, record_json):
    config, result = once(benchmark, _measure)
    escape = triple_flip_escape_rate(samples=400, seed=0)
    lines = [
        f"{config.trials} injections x {config.requests} requests, "
        f"clean NE {result.clean_ne:.4f}, "
        f"impact threshold |dNE| > {NE_THRESHOLD:g}",
        "fault mix: " + ", ".join(
            f"{site.value}={count}"
            for site, count in result.site_counts.items()
        ),
        f"SEC-DED triple-flip silent escape: {escape:.0%}",
        "",
        result.table(),
        "",
    ]
    for summary in result.profiles:
        rates = sdc_fault_rates(summary)
        lines.append(
            f"{summary.profile.name:<10} -> resilience sdc family: "
            f"{rates.sdc_per_device_hour:.2e}/device-hour, "
            f"blast window {rates.sdc_blast_window_s:,.1f} s"
        )
    ratio = result.undetected_impacting_ratio()
    lines.append(
        f"undetected NE-impacting, none vs ecc+abft: {ratio:.0f}x fewer"
    )

    assert escape > 0.9
    assert ratio >= 10
    assert result.summary_for("full").undetected_ne_impacting == 0
    coverages = [s.coverage for s in result.profiles]
    assert coverages == sorted(coverages)
    record("sec5_sdc_campaign", "\n".join(lines))
    ecc_abft = result.summary_for("ecc+abft")
    record_json("sec5_sdc_campaign", {
        "clean_ne": result.clean_ne,
        "undetected_impacting_ratio": ratio,
        "triple_flip_escape_rate": escape,
        "full_coverage": result.summary_for("full").coverage,
        "ecc_abft_coverage": ecc_abft.coverage,
        "ecc_abft_undetected_ne_impacting": float(
            ecc_abft.undetected_ne_impacting
        ),
    })
