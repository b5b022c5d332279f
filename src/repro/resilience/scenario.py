"""The section 5.5 arc, end to end: deadlocks accumulate, the SLO trips,
an emergency firmware rollout patches the fleet, goodput recovers.

The drill runs the *same seeded fault schedule* twice:

* **baseline** — no mitigation at all: wedged devices silently eat
  their share of traffic, goodput degrades monotonically, and the
  ``slo_at_risk`` signal from :mod:`repro.serving.faults` eventually
  trips with nobody listening;
* **mitigated** — the serving tier retries/hedges/sheds (goodput holds
  while latency and retry amplification absorb the damage), and when
  the SLO trips, :func:`repro.reliability.firmware.emergency_rollout`
  patches the fleet wave-by-wave under its restart-concurrency limit,
  power-cycling wedged devices along the way.

Deliberately absent from the mitigated run is an automated drain: the
paper's deadlock takes the device off PCIe silently, and clearing it
needs a coordinated power-cycle — exactly what the firmware rollout
provides.

Because both runs share a seed, their pre-sampled fault schedules are
identical, so the comparison isolates policy effects — and two drills
with the same seed produce identical event logs, which is the
determinism contract the acceptance tests check.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.resilience.faults import FaultRates, fault_rates_from_reliability
from repro.resilience.metrics import ResilienceReport
from repro.resilience.simulator import (
    BASE_P99_S,
    DEVICE_THROUGHPUT,
    ResilienceConfig,
    run_resilience,
)


@dataclasses.dataclass(frozen=True)
class DrillResult:
    """Both arms of the drill plus the shared inputs."""

    config: ResilienceConfig
    rates: FaultRates
    baseline: ResilienceReport
    mitigated: ResilienceReport

    @property
    def recovered(self) -> bool:
        """Whether the mitigated arm ended >= 99% of baseline goodput."""
        return self.mitigated.recovered(0.99)

    def summary(self) -> str:
        """A printable digest of the arc (used by the drill example)."""
        config, base, mit = self.config, self.baseline, self.mitigated
        days = config.duration_s / 86_400.0
        lines = [
            f"section 5.5 drill: {config.devices} devices at "
            f"{config.baseline_utilization:.0%} utilization, "
            f"{days:.0f} simulated days, seed {config.seed}",
            f"  deadlock rate: "
            f"{self.rates.deadlock_per_device_hour * 24:.2%}/device-day "
            f"(paper: ~0.1%/day on susceptible models)",
            "",
            "  baseline (no mitigation):",
            f"    goodput: 100% -> {base.final_goodput_fraction:.1%} "
            f"(min {base.min_goodput_fraction:.1%}), monotonically degrading",
            _trip_line(base, days),
            f"    unavailability: {base.unavailability_device_minutes:,.0f} "
            f"device-minutes",
            "",
            "  mitigated (retry + hedge + shed + emergency rollout):",
            f"    goodput: min {mit.min_goodput_fraction:.1%}, "
            f"final {mit.final_goodput_fraction:.1%} "
            f"({'recovered' if self.recovered else 'NOT recovered'} "
            f">= 99% of baseline)",
            f"    peak retry amplification: "
            f"{mit.peak_retry_amplification:.2f} attempts/request",
            f"    peak P99 with retries: {max(mit.p99_series) * 1e3:.0f} ms "
            f"(baseline {BASE_P99_S * 1e3:.0f} ms)",
            _rollout_lines(mit),
            f"    unavailability: {mit.unavailability_device_minutes:,.0f} "
            f"device-minutes",
        ]
        return "\n".join(line for line in lines if line is not None)


def _trip_line(report: ResilienceReport, days: float) -> str:
    trip = report.first_slo_trip_s
    if trip is None:
        return f"    slo_at_risk: never tripped in {days:.0f} days"
    return f"    slo_at_risk: tripped at day {trip / 86_400.0:.1f}"


def _rollout_lines(report: ResilienceReport) -> Optional[str]:
    from repro.resilience.events import EventKind

    trigger = report.events.first_of_kind(EventKind.ROLLOUT_TRIGGERED)
    done = report.events.first_of_kind(EventKind.ROLLOUT_DONE)
    if trigger is None:
        return "    rollout: never triggered"
    waves = len(report.events.of_kind(EventKind.ROLLOUT_WAVE))
    if done is None:
        return (
            f"    rollout: triggered at day {trigger.time_s / 86_400.0:.1f}, "
            f"{waves} waves, unfinished at window end"
        )
    duration_h = (done.time_s - trigger.time_s) / 3600.0
    return (
        f"    rollout: triggered day {trigger.time_s / 86_400.0:.1f}, "
        f"{waves} waves, fleet patched in {duration_h:.1f} h "
        f"(paper: ~3 h emergency rollout)"
    )


def run_section_55_drill(
    devices: int = 300,
    duration_days: float = 90.0,
    utilization: float = 0.85,
    seed: int = 0,
) -> DrillResult:
    """Run both arms of the drill on one shared fault schedule, with the
    stock case-study-shaped baseline latency and the fault rates derived
    from the section 5 models."""
    if not (0 < utilization < 1):
        raise ValueError("baseline utilization must be in (0, 1)")
    config = ResilienceConfig(
        devices=devices,
        offered_load=utilization * devices * DEVICE_THROUGHPUT,
        duration_s=duration_days * 86_400.0,
        seed=seed,
    )
    rates = fault_rates_from_reliability()
    baseline = run_resilience(config, rates, mitigated=False)
    mitigated = run_resilience(config, rates, mitigated=True)
    return DrillResult(
        config=config, rates=rates, baseline=baseline, mitigated=mitigated
    )
