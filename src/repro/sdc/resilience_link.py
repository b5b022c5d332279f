"""Feed campaign results into the PR-1 resilience simulator.

The resilience simulator's SDC fault family is two numbers: a
per-device-hour event rate and a blast window (seconds of served
traffic one event poisons before it is caught).  Both were calibration
constants in PR-1; this module derives them from measurement instead —
the rate from the §5.2 margin-tail screening model, the blast window
from an injection campaign's measured detection latencies, collapsed
expectation-preservingly:

* a *detected* quality-impacting corruption poisons traffic for its
  measured time-to-detection;
* an *undetected* one poisons traffic until some out-of-band event
  (next model publish / host reboot) replaces the corrupted state;
* a corruption whose NE delta is below the impact threshold poisons
  nothing.

The expected poisoned-seconds per SDC event under a protection profile
is then a campaign average, and ``dataclasses.replace`` swaps it into
any base :class:`repro.resilience.faults.FaultRates` so the fleet
simulation runs with measured rather than assumed SDC behaviour.
"""

from __future__ import annotations

import dataclasses
from repro.resilience.faults import FaultRates, fault_rates_from_reliability
from repro.sdc.campaign import ProfileSummary
from repro.sdc.screening import sdc_rate_per_chip_hour

# How long a silent corruption keeps serving before out-of-band
# replacement of the corrupted artifact (model republish cadence).
UNDETECTED_WINDOW_S = 6 * 3600.0


def expected_blast_window_s(summary: ProfileSummary) -> float:
    """Expected seconds of poisoned traffic per SDC event under this
    profile: detected-impacting events contribute their measured
    latency, silent-impacting events the out-of-band window."""
    poisoned = 0.0
    for outcome in summary.outcomes:
        if not outcome.ne_impacting:
            continue
        poisoned += outcome.latency_s if outcome.detected else UNDETECTED_WINDOW_S
    return poisoned / summary.trials


def sdc_fault_rates(summary: ProfileSummary) -> FaultRates:
    """A :class:`FaultRates` whose SDC family is measured, not assumed.

    The event rate comes from the screen's margin tail (the same §5.2
    distribution PR-1 used), the blast window from the campaign's
    detection latencies under ``summary``'s profile.  All other fault
    families keep :func:`fault_rates_from_reliability`'s values.
    """
    return dataclasses.replace(
        fault_rates_from_reliability(),
        sdc_per_device_hour=sdc_rate_per_chip_hour(),
        sdc_blast_window_s=expected_blast_window_s(summary),
    )
