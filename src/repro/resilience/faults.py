"""Fault processes for the resilience simulator, derived from the
reliability models of paper section 5.

Each fault family's per-device-hour rate comes from the module that
reproduces the corresponding study rather than from free parameters:

* **PCIe deadlocks** — :func:`repro.reliability.firmware.deadlock_incidence`
  gives the fraction of servers wedging per observation day (the paper's
  0.1%/day production figure at default knobs).
* **Uncorrectable memory errors** — the per-card error probability that
  reproduces section 5.1's 24%-of-servers telemetry
  (:func:`repro.reliability.fleet.card_error_probability_for_server_fraction`),
  thinned by the double-bit share that SEC-DED detects but cannot
  correct.
* **Silent data corruption** — the overclock margin model of section
  5.2: chips whose true f_max sits below the shipped frequency times the
  harshest test sensitivity occasionally compute wrong results.
* **Power throttling** — the section 5.3 telemetry model: the fraction
  of production power samples above a cap is the chance any given hour
  contains a throttling episode.

Fault *arrival times* are pre-sampled per device per family as Poisson
processes at construction, in a fixed order, from one seeded generator —
so a run's entire fault schedule is a pure function of the seed, and two
runs with the same seed produce identical event logs (the determinism
the acceptance tests check).  Arrivals landing on a device that is no
longer susceptible (already wedged, rebooting, or patched) are simply
dropped, which is standard Poisson thinning.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Tuple

import numpy as np

from repro.reliability.firmware import deadlock_incidence
from repro.reliability.fleet import (
    PAPER_AFFECTED_FRACTION,
    card_error_probability_for_server_fraction,
)
from repro.reliability.overclock import (
    MEAN_FMAX_HZ,
    SHIPPED_FREQUENCY_HZ,
    SIGMA_FMAX_HZ,
)

HOURS_PER_DAY = 24.0
# Share of memory errors that are double-bit (detected-uncorrectable)
# rather than single-bit (corrected); DRAM field studies put the
# multi-bit share around a few percent of events.
DOUBLE_BIT_SHARE = 0.03
# Section 5.1's telemetry window: the 24%-of-servers figure accumulated
# over roughly a month of observation.
FLEET_OBSERVATION_DAYS = 30.0
# How often a marginal (thin-margin) chip actually corrupts a result.
SDC_EVENTS_PER_MARGINAL_CHIP_HOUR = 0.05
# Seconds of served traffic one SDC event poisons before detection.
SDC_BLAST_WINDOW_S = 60.0
# Fraction of production power samples above the rack cap (section
# 5.3's P90 methodology leaves a small tail by construction).
POWER_THROTTLE_TAIL = 0.02
# How long a power throttle, and the degrade after an uncorrectable
# memory error, hold a device below full throughput.
THROTTLE_DURATION_S = 1800.0
ECC_DEGRADE_DURATION_S = 600.0


@dataclasses.dataclass(frozen=True)
class FaultRates:
    """Per-device-hour Poisson rates for each fault family, plus the
    transient-fault durations."""

    deadlock_per_device_hour: float
    ecc_ue_per_device_hour: float
    sdc_per_device_hour: float
    throttle_per_device_hour: float
    sdc_blast_window_s: float = SDC_BLAST_WINDOW_S

    def __post_init__(self) -> None:
        for name in (
            "deadlock_per_device_hour",
            "ecc_ue_per_device_hour",
            "sdc_per_device_hour",
            "throttle_per_device_hour",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def margin_shortfall_fraction(operating_hz: float) -> float:
    """P(chip f_max < operating frequency) under the margin model — the
    tail of chips the overclock shipped with thin margin."""
    z = (operating_hz - MEAN_FMAX_HZ) / SIGMA_FMAX_HZ
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def fault_rates_from_reliability() -> FaultRates:
    """Derive the simulator's fault rates from the section 5 models.

    The deadlock fraction is the incidence the unmitigated firmware
    model produces at its paper-calibrated knobs (~0.1%/day); the SDC
    rate is the margin tail at the shipped frequency.
    """
    deadlock_fraction_per_day = deadlock_incidence()

    card_error_per_window = card_error_probability_for_server_fraction(
        PAPER_AFFECTED_FRACTION
    )
    ecc_ue_per_hour = (
        card_error_per_window
        * DOUBLE_BIT_SHARE
        / (FLEET_OBSERVATION_DAYS * HOURS_PER_DAY)
    )

    marginal = margin_shortfall_fraction(SHIPPED_FREQUENCY_HZ)
    sdc_per_hour = marginal * SDC_EVENTS_PER_MARGINAL_CHIP_HOUR

    return FaultRates(
        deadlock_per_device_hour=deadlock_fraction_per_day / HOURS_PER_DAY,
        ecc_ue_per_device_hour=ecc_ue_per_hour,
        sdc_per_device_hour=sdc_per_hour,
        throttle_per_device_hour=POWER_THROTTLE_TAIL,
    )


# Families in a fixed order so pre-sampling is reproducible.
FAULT_FAMILIES: Tuple[str, ...] = ("deadlock", "ecc_ue", "sdc", "throttle")


def _rate_for(rates: FaultRates, family: str) -> float:
    return {
        "deadlock": rates.deadlock_per_device_hour,
        "ecc_ue": rates.ecc_ue_per_device_hour,
        "sdc": rates.sdc_per_device_hour,
        "throttle": rates.throttle_per_device_hour,
    }[family]


def presample_fault_arrivals(
    rates: FaultRates,
    num_devices: int,
    duration_s: float,
    rng: np.random.Generator,
) -> Dict[str, List[Tuple[float, int]]]:
    """Draw every fault arrival for the whole window up front.

    Returns, per family, a time-sorted list of ``(time_s, device_id)``.
    Sampling order is fixed (family-major, device-minor) so the schedule
    is a deterministic function of the generator state.
    """
    if num_devices <= 0 or duration_s <= 0:
        raise ValueError("need a non-empty pool and positive window")
    schedule: Dict[str, List[Tuple[float, int]]] = {}
    for family in FAULT_FAMILIES:
        rate_per_s = _rate_for(rates, family) / 3600.0
        arrivals: List[Tuple[float, int]] = []
        for device_id in range(num_devices):
            if rate_per_s <= 0:
                continue
            t = 0.0
            while True:
                t += rng.exponential(1.0 / rate_per_s)
                if t >= duration_s:
                    break
                arrivals.append((t, device_id))
        arrivals.sort()
        schedule[family] = arrivals
    return schedule
