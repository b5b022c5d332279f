"""Periodic fleet screening for silent-data-corruption (paper §5.2 link).

The overclocking study (:mod:`repro.reliability.overclock`) shipped the
fleet at 1.35 GHz because the margin distribution left a negligible tail
of chips whose true f_max sits below the effective stress frequency.
*Negligible* is not *zero*: those marginal chips are the population that
intermittently flips datapath bits — the per-chip SDC rate used by the
PR-1 resilience simulator.  Production fleets therefore run a periodic
offline screen (short targeted test patterns on drained devices); this
module models its coverage, latency, and throughput cost as a function
of the same margin distribution, so tightening the overclock or the
screening cadence trades off inside one model.
"""

from __future__ import annotations

import math

from repro.reliability.overclock import SHIPPED_FREQUENCY_HZ
from repro.resilience.faults import (
    SDC_EVENTS_PER_MARGINAL_CHIP_HOUR,
    margin_shortfall_fraction,
)

DAYS = 86_400.0
# The periodic per-chip screen: every ``SCREEN_INTERVAL_S`` a device is
# drained for ``SCREEN_DURATION_S`` and run through targeted patterns
# that catch a truly marginal chip with probability
# ``SCREEN_SENSITIVITY``.
SCREEN_INTERVAL_S = 7 * DAYS
SCREEN_DURATION_S = 1800.0
SCREEN_SENSITIVITY = 0.9


def sdc_rate_per_chip_hour() -> float:
    """Fleet-average silent-corruption event rate, before detection:
    the §5.2 margin tail at the shipped frequency times the
    per-marginal-chip event rate the resilience simulator calibrates
    against."""
    return (
        margin_shortfall_fraction(SHIPPED_FREQUENCY_HZ)
        * SDC_EVENTS_PER_MARGINAL_CHIP_HOUR
    )


def screening_overhead_fraction() -> float:
    """Serving capacity lost to the screen's drain window."""
    return SCREEN_DURATION_S / SCREEN_INTERVAL_S


def mean_detection_latency_s() -> float:
    """Expected time from a chip turning marginal to the screen
    catching it: a geometric number of intervals (miss probability
    ``1 - SCREEN_SENSITIVITY``) on top of the uniform phase offset."""
    if SCREEN_SENSITIVITY == 0:
        return math.inf
    missed_rounds = (1.0 - SCREEN_SENSITIVITY) / SCREEN_SENSITIVITY
    return (0.5 + missed_rounds) * SCREEN_INTERVAL_S
