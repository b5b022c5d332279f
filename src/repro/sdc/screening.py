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

import dataclasses
import math

from repro.reliability.overclock import MarginModel
from repro.resilience.faults import (
    SDC_EVENTS_PER_MARGINAL_CHIP_HOUR,
    margin_shortfall_fraction,
)
from repro.units import GHZ

DAYS = 86_400.0


@dataclasses.dataclass(frozen=True)
class FleetScreeningModel:
    """A periodic per-chip screen: every ``interval_s`` a device is
    drained for ``screen_duration_s`` and run through targeted patterns
    that catch a truly marginal chip with probability ``sensitivity``."""

    operating_frequency_hz: float = 1.35 * GHZ
    interval_s: float = 7 * DAYS
    screen_duration_s: float = 1800.0
    sensitivity: float = 0.9

    def __post_init__(self) -> None:
        if self.interval_s <= 0 or self.screen_duration_s < 0:
            raise ValueError("screening cadence must be positive")
        if self.screen_duration_s >= self.interval_s:
            raise ValueError("screen must be shorter than its interval")
        if not (0 <= self.sensitivity <= 1):
            raise ValueError("sensitivity must be in [0, 1]")

    def marginal_chip_fraction(self) -> float:
        """Fraction of the fleet in the thin-margin tail at the shipped
        frequency (zero at the 1.1 GHz design point, by construction)."""
        return margin_shortfall_fraction(MarginModel(), self.operating_frequency_hz)

    def sdc_rate_per_chip_hour(self) -> float:
        """Fleet-average silent-corruption event rate, before detection:
        the §5.2 margin tail times the per-marginal-chip event rate the
        resilience simulator calibrates against."""
        return self.marginal_chip_fraction() * SDC_EVENTS_PER_MARGINAL_CHIP_HOUR

    def overhead_fraction(self) -> float:
        """Serving capacity lost to the screen's drain window."""
        return self.screen_duration_s / self.interval_s

    def mean_detection_latency_s(self) -> float:
        """Expected time from a chip turning marginal to the screen
        catching it: a geometric number of intervals (miss probability
        ``1 - sensitivity``) on top of the uniform phase offset."""
        if self.sensitivity == 0:
            return math.inf
        missed_rounds = (1.0 - self.sensitivity) / self.sensitivity
        return (0.5 + missed_rounds) * self.interval_s
