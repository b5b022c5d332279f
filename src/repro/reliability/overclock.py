"""Overclocking-at-scale study (paper section 5.2).

Meta raised MTIA 2i's frequency from the 1.1 GHz design point to
1.35 GHz after a study on ~3,000 chips x 10 test types at three
frequencies (1.1, 1.25, 1.35 GHz) showed negligible pass-rate decrease —
evidence of ample margin from design and manufacturing.  End-to-end
throughput improved 5-20% in replay tests.

The model: each chip's maximum stable frequency is drawn from a
manufacturing-variation distribution whose mean sits well above the
design point (the guard-banded reality the study discovered).  A test
passes when the chip's margin at the test frequency exceeds the test's
sensitivity, with small measurement noise.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

import numpy as np

from repro.units import GHZ

DESIGN_FREQUENCY_HZ = 1.1 * GHZ
STUDY_FREQUENCIES_HZ = (1.1 * GHZ, 1.25 * GHZ, 1.35 * GHZ)
# The frequency the fleet shipped at after the study.
SHIPPED_FREQUENCY_HZ = 1.35 * GHZ
PAPER_STUDY_CHIPS = 3000
# Run-to-run measurement noise of one qualification test.
TEST_NOISE_HZ = 0.01 * GHZ

# The ten per-chip test types the paper lists (performance, power,
# memory, kernel, module manufacturing, functional PCIe, plus the
# remaining qualification suites), with relative frequency sensitivity.
TEST_SUITE = (
    ("performance", 1.00),
    ("power", 0.85),
    ("memory", 0.95),
    ("kernel", 0.98),
    ("module_manufacturing", 0.70),
    ("functional_pcie", 0.60),
    ("thermal", 0.80),
    ("stress", 1.00),
    ("io_integrity", 0.65),
    ("boot", 0.50),
)


# Manufacturing variation of per-chip stable frequency: the mean is the
# design guard band the study discovered.
MEAN_FMAX_HZ = 1.52 * GHZ
SIGMA_FMAX_HZ = 0.05 * GHZ


def sample_fmax(num_chips: int, rng: np.random.Generator) -> np.ndarray:
    """Draw each chip's true maximum stable frequency."""
    return rng.normal(MEAN_FMAX_HZ, SIGMA_FMAX_HZ, size=num_chips)


@dataclasses.dataclass(frozen=True)
class StudyResult:
    """Pass rates per frequency per test, over the chip population."""

    frequencies_hz: Sequence[float]
    pass_rates: Dict[float, Dict[str, float]]  # freq -> test -> rate
    chips: int

    def overall_pass_rate(self, frequency_hz: float) -> float:
        """Fraction of (chip, test) runs passing at a frequency."""
        rates = self.pass_rates[frequency_hz]
        return sum(rates.values()) / len(rates)

    def pass_rate_drop(self, low_hz: float, high_hz: float) -> float:
        """Pass-rate decrease going from ``low_hz`` to ``high_hz``."""
        return self.overall_pass_rate(low_hz) - self.overall_pass_rate(high_hz)


def run_overclocking_study(
    num_chips: int = PAPER_STUDY_CHIPS,
    seed: int = 0,
) -> StudyResult:
    """Simulate the 3,000-chip x 10-test x 3-frequency campaign; the
    draws come from ``default_rng(seed)`` in a fixed order."""
    if num_chips <= 0:
        raise ValueError("need at least one chip")
    rng = np.random.default_rng(seed)
    fmax = sample_fmax(num_chips, rng)
    pass_rates: Dict[float, Dict[str, float]] = {}
    for frequency in STUDY_FREQUENCIES_HZ:
        per_test: Dict[str, float] = {}
        for test_name, sensitivity in TEST_SUITE:
            noise = rng.normal(0, TEST_NOISE_HZ, size=num_chips)
            # A test at sensitivity s effectively stresses the chip at
            # s * frequency relative to its margin.
            effective = frequency * sensitivity + noise
            per_test[test_name] = float(np.mean(effective <= fmax))
        pass_rates[frequency] = per_test
    return StudyResult(
        frequencies_hz=tuple(STUDY_FREQUENCIES_HZ), pass_rates=pass_rates, chips=num_chips
    )


def overclock_throughput_gain(
    report_at_design, report_at_overclock
) -> float:
    """End-to-end throughput gain from re-clocking (executor reports).

    Compute-bound models approach the full 23% frequency ratio; DRAM- or
    host-bound models see less — the paper's 5-20% band.
    """
    base = report_at_design.throughput_samples_per_s
    fast = report_at_overclock.throughput_samples_per_s
    if base <= 0:
        raise ValueError("baseline throughput must be positive")
    return fast / base - 1.0
