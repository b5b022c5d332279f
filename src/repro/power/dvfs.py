"""DVFS governor with thermal feedback (section 5.2, live).

``repro.reliability.overclock`` models the *static* study: 3,000 chips x
10 tests showed ample margin, so the fleet shipped at 1.35 GHz.  This
module makes that decision dynamic.  Each chip's maximum stable
frequency is drawn from the same margin distribution the
study discovered; a per-chip governor walks a frequency/voltage ladder,
stepping down when the junction crosses the throttle limit and back up
when there is thermal headroom.  Coupled
to the lumped RC network in :mod:`repro.power.thermal` and the
leakage-aware power model in :mod:`repro.power.activity`, the governed
fleet reproduces the paper's 5-20% end-to-end overclocking gain — now
*with* the thermal feedback a static frequency comparison cannot see.

Throughput versus frequency is not assumed linear: it is calibrated by
running the real graph executor at each ladder frequency
(:func:`calibrate_throughput`), so memory-bound models keep their
flatter frequency response.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import ChipSpec
from repro.obs.metrics import MetricsRegistry, active
from repro.power.activity import chip_power_w, utilization_profile
from repro.power.thermal import (
    THROTTLE_LIMIT_C,
    THROTTLE_TARGET_C,
    ThermalNetwork,
    mtia2i_thermal,
)
from repro.reliability.overclock import DESIGN_FREQUENCY_HZ, sample_fmax
from repro.units import GHZ

# The frequency/voltage ladder the governor walks.  The deployed
# operating point (1.35 GHz) tops the production ladder; the design
# point (1.1 GHz) is the baseline every gain is measured against.
DEFAULT_LADDER_HZ: Tuple[float, ...] = (
    0.8 * GHZ, 0.9 * GHZ, 1.0 * GHZ, 1.1 * GHZ,
    1.2 * GHZ, 1.25 * GHZ, 1.3 * GHZ, 1.35 * GHZ,
)
# The governed fleet study: one governor tick a second, load around 85%,
# and 7 C of ambient rise from the upstream to the downstream chip.
GOVERNOR_TICK_S = 1.0
UTILIZATION_MEAN = 0.85
AMBIENT_SPREAD_C = 7.0
# A ladder state is usable only if the chip's measured fmax clears it
# by this factor — the qualification guard band the study kept.
QUALIFICATION_MARGIN = 1.05


def frequency_for_budget(
    chip: ChipSpec, utilization: float, budget_w: float
) -> float:
    """Highest ladder frequency whose draw at ``utilization`` fits the
    budget (the ladder floor if none does — a chip cannot clock below
    its minimum state)."""
    for frequency in reversed(DEFAULT_LADDER_HZ):
        if chip_power_w(chip, frequency, utilization) <= budget_w:
            return frequency
    return DEFAULT_LADDER_HZ[0]


@dataclasses.dataclass(frozen=True)
class ThroughputCurve:
    """Relative end-to-end throughput versus frequency, from the executor.

    Normalized so the design frequency maps to 1.0.  Piecewise-linear
    between calibrated points, clamped at the ends.
    """

    frequencies_hz: Tuple[float, ...]
    relative_throughput: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.frequencies_hz) != len(self.relative_throughput):
            raise ValueError("curve points must pair up")
        if len(self.frequencies_hz) < 2:
            raise ValueError("need at least two calibration points")
        if list(self.frequencies_hz) != sorted(self.frequencies_hz):
            raise ValueError("frequencies must be ascending")

    def relative(self, frequency_hz: float) -> float:
        """Relative throughput at a frequency (interpolated)."""
        freqs, values = self.frequencies_hz, self.relative_throughput
        if frequency_hz <= freqs[0]:
            return values[0]
        if frequency_hz >= freqs[-1]:
            return values[-1]
        i = bisect.bisect_right(freqs, frequency_hz)
        span = freqs[i] - freqs[i - 1]
        frac = (frequency_hz - freqs[i - 1]) / span
        return values[i - 1] + frac * (values[i] - values[i - 1])


def calibrate_throughput(model) -> ThroughputCurve:
    """Run the executor at each ladder frequency and normalize to the
    design frequency.

    ``model`` is a zoo model (anything with ``.graph()`` and
    ``.batch``).  This is where memory-bound models get their flat
    frequency response: LPDDR bandwidth does not scale with core clock,
    so the executor's bottleneck model caps the gain.
    """
    from repro.perf.executor import Executor

    throughputs: Dict[float, float] = {}
    for frequency in sorted(set(DEFAULT_LADDER_HZ) | {DESIGN_FREQUENCY_HZ}):
        chip = mtia2i_spec(frequency_hz=frequency)
        report = Executor(chip).run(model.graph(), model.batch, warmup_runs=1)
        throughputs[frequency] = report.throughput_samples_per_s
    base = throughputs[DESIGN_FREQUENCY_HZ]
    freqs = tuple(sorted(throughputs))
    return ThroughputCurve(
        frequencies_hz=freqs,
        relative_throughput=tuple(throughputs[f] / base for f in freqs),
    )


class DvfsGovernor:
    """One chip's frequency governor: it walks ``DEFAULT_LADDER_HZ``,
    stepping down above the thermal throttle limit and up below the
    target."""

    def __init__(
        self,
        chip: ChipSpec,
        fmax_hz: float,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.chip = chip
        self.fmax_hz = fmax_hz
        self._obs = active(registry)
        ladder = DEFAULT_LADDER_HZ
        # Highest ladder state the chip's measured margin qualifies; the
        # ladder floor is always permitted (a chip that cannot hold even
        # that is scrapped upstream, in the screening models).
        usable = [
            i for i, f in enumerate(ladder)
            if f * QUALIFICATION_MARGIN <= fmax_hz
        ]
        self.max_index = usable[-1] if usable else 0
        # Start at the design point, as the fleet did pre-study.
        self.index = min(
            range(len(ladder)),
            key=lambda i: abs(ladder[i] - DESIGN_FREQUENCY_HZ),
        )
        self.index = min(self.index, self.max_index)
        self.thermal_throttles = 0

    @property
    def frequency_hz(self) -> float:
        return DEFAULT_LADDER_HZ[self.index]

    def power_w(self, utilization: float, junction_c: float) -> float:
        """Draw at the current state under a load and temperature."""
        return chip_power_w(
            self.chip, self.frequency_hz, utilization, junction_c
        )

    def step(self, junction_c: float) -> float:
        """One governor tick: adjust at most one ladder state.

        Returns the frequency to run until the next tick.
        """
        if junction_c > THROTTLE_LIMIT_C:
            if self.index > 0:
                self.index -= 1
            self.thermal_throttles += 1
            self._obs.counter("power.throttle.thermal").inc()
        elif junction_c < THROTTLE_TARGET_C and self.index < self.max_index:
            self.index += 1
        self._obs.gauge("power.frequency_hz").set(self.frequency_hz)
        return self.frequency_hz


def _warm_start(
    network: ThermalNetwork,
    chip: ChipSpec,
    frequency_hz: float,
    utilization: float,
) -> np.ndarray:
    """Closed-loop steady state at an operating point: iterate the
    leakage/temperature fixed point (power depends on junction, junction
    on power) to convergence (40 iterations)."""
    junction = network.ambient_c
    for _ in range(40):
        power = chip_power_w(chip, frequency_hz, utilization, junction)
        junction = network.steady_junction_c(power)
    return network.steady_state(
        chip_power_w(chip, frequency_hz, utilization, junction)
    )


@dataclasses.dataclass(frozen=True)
class GovernedChipRun:
    """Time series of one governed chip (for traces and plots)."""

    times_s: Tuple[float, ...]
    frequencies_hz: Tuple[float, ...]
    junction_c: Tuple[float, ...]
    power_w: Tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class ThermalFeedbackResult:
    """Outcome of the governed-overclock fleet study."""

    chip_gains: Tuple[float, ...]
    mean_frequency_hz: float
    peak_junction_c: float
    thermal_throttles: int
    example_run: GovernedChipRun

    @property
    def mean_gain(self) -> float:
        """Fleet-average end-to-end gain over the design frequency."""
        return float(np.mean(self.chip_gains))

    @property
    def min_gain(self) -> float:
        return float(np.min(self.chip_gains))

    @property
    def max_gain(self) -> float:
        return float(np.max(self.chip_gains))


def overclock_with_thermal_feedback(
    curve: ThroughputCurve,
    num_chips: int = 24,
    duration_s: float = 600.0,
    seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> ThermalFeedbackResult:
    """The section 5.2 gain, re-measured with the loop closed.

    For each MTIA 2i chip: draw its fmax from the manufacturing-margin
    distribution, then run the default governed time-domain loop
    (governor → power model → RC network → leakage feedback → governor,
    one tick a second) against a utilization profile around 85%,
    accumulating work as the calibrated relative throughput at the
    governed frequency.  The baseline is the same chip pinned at the
    design frequency on identical load.

    Chips share the chassis airflow in series: chip ``i`` sees ambient
    raised by ``AMBIENT_SPREAD_C * i / (n-1)`` — the downstream end of
    the 24-module Grand Teton sled breathes air pre-heated by the
    upstream end.  That heterogeneity is what makes the closed loop
    differ from the static study: upstream chips hold the full ladder,
    downstream ones throttle, and the fleet-mean gain lands *inside* the
    paper's 5-20% band instead of pinning at the frequency ratio.
    """
    if num_chips <= 0:
        raise ValueError("need at least one chip")
    dt_s = GOVERNOR_TICK_S
    chip = mtia2i_spec()
    obs = active(registry)
    rng = np.random.default_rng(seed)
    fmax = sample_fmax(num_chips, rng)
    steps = int(np.ceil(duration_s / dt_s))
    gains = []
    total_freq = 0.0
    peak_junction = -np.inf
    thermal_throttles = 0
    example: Optional[GovernedChipRun] = None
    template = mtia2i_thermal()
    for chip_index in range(num_chips):
        offset = (
            AMBIENT_SPREAD_C * chip_index / (num_chips - 1)
            if num_chips > 1 else 0.0
        )
        base_network = ThermalNetwork(
            template.stages, ambient_c=template.ambient_c + offset
        )
        util = utilization_profile(
            duration_s, dt_s, mean=UTILIZATION_MEAN, rng=rng
        )
        governor = DvfsGovernor(chip, float(fmax[chip_index]),
                                registry=registry)
        # Warm start: the chip was already serving at the design point
        # before the governor engaged, so begin from that closed-loop
        # steady state rather than a cold package — with slow heatsink
        # time constants a cold start would under-report throttling.
        temps = _warm_start(
            base_network, chip, DESIGN_FREQUENCY_HZ, UTILIZATION_MEAN
        )
        governed_work = 0.0
        times, freqs, junctions, powers = [], [], [], []
        for step in range(steps):
            junction = float(temps[0])
            frequency = governor.step(junction)
            power = governor.power_w(float(util[step]), junction)
            temps = base_network.step(temps, power, dt_s)
            governed_work += curve.relative(frequency) * util[step] * dt_s
            total_freq += frequency
            peak_junction = max(peak_junction, junction)
            if chip_index == num_chips - 1:
                times.append(step * dt_s)
                freqs.append(frequency)
                junctions.append(junction)
                powers.append(power)
        # Baseline: the same load pinned at the design point (relative
        # throughput there is 1.0 by the curve's normalization).
        baseline_work = float(
            np.sum(util) * dt_s * curve.relative(DESIGN_FREQUENCY_HZ)
        )
        gains.append(governed_work / baseline_work - 1.0)
        thermal_throttles += governor.thermal_throttles
        if chip_index == num_chips - 1:
            # Trace the hottest (most downstream) chip — the one whose
            # governor actually works for a living.
            example = GovernedChipRun(
                times_s=tuple(times),
                frequencies_hz=tuple(freqs),
                junction_c=tuple(junctions),
                power_w=tuple(powers),
            )
    result = ThermalFeedbackResult(
        chip_gains=tuple(gains),
        mean_frequency_hz=total_freq / (num_chips * steps),
        peak_junction_c=float(peak_junction),
        thermal_throttles=thermal_throttles,
        example_run=example,
    )
    if obs.enabled:
        obs.gauge("power.dvfs.mean_gain").set(result.mean_gain)
        obs.gauge("power.dvfs.peak_junction_c").set(result.peak_junction_c)
        for t, f in zip(result.example_run.times_s,
                        result.example_run.frequencies_hz):
            obs.series("power.dvfs.frequency_hz").append(t, f)
    return result


__all__ = [
    "DEFAULT_LADDER_HZ",
    "DvfsGovernor",
    "GovernedChipRun",
    "ThermalFeedbackResult",
    "ThroughputCurve",
    "calibrate_throughput",
    "overclock_with_thermal_feedback",
]
