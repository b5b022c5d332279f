"""Per-op power traces and the chip-level power model.

Two jobs, both derived from numbers the rest of the stack already
produces rather than invented:

1. :func:`activity_trace` turns an :class:`~repro.perf.executor.ExecutionReport`
   into a time-domain power trace: one segment per op, splitting the
   op's dynamic power across compute, SRAM, and LPDDR activity by the
   executor's own component-time breakdown, plus the chip's
   (temperature-dependent) leakage floor.  The trace integrates back to
   exactly ``report.energy_j`` when evaluated at the same junction
   temperature the executor used — the invariant the property tests pin.

2. :func:`chip_power_w` is the closed-form operating-point model the
   time-domain studies (DVFS, capping, provisioning) step: dynamic power
   scales as utilization x f x V(f)^2 around the spec's calibrated
   operating point, leakage follows :meth:`ChipSpec.leakage_power_w`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.perf.executor import ExecutionReport, OpProfile

# Supply voltage scales sub-linearly with frequency around the operating
# point: dV/V ~ VOLTAGE_SLOPE * df/f (the shallow end of the shmoo the
# overclocking study exploited — ample margin means little extra voltage
# is needed to reach 1.35 GHz).
VOLTAGE_SLOPE = 0.6


@dataclasses.dataclass(frozen=True)
class PowerSegment:
    """Power draw over one op's execution window."""

    op_name: str
    start_s: float
    duration_s: float
    compute_w: float
    sram_w: float
    lpddr_w: float
    leakage_w: float

    @property
    def total_w(self) -> float:
        """Total draw over the segment."""
        return self.compute_w + self.sram_w + self.lpddr_w + self.leakage_w

    @property
    def energy_j(self) -> float:
        """Energy of the segment."""
        return self.total_w * self.duration_s


@dataclasses.dataclass(frozen=True)
class PowerTrace:
    """A chip's power draw over one batch, segment by segment."""

    chip_name: str
    segments: Tuple[PowerSegment, ...]

    @property
    def duration_s(self) -> float:
        return sum(s.duration_s for s in self.segments)

    @property
    def energy_j(self) -> float:
        """Integral of the trace."""
        return sum(s.energy_j for s in self.segments)

    @property
    def avg_power_w(self) -> float:
        duration = self.duration_s
        return self.energy_j / duration if duration else 0.0

    @property
    def peak_power_w(self) -> float:
        return max((s.total_w for s in self.segments), default=0.0)


def activity_trace(
    report: ExecutionReport,
    chip: ChipSpec,
    temperature_c: Optional[float] = None,
) -> PowerTrace:
    """Per-op power trace of one executed batch.

    The executor's energy model charges each op ``leakage + dynamic *
    busy`` where ``busy`` is the op's compute occupancy; the trace keeps
    that total per op (so the integral reproduces ``report.energy_j``)
    and attributes the dynamic part to compute/SRAM/LPDDR in proportion
    to the executor's component times — the activity split the thermal
    and capping models consume.
    """
    leakage = chip.leakage_power_w(temperature_c)
    dynamic_full = chip.typical_watts * (1.0 - chip.idle_power_fraction)
    segments = []
    t = 0.0
    for profile in report.op_profiles:
        busy = profile.compute_s / profile.time_s if profile.time_s else 0.0
        dynamic = dynamic_full * min(1.0, busy)
        compute_w, sram_w, lpddr_w = _split_dynamic(profile, dynamic)
        segments.append(
            PowerSegment(
                op_name=profile.op_name,
                start_s=t,
                duration_s=profile.time_s,
                compute_w=compute_w,
                sram_w=sram_w,
                lpddr_w=lpddr_w,
                leakage_w=leakage,
            )
        )
        t += profile.time_s
    return PowerTrace(chip_name=chip.name, segments=tuple(segments))


def _split_dynamic(profile: OpProfile, dynamic_w: float) -> Tuple[float, float, float]:
    """Attribute an op's dynamic power across activity components in
    proportion to the executor's component times."""
    weights = (profile.compute_s, profile.sram_s, profile.dram_s)
    total = sum(weights)
    if total <= 0:
        return dynamic_w, 0.0, 0.0
    return tuple(dynamic_w * w / total for w in weights)  # type: ignore[return-value]


def dynamic_power_w(
    chip: ChipSpec, frequency_hz: float, utilization: float
) -> float:
    """Dynamic power at an operating point.

    Anchored so that full utilization at the spec's rated frequency
    draws the full ``typical_watts`` dynamic share; frequency moves it
    as ``f * V(f)^2`` with the sub-linear voltage slope above.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    ratio = frequency_hz / chip.frequency_hz
    voltage = 1.0 + VOLTAGE_SLOPE * (ratio - 1.0)
    full = chip.typical_watts * (1.0 - chip.idle_power_fraction)
    return max(0.0, utilization) * full * ratio * voltage * voltage


def chip_power_w(
    chip: ChipSpec,
    frequency_hz: float,
    utilization: float,
    temperature_c: Optional[float] = None,
) -> float:
    """Total chip draw: temperature-dependent leakage plus dynamic."""
    return chip.leakage_power_w(temperature_c) + dynamic_power_w(
        chip, frequency_hz, utilization
    )


def utilization_profile(
    duration_s: float,
    dt_s: float,
    mean: float = 0.75,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
) -> np.ndarray:
    """A diurnal-plus-noise utilization trace on a uniform grid.

    One sinusoidal 'day' (±20% around ``mean``, 6% lognormal noise) is
    compressed into ``duration_s``; every
    time-domain power study (DVFS, capping, provisioning) draws its load
    shape from here so their inputs agree.
    """
    if duration_s <= 0 or dt_s <= 0:
        raise ValueError("duration and dt must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    steps = int(np.ceil(duration_s / dt_s))
    t = np.arange(steps) * dt_s
    base = mean * (1.0 + 0.2 * np.sin(2.0 * np.pi * t / duration_s))
    jitter = rng.lognormal(0.0, 0.06, size=steps)
    return np.clip(base * jitter, 0.02, 1.0)


__all__ = [
    "PowerSegment",
    "PowerTrace",
    "VOLTAGE_SLOPE",
    "activity_trace",
    "chip_power_w",
    "dynamic_power_w",
    "utilization_profile",
]
